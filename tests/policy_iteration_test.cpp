// Policy iteration over the exact sparse evaluator: the evaluator against a
// dense-LU oracle, its certificate and multichain detection, relative value
// iteration as an independent optimizer oracle, and the ratio solver's
// status lattice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "btc/selfish_mining.hpp"
#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "mdp/solver_config.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;
using namespace bvc::mdp;

Model random_model(Rng& rng, StateId states, std::size_t actions) {
  ModelBuilder builder(states);
  for (StateId s = 0; s < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      builder.begin_action(s, static_cast<ActionLabel>(a));
      std::vector<double> probs(states);
      double total = 0.0;
      for (double& p : probs) {
        p = 0.05 + rng.next_double();
        total += p;
      }
      for (StateId next = 0; next < states; ++next) {
        builder.add_outcome(next, probs[next] / total,
                            rng.next_double() * 4.0 - 1.0, 0.0);
      }
    }
  }
  return builder.build();
}

/// A sparse random unichain model: every action has three outcomes, one of
/// them back to state 0, so state 0 is recurrent under every policy while
/// I - Q_pi keeps cycles among the other states.
Model sparse_unichain_model(Rng& rng, StateId states, std::size_t actions) {
  ModelBuilder builder(states);
  for (StateId s = 0; s < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      builder.begin_action(s, static_cast<ActionLabel>(a));
      const double home = 0.05 + 0.2 * rng.next_double();
      const double left = (1.0 - home) * rng.next_double();
      builder.add_outcome(0, home, rng.next_double(), rng.next_double());
      builder.add_outcome(static_cast<StateId>(rng.next_below(states)), left,
                          rng.next_double(), rng.next_double());
      builder.add_outcome(static_cast<StateId>(rng.next_below(states)),
                          1.0 - home - left, rng.next_double(),
                          rng.next_double());
    }
  }
  return builder.build();
}

/// The test oracle: the unichain evaluation system
///   g + h(s) - sum_s' P(s'|s) h(s') = r(s),  h(ref) = 0
/// with unknowns (g, h without ref), solved densely by Gaussian
/// elimination with partial pivoting. Returns (g, h).
std::pair<double, std::vector<double>> dense_evaluation(
    const CompiledModel& model, const Policy& policy,
    const std::vector<double>& rewards, StateId ref) {
  const std::size_t n = model.num_states();
  std::vector<double> a(n * n, 0.0);
  std::vector<double> b(n, 0.0);
  // Column ref holds g; column s != ref holds h(s).
  for (StateId s = 0; s < n; ++s) {
    const SaIndex sa = model.sa_index(s, policy.action[s]);
    a[s * n + ref] += 1.0;
    if (s != ref) {
      a[s * n + s] += 1.0;
    }
    for (std::size_t k = model.outcome_begin(sa); k < model.outcome_end(sa);
         ++k) {
      if (model.next()[k] != ref) {
        a[s * n + model.next()[k]] -= model.prob()[k];
      }
    }
    b[s] = rewards[sa];
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) {
        pivot = row;
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      std::swap(a[col * n + k], a[pivot * n + k]);
    }
    std::swap(b[col], b[pivot]);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      for (std::size_t k = col; k < n; ++k) {
        a[row * n + k] -= factor * a[col * n + k];
      }
      b[row] -= factor * b[col];
    }
  }
  for (std::size_t col = n; col-- > 0;) {
    double sum = b[col];
    for (std::size_t k = col + 1; k < n; ++k) {
      sum -= a[col * n + k] * b[k];
    }
    b[col] = sum / a[col * n + col];
  }
  const double gain = b[ref];
  b[ref] = 0.0;
  return {gain, b};
}

Policy random_policy(Rng& rng, const CompiledModel& model) {
  Policy policy;
  policy.action.resize(model.num_states());
  for (StateId s = 0; s < model.num_states(); ++s) {
    policy.action[s] =
        static_cast<std::uint32_t>(rng.next_below(model.num_actions(s)));
  }
  return policy;
}

/// Sparse evaluation against the dense oracle. Biases are compared through
/// differences h(s) - h(0), which do not depend on the reference state.
void expect_matches_oracle(const CompiledModel& model, const Policy& policy,
                           const std::vector<double>& rewards, double tol,
                           const std::string& label) {
  AverageRewardKnobs knobs;
  knobs.tolerance = 1e-9;
  const GainResult sparse =
      evaluate_policy_stream(model, policy, rewards, knobs);
  const auto [gain, bias] = dense_evaluation(model, policy, rewards, 0);
  ASSERT_EQ(sparse.status, robust::RunStatus::kConverged) << label;
  EXPECT_NEAR(sparse.gain, gain, tol) << label;
  for (StateId s = 0; s < model.num_states(); ++s) {
    EXPECT_NEAR(sparse.bias[s] - sparse.bias[0], bias[s] - bias[0],
                tol * (1.0 + std::abs(bias[s])))
        << label << " state=" << s;
  }
}

TEST(PolicyIteration, ExactEvaluationOnTwoStateChain) {
  // Alternator with rewards 1 and 3: g = 2, h(1) - h(0) satisfies
  // g + h(0) = 1 + h(1) => h(1) = 1 (with h(0) = 0).
  ModelBuilder builder(2);
  builder.begin_action(0, 0);
  builder.add_outcome(1, 1.0, 1.0, 0.0);
  builder.begin_action(1, 0);
  builder.add_outcome(0, 1.0, 3.0, 0.0);
  const Model model = builder.build();
  std::vector<double> rewards = {1.0, 3.0};
  Policy policy;
  policy.action = {0, 0};
  const GainResult result = evaluate_policy_stream(model, policy, rewards);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.gain, 2.0, 1e-12);
  EXPECT_NEAR(result.bias[1], 1.0, 1e-12);
}

TEST(PolicyIteration, SparseEvaluatorMatchesDenseOracleOnRandomModels) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const StateId states = 2 + static_cast<StateId>(rng.next_below(40));
    const std::size_t actions = 1 + rng.next_below(3);
    const Model model = trial % 2 == 0
                            ? sparse_unichain_model(rng, states, actions)
                            : random_model(rng, states, actions);
    const CompiledModel compiled = CompiledModel::compile(model);
    const std::vector<double> rewards(
        compiled.expected_reward(),
        compiled.expected_reward() + compiled.num_state_actions());
    expect_matches_oracle(compiled, random_policy(rng, compiled), rewards,
                          1e-9, "trial " + std::to_string(trial));
  }
}

TEST(PolicyIteration, SparseEvaluatorMatchesDenseOracleOnSelfishMining) {
  // State 0 of the selfish-mining model is transient, and I - Q_pi has
  // cycles that avoid the reference state: ILU(0) is inexact there, so the
  // Krylov solve must iterate to reach the oracle.
  btc::SmParams params;
  params.alpha = 0.3;
  params.gamma_tie = 0.5;
  params.max_len = 8;
  const btc::SmModel sm =
      btc::build_sm_model(params, bu::Utility::kRelativeRevenue);
  const CompiledModel& compiled = *sm.compiled;
  Rng rng(5);
  std::int64_t krylov = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const Policy policy = trial == 0 ? policy_iteration(compiled).policy
                                     : random_policy(rng, compiled);
    const AverageRewardKnobs knobs;
    const GainResult probe = evaluate_policy_stream(
        compiled, policy,
        {compiled.expected_reward(), compiled.num_state_actions()}, knobs);
    if (probe.status == robust::RunStatus::kDegenerateModel) {
      continue;  // a random policy may be multichain here
    }
    krylov += probe.iterations;
    for (const double* stream :
         {compiled.expected_reward(), compiled.expected_weight()}) {
      const std::vector<double> rewards(
          stream, stream + compiled.num_state_actions());
      expect_matches_oracle(compiled, policy, rewards, 1e-8,
                            "trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(krylov, 0);
}

TEST(PolicyIteration, MultichainPoliciesAreDegenerateNotNumbers) {
  // Two absorbing states: a multichain (singular) evaluation system.
  ModelBuilder builder(3);
  builder.begin_action(0, 0);
  builder.add_outcome(0, 1.0, 1.0, 1.0);
  builder.begin_action(1, 0);
  builder.add_outcome(1, 1.0, 2.0, 1.0);
  builder.begin_action(2, 0);
  builder.add_outcome(0, 0.5, 0.0, 1.0);
  builder.add_outcome(1, 0.5, 0.0, 1.0);
  const Model absorbing = builder.build();
  Policy policy;
  policy.action = {0, 0, 0};
  const GainResult two_sinks = evaluate_policy_stream(
      absorbing, policy, std::vector<double>{1.0, 2.0, 0.0});
  EXPECT_EQ(two_sinks.status, robust::RunStatus::kDegenerateModel);
  EXPECT_FALSE(two_sinks.converged());
  EXPECT_FALSE(evaluate_policy_average(absorbing, policy).converged());

  // A closed 2-cycle away from the absorbing state 0.
  ModelBuilder cycle(3);
  cycle.begin_action(0, 0);
  cycle.add_outcome(0, 1.0, 0.0, 1.0);
  cycle.begin_action(1, 0);
  cycle.add_outcome(2, 1.0, 1.0, 1.0);
  cycle.begin_action(2, 0);
  cycle.add_outcome(1, 1.0, 1.0, 1.0);
  const GainResult split = evaluate_policy_stream(
      cycle.build(), policy, std::vector<double>{0.0, 1.0, 1.0});
  EXPECT_EQ(split.status, robust::RunStatus::kDegenerateModel);

  // Policy iteration started on a multichain policy reports it, too.
  const PolicyIterationResult howard = policy_iteration(absorbing);
  EXPECT_EQ(howard.status, robust::RunStatus::kDegenerateModel);
}

TEST(PolicyIteration, CertificateBoundsTheGain) {
  Rng rng(11);
  const Model model = sparse_unichain_model(rng, 30, 2);
  const PolicyIterationResult exact = policy_iteration(model);
  ASSERT_TRUE(exact.converged());
  EXPECT_LE(exact.bracket_width, PolicyIterationKnobs{}.tolerance);
  // A tolerance below the achievable bracket width cannot certify: the
  // solve stops at its first evaluation and says so.
  PolicyIterationKnobs strict;
  strict.tolerance = 1e-300;
  const PolicyIterationResult stalled = policy_iteration(model, strict);
  EXPECT_EQ(stalled.status, robust::RunStatus::kToleranceStalled);
  EXPECT_EQ(stalled.improvements(), 1);
  EXPECT_GT(stalled.bracket_width, strict.tolerance);
}

TEST(PolicyIteration, AgreesWithRviOnRandomModels) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const StateId states = 2 + static_cast<StateId>(rng.next_below(8));
    const std::size_t actions = 1 + rng.next_below(4);
    const Model model = random_model(rng, states, actions);

    const PolicyIterationResult exact = policy_iteration(model);
    const GainResult iterative = maximize_average_reward(model);
    EXPECT_TRUE(exact.converged());
    EXPECT_NEAR(exact.gain, iterative.gain, 1e-6) << "trial " << trial;
  }
}

TEST(PolicyIteration, ConvergesInFewImprovements) {
  Rng rng(7);
  const Model model = random_model(rng, 10, 3);
  const PolicyIterationResult result = policy_iteration(model);
  EXPECT_TRUE(result.converged());
  EXPECT_LE(result.improvements(), 20);
}

TEST(PolicyIteration, SolvesTheSetting1AttackModelExactly) {
  // The paper's setting-1 model at AD = 6: policy iteration must reproduce
  // the RVI gain for the linearized u1 objective at the optimal rho (where
  // the gain is ~0).
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.375;
  params.gamma = 0.375;
  params.ad = 6;
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);

  // Linearize at rho = the known optimum 0.2624: optimal gain ~ 0.
  const double rho = 0.2624;
  std::vector<double> rewards(attack.model.num_state_actions());
  for (SaIndex sa = 0; sa < rewards.size(); ++sa) {
    rewards[sa] = attack.model.expected_reward(sa) -
                  rho * attack.model.expected_weight(sa);
  }
  const PolicyIterationResult exact =
      policy_iteration(attack.model, rewards);
  const GainResult iterative =
      maximize_average_reward(attack.model, rewards);
  EXPECT_TRUE(exact.converged());
  EXPECT_NEAR(exact.gain, iterative.gain, 1e-6);
  EXPECT_NEAR(exact.gain, 0.0, 1e-3);
}

TEST(PolicyIteration, RejectsBadPolicy) {
  Rng rng(4);
  const Model model = random_model(rng, 4, 2);
  Policy short_policy;
  short_policy.action = {0, 0};
  std::vector<double> rewards(model.num_state_actions(), 1.0);
  EXPECT_THROW(
      (void)evaluate_policy_stream(model, short_policy, rewards),
      std::invalid_argument);
}

// ---- two-oracle gate --------------------------------------------------------

/// Odoni's bracket on the OPTIMAL gain of `rewards` from any bias h:
/// min_s (T h - h)(s) <= g* <= max_s (T h - h)(s), T the Bellman operator.
std::pair<double, double> optimal_gain_bracket(
    const CompiledModel& model, const std::vector<double>& rewards,
    const std::vector<double>& bias) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (StateId s = 0; s < model.num_states(); ++s) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const SaIndex sa = model.sa_index(s, a);
      double q = rewards[sa];
      for (std::size_t k = model.outcome_begin(sa); k < model.outcome_end(sa);
           ++k) {
        q += model.prob()[k] * bias[model.next()[k]];
      }
      best = std::max(best, q);
    }
    lo = std::min(lo, best - bias[s]);
    hi = std::max(hi, best - bias[s]);
  }
  return {lo, hi};
}

/// Dinkelbach with relative value iteration as the optimizer — the ratio
/// solver's former inner loop, kept here as an independent oracle.
double rvi_ratio(const CompiledModel& model, double rvi_tolerance) {
  AverageRewardKnobs knobs;
  knobs.tolerance = rvi_tolerance;
  std::vector<double> linearized(model.num_state_actions());
  std::vector<double> bias;
  double rho = 0.0;
  for (int it = 0; it < 50; ++it) {
    for (SaIndex sa = 0; sa < linearized.size(); ++sa) {
      linearized[sa] =
          model.expected_reward(sa) - rho * model.expected_weight(sa);
    }
    const GainResult run = maximize_average_reward(
        model, linearized, knobs, bias.empty() ? nullptr : &bias);
    bias = run.bias;
    const PolicyGains rates = evaluate_policy_average(model, run.policy);
    const double achieved = rates.reward_rate / rates.weight_rate;
    if (achieved <= rho + 1e-9) {
      return std::max(rho, achieved);
    }
    rho = achieved;
  }
  return rho;
}

void expect_oracles_agree(const bu::AttackParams& params) {
  const bu::AttackModel attack =
      bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
  const CompiledModel& model = *attack.compiled;
  const std::string label = "alpha=" + std::to_string(params.alpha) +
                            " beta=" + std::to_string(params.beta);
  const bu::AnalysisResult pi = bu::analyze(attack);
  ASSERT_TRUE(pi.converged()) << label;

  const double rvi_tolerance = 1e-9;
  EXPECT_NEAR(pi.utility_value, rvi_ratio(model, rvi_tolerance), 1e-6)
      << label;

  // At the PI optimum rho*, RVI's optimal linearized gain must lie inside
  // the bracket certified from the exact policy-iteration bias.
  const double rho = pi.utility_value;
  std::vector<double> linearized(model.num_state_actions());
  for (SaIndex sa = 0; sa < linearized.size(); ++sa) {
    linearized[sa] =
        model.expected_reward(sa) - rho * model.expected_weight(sa);
  }
  const PolicyIterationResult exact = policy_iteration(model, linearized);
  ASSERT_TRUE(exact.converged()) << label;
  const auto [lo, hi] = optimal_gain_bracket(model, linearized, exact.bias);
  EXPECT_LE(hi - lo, 1e-8) << label;
  AverageRewardKnobs knobs;
  knobs.tolerance = rvi_tolerance;
  const GainResult rvi = maximize_average_reward(model, linearized, knobs);
  // RVI's own certified error: the Odoni bracket of its final bias. Both
  // brackets contain g*, so they must overlap. RVI's point estimate comes
  // from its previous sweep's residuals, so it may miss the exact bracket
  // by its tolerance plus its own certified width.
  const auto [rvi_lo, rvi_hi] =
      optimal_gain_bracket(model, linearized, rvi.bias);
  EXPECT_LE(std::max(lo, rvi_lo), std::min(hi, rvi_hi) + 1e-12) << label;
  const double slack = rvi_tolerance + (rvi_hi - rvi_lo);
  EXPECT_GE(rvi.gain, lo - slack) << label;
  EXPECT_LE(rvi.gain, hi + slack) << label;
}

/// The Table 2 grid (bench_table2): alpha in 10..25%, beta:gamma ratios,
/// cells inside alpha <= min(beta, gamma).
std::vector<bu::AttackParams> table2_cells(bu::Setting setting, unsigned ad) {
  std::vector<bu::AttackParams> cells;
  for (const auto& [b, g] : std::vector<std::pair<int, int>>{
           {3, 2}, {1, 1}, {2, 3}, {1, 2}, {1, 3}, {1, 4}}) {
    for (const double alpha : {0.10, 0.15, 0.20, 0.25}) {
      const double rest = 1.0 - alpha;
      bu::AttackParams params;
      params.alpha = alpha;
      params.beta = rest * b / (b + g);
      params.gamma = rest - params.beta;
      params.setting = setting;
      params.ad = ad;
      if (alpha <= params.beta && alpha <= params.gamma) {
        cells.push_back(params);
      }
    }
  }
  return cells;
}

TEST(TwoOracleGate, Setting1Table2Cells) {
  for (const bu::AttackParams& params :
       table2_cells(bu::Setting::kNoStickyGate, 6)) {
    expect_oracles_agree(params);
  }
}

TEST(TwoOracleGate, Setting2CellsAtAd3) {
  for (const bu::AttackParams& params :
       table2_cells(bu::Setting::kStickyGate, 3)) {
    expect_oracles_agree(params);
  }
}

// ---- status lattice ---------------------------------------------------------

bu::AttackModel lattice_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.25;
  params.gamma = 0.5;
  params.ad = 4;
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

TEST(StatusLattice, InnerRoundCapMakesTheRatioStalled) {
  const bu::AttackModel attack = lattice_model();
  SolverConfig config;
  const RatioResult reference = maximize_ratio(attack.model, config);
  ASSERT_TRUE(reference.converged());
  ASSERT_GT(reference.diagnostics.inner_rounds,
            reference.diagnostics.inner_solves)
      << "the model must need more than one round per inner solve";

  config.policy_iteration.max_improvements = 1;
  const RatioResult capped = maximize_ratio(attack.model, config);
  EXPECT_FALSE(capped.converged());
  EXPECT_EQ(capped.status, robust::RunStatus::kToleranceStalled);
  // Retrying cannot launder the stall: the cap binds every attempt.
  const RatioResult retried = maximize_ratio_with_retry(attack.model, config);
  EXPECT_FALSE(retried.converged());
}

TEST(StatusLattice, UncertifiedEvaluationReachesTheAnalysisStatus) {
  // No bracket is narrower than 1e-300: every inner evaluation stays
  // uncertified, and bu::analyze must report that, not "converged".
  bu::AnalysisOptions options;
  options.inner.tolerance = 1e-300;
  options.retry.max_retries = 0;
  const bu::AnalysisResult result = bu::analyze(lattice_model(), options);
  EXPECT_EQ(result.status, robust::RunStatus::kToleranceStalled);
  EXPECT_FALSE(result.converged());
}

}  // namespace
