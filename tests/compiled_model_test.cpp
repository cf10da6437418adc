// Equivalence of the CompiledModel SoA layout with the Model (AoS)
// representation it compiles: structural fidelity, bit-identical solver
// results through both overload families, and bit-identical raw sweeps
// against an in-test replica of the seed's AoS Gauss-Seidel backup loop.
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "btc/selfish_mining.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "mdp/rollout.hpp"
#include "mdp/solver_config.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;

bu::AttackModel setting1_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kNoStickyGate;
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

bu::AttackModel setting2_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kStickyGate;
  params.gate_period = 12;  // paper-shaped but small enough for a fast test
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

btc::SmModel btc_model() {
  btc::SmParams params;
  params.alpha = 0.30;
  params.gamma_tie = 0.5;
  params.max_len = 12;
  return btc::build_sm_model(params, bu::Utility::kRelativeRevenue);
}

// ---- structural fidelity --------------------------------------------------

TEST(CompiledModel, MirrorsModelStructure) {
  const bu::AttackModel attack = setting1_model();
  const mdp::Model& model = attack.model;
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);

  ASSERT_EQ(compiled.num_states(), model.num_states());
  ASSERT_EQ(compiled.num_state_actions(), model.num_state_actions());

  std::size_t total_outcomes = 0;
  for (mdp::StateId s = 0; s < model.num_states(); ++s) {
    ASSERT_EQ(compiled.num_actions(s), model.num_actions(s));
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const mdp::SaIndex sa = model.sa_index(s, a);
      ASSERT_EQ(compiled.sa_index(s, a), sa);
      EXPECT_EQ(compiled.action_label(sa), model.action_label(s, a));
      EXPECT_EQ(compiled.expected_reward(sa), model.expected_reward(sa));
      EXPECT_EQ(compiled.expected_weight(sa), model.expected_weight(sa));
      const std::span<const mdp::Outcome> outcomes = model.outcomes(sa);
      ASSERT_EQ(compiled.outcome_end(sa) - compiled.outcome_begin(sa),
                outcomes.size());
      std::size_t k = compiled.outcome_begin(sa);
      for (const mdp::Outcome& outcome : outcomes) {
        EXPECT_EQ(compiled.next()[k], outcome.next);
        EXPECT_EQ(compiled.prob()[k], outcome.probability);
        EXPECT_EQ(compiled.reward()[k], outcome.reward);
        EXPECT_EQ(compiled.weight()[k], outcome.weight);
        ++k;
      }
      total_outcomes += outcomes.size();
    }
  }
  EXPECT_EQ(compiled.num_outcomes(), total_outcomes);
}

// ---- raw sweep equivalence vs an AoS reference replica --------------------

// The seed's serial Gauss-Seidel greedy backup sweep, written against the
// AoS Model exactly as average_reward.cpp's rvi_core used to sweep it.
void reference_aos_sweep(const mdp::Model& model,
                         std::span<const double> rewards, double tau,
                         std::vector<double>& bias) {
  double ref = 0.0;
  for (mdp::StateId s = 0; s < model.num_states(); ++s) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const mdp::SaIndex sa = model.sa_index(s, a);
      double q = rewards[sa];
      double expected_next = 0.0;
      for (const mdp::Outcome& outcome : model.outcomes(sa)) {
        expected_next += outcome.probability * bias[outcome.next];
      }
      q = tau * (q + expected_next) + (1.0 - tau) * bias[s];
      if (q > best) {
        best = q;
      }
    }
    if (s == 0) {
      ref = best - bias[0];
    }
    bias[s] = best - ref;
  }
}

// The same sweep over the compiled columns (the layout rvi_core now runs).
void compiled_soa_sweep(const mdp::CompiledModel& model,
                        std::span<const double> rewards, double tau,
                        std::vector<double>& bias) {
  const mdp::StateId* next_col = model.next();
  const double* prob_col = model.prob();
  double ref = 0.0;
  for (mdp::StateId s = 0; s < model.num_states(); ++s) {
    const mdp::SaIndex sa_base = model.state_begin(s);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const mdp::SaIndex sa = sa_base + a;
      double q = rewards[sa];
      double expected_next = 0.0;
      const std::size_t end = model.outcome_end(sa);
      for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
        expected_next += prob_col[k] * bias[next_col[k]];
      }
      q = tau * (q + expected_next) + (1.0 - tau) * bias[s];
      if (q > best) {
        best = q;
      }
    }
    if (s == 0) {
      ref = best - bias[0];
    }
    bias[s] = best - ref;
  }
}

void expect_sweeps_bit_identical(const mdp::Model& model) {
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const std::span<const double> rewards{compiled.expected_reward(),
                                        compiled.num_state_actions()};
  constexpr double kTau = 0.999;
  std::vector<double> aos_bias(model.num_states(), 0.0);
  std::vector<double> soa_bias(model.num_states(), 0.0);
  for (int sweep = 0; sweep < 25; ++sweep) {
    reference_aos_sweep(model, rewards, kTau, aos_bias);
    compiled_soa_sweep(compiled, rewards, kTau, soa_bias);
  }
  for (std::size_t i = 0; i < aos_bias.size(); ++i) {
    ASSERT_EQ(aos_bias[i], soa_bias[i]) << "bias diverged at state " << i;
  }
}

TEST(CompiledModel, SweepBitIdenticalToAosReferenceSetting1) {
  expect_sweeps_bit_identical(setting1_model().model);
}

TEST(CompiledModel, SweepBitIdenticalToAosReferenceSetting2) {
  expect_sweeps_bit_identical(setting2_model().model);
}

TEST(CompiledModel, SweepBitIdenticalToAosReferenceBtc) {
  expect_sweeps_bit_identical(btc_model().model);
}

// ---- full-solver equivalence: Model vs CompiledModel overloads ------------

void expect_gain_results_identical(const mdp::GainResult& a,
                                   const mdp::GainResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.bias.size(), b.bias.size());
  for (std::size_t i = 0; i < a.bias.size(); ++i) {
    ASSERT_EQ(a.bias[i], b.bias[i]) << "bias differs at state " << i;
  }
  EXPECT_EQ(a.gain, b.gain);
  EXPECT_EQ(a.policy.action, b.policy.action);
}

void expect_gain_equivalence(const mdp::Model& model) {
  mdp::SolverConfig config;
  config.average_reward.tolerance = 1e-8;
  const mdp::GainResult via_model = mdp::maximize_average_reward(model, config);
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const mdp::GainResult via_compiled =
      mdp::maximize_average_reward(compiled, config);
  expect_gain_results_identical(via_model, via_compiled);
}

TEST(CompiledModel, GainResultBitIdenticalSetting1) {
  expect_gain_equivalence(setting1_model().model);
}

TEST(CompiledModel, GainResultBitIdenticalSetting2) {
  expect_gain_equivalence(setting2_model().model);
}

TEST(CompiledModel, GainResultBitIdenticalBtc) {
  expect_gain_equivalence(btc_model().model);
}

void expect_ratio_equivalence(const mdp::Model& model, double upper_bound) {
  mdp::SolverConfig config;
  config.ratio.tolerance = 1e-6;
  config.ratio.upper_bound = upper_bound;
  const mdp::RatioResult via_model = mdp::maximize_ratio(model, config);
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const mdp::RatioResult via_compiled =
      mdp::maximize_ratio(compiled, config);
  EXPECT_EQ(via_model.status, via_compiled.status);
  EXPECT_EQ(via_model.iterations, via_compiled.iterations);
  EXPECT_EQ(via_model.ratio, via_compiled.ratio);
  EXPECT_EQ(via_model.reward_rate, via_compiled.reward_rate);
  EXPECT_EQ(via_model.weight_rate, via_compiled.weight_rate);
  EXPECT_EQ(via_model.used_bisection, via_compiled.used_bisection);
  EXPECT_EQ(via_model.policy.action, via_compiled.policy.action);
}

TEST(CompiledModel, RatioResultBitIdenticalSetting1) {
  expect_ratio_equivalence(setting1_model().model, 1.0);
}

TEST(CompiledModel, RatioResultBitIdenticalSetting2) {
  expect_ratio_equivalence(setting2_model().model, 1.0);
}

TEST(CompiledModel, RatioResultBitIdenticalBtc) {
  expect_ratio_equivalence(btc_model().model, 1.0);
}

TEST(CompiledModel, PolicyIterationBitIdentical) {
  const mdp::Model& model = setting1_model().model;
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);

  const mdp::SolverConfig howard;
  const mdp::PolicyIterationResult pa = mdp::policy_iteration(model, howard);
  const mdp::PolicyIterationResult pb =
      mdp::policy_iteration(compiled, howard);
  EXPECT_EQ(pa.status, pb.status);
  EXPECT_EQ(pa.iterations, pb.iterations);
  EXPECT_EQ(pa.gain, pb.gain);
  EXPECT_EQ(pa.policy.action, pb.policy.action);
}

TEST(CompiledModel, RolloutDrawsIdenticalTrajectory) {
  const mdp::Model& model = setting1_model().model;
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const mdp::GainResult gain =
      mdp::maximize_average_reward(model, mdp::SolverConfig{});

  Rng rng_a(99);
  Rng rng_b(99);
  const mdp::ModelRolloutResult via_model =
      mdp::rollout_model(model, gain.policy, /*start=*/0, 20'000, rng_a);
  const mdp::ModelRolloutResult via_compiled =
      mdp::rollout_model(compiled, gain.policy, /*start=*/0, 20'000, rng_b);
  EXPECT_EQ(via_model.steps, via_compiled.steps);
  EXPECT_EQ(via_model.reward_total, via_compiled.reward_total);
  EXPECT_EQ(via_model.weight_total, via_compiled.weight_total);
}

// ---- the cached compilation carried by the analysis layers ----------------

TEST(CompiledModel, AttackModelCarriesCachedCompilation) {
  const bu::AttackModel attack = setting1_model();
  ASSERT_NE(attack.compiled, nullptr);
  EXPECT_EQ(attack.compiled->num_states(), attack.model.num_states());
  // A rebuild of the same cell shares the same immutable compilation.
  const bu::AttackModel again = setting1_model();
  EXPECT_EQ(attack.compiled.get(), again.compiled.get());
}

TEST(CompiledModel, SmModelCarriesCachedCompilation) {
  const btc::SmModel sm = btc_model();
  ASSERT_NE(sm.compiled, nullptr);
  EXPECT_EQ(sm.compiled->num_states(), sm.model.num_states());
}

}  // namespace
