#include "mdp/average_reward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

namespace {

/// The relative-value-iteration core behind every maximize_average_reward
/// overload. (Fixed-policy evaluation is exact and lives in
/// policy_iteration.cpp.)
///
/// The sweep runs on the CompiledModel SoA layout: each backup is
/// CompiledModel::expected_next (the same row-order loop the
/// policy-iteration greedy pass uses) plus the aperiodicity transform.
///
/// Jacobi relative value iteration (Bertsekas, Vol. II): every state's
/// backup reads only the previous sweep's bias, and the freshly computed
/// Bellman residual of the reference state (state 0 — the base state,
/// recurrent under every policy in our models, and the first state swept)
/// is subtracted from every update, which keeps the bias bounded. Stopping
/// uses the span seminorm of the per-state residuals, which brackets the
/// transformed gain.
GainResult rvi_core(const CompiledModel& model,
                    std::span<const double> sa_rewards,
                    const AverageRewardKnobs& options,
                    const std::vector<double>* warm_start_bias) {
  const StateId n = model.num_states();
  BVC_REQUIRE(sa_rewards.size() == model.num_state_actions(),
              "sa_rewards must cover every (state, action) pair");
  BVC_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");
  BVC_REQUIRE(options.aperiodicity_tau > 0.0 &&
                  options.aperiodicity_tau <= 1.0,
              "aperiodicity tau must be in (0, 1]");

  const double tau = options.aperiodicity_tau;
  // One span per RVI solve (not per sweep — a setting-2 solve runs tens of
  // thousands of sweeps and would flood the ring); the sweep count and
  // outcome land in the span args below and in the sweep counter.
  obs::Span solve_span("rvi.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(model.num_states()));
  // RVI only optimizes; the arg stays because trace readers
  // (perfbench/tracefile.py) key their per-layer figures on it.
  solve_span.arg("mode", "optimize");
  robust::RunGuard guard(options.control);
  GainResult result;
  if (warm_start_bias != nullptr && warm_start_bias->size() == n) {
    result.bias = *warm_start_bias;
  } else {
    result.bias.assign(n, 0.0);
  }
  result.policy.action.assign(n, 0);

  double gain_estimate = 0.0;

  // Adaptive damping: greedy-action switching can make the sweeps cycle
  // instead of contract on rare instances. When the span stops improving we
  // increase the damping (smaller effective tau), which breaks the cycle at
  // the cost of slower per-sweep progress; the fixed point is the same for
  // every tau.
  double tau_eff = tau;
  double best_span = std::numeric_limits<double>::infinity();
  int sweeps_since_improvement = 0;

  // Secondary stopping rule: the span criterion is sufficient but very
  // conservative on slowly-mixing chains (its decay rate is the chain's
  // mixing rate). The gain estimate — the midpoint of the residual bracket
  // — settles orders of magnitude sooner; once it has been stable to well
  // below the tolerance for many consecutive sweeps, accept it.
  double last_gain = std::numeric_limits<double>::infinity();
  int stable_gain_sweeps = 0;

  // Bellman backup of one state against the previous sweep's bias, with
  // the aperiodicity transform applied: keep the state w.p. (1 - tau),
  // scale the step reward by tau; the transformed gain is tau * g.
  const double* rewards_data = sa_rewards.data();
  const auto backup = [&](StateId s, const double* bias_in)
      -> std::pair<double, std::uint32_t> {
    const SaIndex sa_base = model.state_begin(s);
    const double damped = (1.0 - tau_eff) * bias_in[s];
    double best = -std::numeric_limits<double>::infinity();
    std::uint32_t best_action = 0;
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const SaIndex sa = sa_base + a;
      const double q =
          tau_eff * (rewards_data[sa] + model.expected_next(sa, bias_in)) +
          damped;
      if (q > best) {
        best = q;
        best_action = static_cast<std::uint32_t>(a);
      }
    }
    return {best, best_action};
  };
  std::vector<double> next_bias(n, 0.0);

  int sweep = 0;
  for (; sweep < options.max_sweeps; ++sweep) {
    // Budget/cancellation check before the sweep: a pre-cancelled token
    // stops the solve before any full sweep has run.
    if (const auto stop_status = guard.tick()) {
      result.status = *stop_status;
      break;
    }
    const double stop = options.tolerance * tau_eff;
    double span_min = std::numeric_limits<double>::infinity();
    double span_max = -std::numeric_limits<double>::infinity();

    double reference_residual = 0.0;
    for (StateId s = 0; s < n; ++s) {
      const auto [best, best_action] = backup(s, result.bias.data());
      result.policy.action[s] = best_action;
      const double residual = best - result.bias[s];
      if (s == 0) {
        reference_residual = residual;
      }
      span_min = std::min(span_min, residual);
      span_max = std::max(span_max, residual);
      next_bias[s] = best - reference_residual;
    }
    result.bias.swap(next_bias);

    gain_estimate = 0.5 * (span_min + span_max) / tau_eff;

    const double span = span_max - span_min;
    if (span < stop) {
      result.status = robust::RunStatus::kConverged;
      ++sweep;
      break;
    }
    if (++stable_gain_sweeps >= 400) {
      // Compare against the estimate 400 sweeps ago: cumulative drift below
      // a tenth of the tolerance means the estimate has converged even if
      // the (conservative) span has not.
      if (std::abs(gain_estimate - last_gain) <
          0.1 * options.tolerance * (1.0 + std::abs(gain_estimate))) {
        result.status = robust::RunStatus::kConverged;
        ++sweep;
        break;
      }
      last_gain = gain_estimate;
      stable_gain_sweeps = 0;
    }
    // Cycling shows up as the span never reaching a new minimum (it
    // oscillates between a fixed set of values); slow-but-monotone
    // convergence sets a new best almost every sweep and must NOT trigger
    // damping, or large models would be slowed down spuriously.
    if (span < best_span) {
      best_span = span;
      sweeps_since_improvement = 0;
    } else if (++sweeps_since_improvement >= 200 && tau_eff > 0.05) {
      tau_eff *= 0.7;
      sweeps_since_improvement = 0;
    }
  }

  result.gain = gain_estimate;
  result.iterations = sweep;
  result.wall_clock_ns = guard.elapsed_ns();
  solve_span.arg("sweeps", static_cast<std::int64_t>(sweep));
  solve_span.arg("status", robust::to_string(result.status));
  if (obs::metrics_enabled()) {
    static obs::Counter& solves =
        obs::MetricsRegistry::global().counter("mdp.rvi.solves");
    static obs::Counter& sweeps =
        obs::MetricsRegistry::global().counter("mdp.rvi.sweeps");
    solves.add();
    sweeps.add(static_cast<std::uint64_t>(std::max(0, sweep)));
    if (result.status == robust::RunStatus::kToleranceStalled) {
      static obs::Counter& stalled =
          obs::MetricsRegistry::global().counter("mdp.solve.stalled");
      stalled.add();
    }
  }
  return result;
}

}  // namespace

GainResult maximize_average_reward(const CompiledModel& model,
                                   std::span<const double> sa_rewards,
                                   const AverageRewardKnobs& options,
                                   const std::vector<double>* warm_start_bias) {
  return rvi_core(model, sa_rewards, options, warm_start_bias);
}

GainResult maximize_average_reward(const Model& model,
                                   std::span<const double> sa_rewards,
                                   const AverageRewardKnobs& options,
                                   const std::vector<double>* warm_start_bias) {
  return rvi_core(CompiledModel::compile(model), sa_rewards, options,
                  warm_start_bias);
}

GainResult maximize_average_reward(const CompiledModel& model,
                                   const AverageRewardKnobs& options) {
  const std::span<const double> rewards{model.expected_reward(),
                                        model.num_state_actions()};
  return rvi_core(model, rewards, options, nullptr);
}

GainResult maximize_average_reward(const Model& model,
                                   const AverageRewardKnobs& options) {
  return maximize_average_reward(CompiledModel::compile(model), options);
}

}  // namespace bvc::mdp
