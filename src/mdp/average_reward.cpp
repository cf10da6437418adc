#include "mdp/average_reward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "mdp/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/numa.hpp"
#include "util/thread_pool.hpp"

namespace bvc::mdp {

namespace {

/// The relative-value-iteration core behind every maximize_average_reward
/// overload. (Fixed-policy evaluation is exact and lives in
/// policy_iteration.cpp.)
///
/// The sweep runs on the CompiledModel SoA kernel layout: backups read the
/// flat next/prob outcome columns through raw pointers (no per-access bounds
/// checks, no 32-byte Outcome structs) but keep the seed path's iteration
/// and expression order exactly, so results are bit-identical to sweeping
/// the Model representation. The precompiled damped_prob column is
/// deliberately NOT used here: folding tau into each probability changes
/// the floating-point association, and tau_eff adapts mid-solve anyway.
///
/// Three sweep disciplines live here, selected by options.threads and the
/// process-wide kernel dispatch (mdp/kernel.hpp):
///   threads == 1, scalar kernel — the legacy serial Gauss-Seidel sweep
///     (in-place updates, in-sweep reference subtraction), bit-identical to
///     previous releases;
///   threads >= 2, scalar kernel — a chunked Jacobi sweep: every state's
///     backup reads only the previous sweep's bias, the reference residual
///     is computed from state 0 up front, and the span seminorm is reduced
///     over chunk-local minima/maxima (min/max are exact, so the reduction
///     order is irrelevant). Nothing depends on which worker runs which
///     chunk, so the parallel result is bit-identical for every thread
///     count >= 2 — it just follows a different (equally valid) trajectory
///     than the Gauss-Seidel sweep to the same fixed point.
///   vector kernel (kernel::resolve() != scalar, model has an ELL mirror)
///     — the same Jacobi discipline for EVERY thread count, with the whole
///     sweep (expected-value backup, rewards + tau transform, per-state
///     max) lowered onto the fused kernel::rvi_sweep, which keeps the
///     expected-next values in registers instead of round-tripping a q
///     column through memory (vectorized over states when the action menu
///     is uniform). The kernel evaluates the scalar loops' exact
///     expression trees, so this path is bit-identical to the threads >= 2
///     scalar Jacobi path at any thread count — and, like it,
///     trajectory-different but fixed-point-equal to Gauss-Seidel.
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

  // Gauss-Seidel relative value iteration (Bertsekas, Vol. II): bias
  // updates are applied in place, and the freshly computed Bellman residual
  // of the reference state (state 0 — the base state, recurrent under every
  // policy in our models) is subtracted from every update within the sweep.
  // The in-sweep subtraction is what keeps the gain estimate correct: a
  // plain in-place sweep would accumulate a full cycle's reward into every
  // state and overestimate the gain. Stopping uses the span seminorm of the
  // per-state residuals, which brackets the transformed gain.
  double gain_estimate = 0.0;

  // Adaptive damping: greedy-action switching can make the Gauss-Seidel
  // sweeps cycle instead of contract on rare instances. When the span stops
  // improving we increase the damping (smaller effective tau), which breaks
  // the cycle at the cost of slower per-sweep progress; the fixed point is
  // the same for every tau.
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

  // Bellman backup of one state against `bias_in`, with the aperiodicity
  // transform applied: keep the state w.p. (1 - tau), scale the step reward
  // by tau; the transformed gain is tau * g. Serial sweeps pass the live
  // bias vector (in-place Gauss-Seidel reads), parallel sweeps the previous
  // sweep's snapshot. The raw SoA columns are hoisted out here so the inner
  // loop is pure pointer arithmetic over contiguous doubles.
  const double* rewards_data = sa_rewards.data();
  const StateId* next_col = model.next();
  const double* prob_col = model.prob();
  const auto backup = [&](StateId s, const std::vector<double>& bias_in)
      -> std::pair<double, std::uint32_t> {
    const SaIndex sa_base = model.state_begin(s);
    double best = -std::numeric_limits<double>::infinity();
    std::uint32_t best_action = 0;
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const SaIndex sa = sa_base + a;
      double q = rewards_data[sa];
      double expected_next = 0.0;
      const std::size_t end = model.outcome_end(sa);
      for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
        expected_next += prob_col[k] * bias_in[next_col[k]];
      }
      q = tau_eff * (q + expected_next) + (1.0 - tau_eff) * bias_in[s];
      if (q > best) {
        best = q;
        best_action = static_cast<std::uint32_t>(a);
      }
    }
    return {best, best_action};
  };

  // State-0 combine for the kernel path's reference residual: identical
  // arithmetic to `backup`, with the expected-value sum read from q_all
  // (which the kernel computed in the scalar loop's exact accumulation
  // order). The full-sweep combine is kernel::rvi_combine — the same
  // expression tree, vectorized when the model's action menu allows.
  const auto combine = [&](StateId s, const double* q_all,
                           const double* bias_in)
      -> std::pair<double, std::uint32_t> {
    const SaIndex sa_base = model.state_begin(s);
    double best = -std::numeric_limits<double>::infinity();
    std::uint32_t best_action = 0;
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const SaIndex sa = sa_base + a;
      double q = rewards_data[sa];
      q = tau_eff * (q + q_all[sa]) + (1.0 - tau_eff) * bias_in[s];
      if (q > best) {
        best = q;
        best_action = static_cast<std::uint32_t>(a);
      }
    }
    return {best, best_action};
  };

  // Parallel-sweep scratch. The chunk count is a scheduling detail only:
  // backups read nothing another chunk writes and the span reduction is
  // exact, so it does not affect the computed values.
  const int threads = std::max(1, options.threads);
  const bool parallel = threads > 1 && n > 1;
  const kernel::Isa isa = kernel::resolve();
  const bool use_kernel = isa != kernel::Isa::kScalar && model.has_ell();
  std::optional<util::ThreadPool> pool;
  std::vector<double> next_bias;
  std::vector<double> chunk_min;
  std::vector<double> chunk_max;
  std::size_t chunks = 0;
  if (parallel) {
    pool.emplace(threads);
    chunks = std::min<std::size_t>(n, static_cast<std::size_t>(threads) * 4);
    chunk_min.assign(chunks, 0.0);
    chunk_max.assign(chunks, 0.0);
    if (!use_kernel) {
      next_bias.assign(n, 0.0);
    }
  }
  // Kernel-path scratch: a ping-pong bias pair, 64-byte aligned and
  // first-touched by the pool workers so their pages land near the threads
  // that stream them (util/numa.hpp; plain serial fill on single-node
  // machines). The state partition used for the touch matches the sweep's
  // chunking. The small q buffer covers state 0's slice only — the fused
  // sweep keeps every other expected-next value in registers.
  util::AlignedVector<double> q_buf;
  util::AlignedVector<double> kernel_bias;
  util::AlignedVector<double> kernel_next;
  if (use_kernel) {
    util::ThreadPool* touch_pool = pool ? &*pool : nullptr;
    util::numa::first_touch_fill(q_buf, model.state_begin(1), 0.0, nullptr, 1);
    util::numa::first_touch_fill(kernel_bias, n, 0.0, touch_pool, chunks);
    util::numa::first_touch_fill(kernel_next, n, 0.0, touch_pool, chunks);
    std::copy(result.bias.begin(), result.bias.end(), kernel_bias.begin());
  }

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

    if (use_kernel) {
      // Vectorized Jacobi sweep (any thread count). The reference residual
      // comes from state 0's slice up front, exactly like the scalar
      // Jacobi branch; chunk 0 recomputes that slice below with identical
      // bits, so no ordering hazard exists.
      const double* current = kernel_bias.data();
      double* q_all = q_buf.data();
      kernel::backup_expected(model, nullptr, 1.0, current, 0,
                              model.state_begin(1), q_all, isa);
      const double reference_residual =
          combine(0, q_all, current).first - current[0];
      if (!parallel) {
        kernel::rvi_sweep(model, rewards_data, tau_eff, current,
                          reference_residual, 0, n,
                          kernel_next.data(), result.policy.action.data(),
                          &span_min, &span_max, isa);
      } else {
        pool->parallel_for(
            n, chunks,
            [&](std::size_t chunk, std::size_t begin, std::size_t end) {
              double local_min = std::numeric_limits<double>::infinity();
              double local_max = -std::numeric_limits<double>::infinity();
              kernel::rvi_sweep(model, rewards_data, tau_eff, current,
                                reference_residual,
                                static_cast<StateId>(begin),
                                static_cast<StateId>(end),
                                kernel_next.data(),
                                result.policy.action.data(), &local_min,
                                &local_max, isa);
              chunk_min[chunk] = local_min;
              chunk_max[chunk] = local_max;
            });
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
          span_min = std::min(span_min, chunk_min[chunk]);
          span_max = std::max(span_max, chunk_max[chunk]);
        }
      }
      kernel_bias.swap(kernel_next);
    } else if (!parallel) {
      double reference_residual = 0.0;
      for (StateId s = 0; s < n; ++s) {
        const auto [best, best_action] = backup(s, result.bias);
        result.policy.action[s] = best_action;
        const double residual = best - result.bias[s];
        if (s == 0) {
          reference_residual = residual;
        }
        span_min = std::min(span_min, residual);
        span_max = std::max(span_max, residual);
        result.bias[s] = best - reference_residual;
      }
    } else {
      const std::vector<double>& current = result.bias;
      const double reference_residual =
          backup(0, current).first - current[0];
      pool->parallel_for(
          n, chunks,
          [&](std::size_t chunk, std::size_t begin, std::size_t end) {
            double local_min = std::numeric_limits<double>::infinity();
            double local_max = -std::numeric_limits<double>::infinity();
            for (StateId s = static_cast<StateId>(begin); s < end; ++s) {
              const auto [best, best_action] = backup(s, current);
              result.policy.action[s] = best_action;
              const double residual = best - current[s];
              local_min = std::min(local_min, residual);
              local_max = std::max(local_max, residual);
              next_bias[s] = best - reference_residual;
            }
            chunk_min[chunk] = local_min;
            chunk_max[chunk] = local_max;
          });
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        span_min = std::min(span_min, chunk_min[chunk]);
        span_max = std::max(span_max, chunk_max[chunk]);
      }
      result.bias.swap(next_bias);
    }

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

  if (use_kernel) {
    result.bias.assign(kernel_bias.begin(), kernel_bias.end());
  }
  result.gain = gain_estimate;
  result.iterations = sweep;
  result.wall_clock_ns = guard.elapsed_ns();
  solve_span.arg("kernel", kernel::to_string(isa));
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
