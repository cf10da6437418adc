// Average-reward (gain-optimal) MDP solving via relative value iteration.
//
// The models produced by the attack generators are unichain: the base state
// is reachable under every stationary policy because any fork resolves with
// probability one. For unichain MDPs relative value iteration converges to
// the optimal gain g* and a bias vector h*; we additionally apply Puterman's
// aperiodicity transformation (Sect. 8.5.4 of "Markov Decision Processes")
// so convergence does not depend on the chain being aperiodic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"
#include "mdp/solve_report.hpp"
#include "robust/run_control.hpp"

namespace bvc::mdp {

/// A deterministic stationary policy: for each state, the *local* index of
/// the chosen action (see Model::action_label for the external label).
struct Policy {
  std::vector<std::uint32_t> action;

  [[nodiscard]] bool operator==(const Policy&) const = default;
};

/// The relative-value-iteration knob block. Not a front door: callers
/// configure solves through mdp::SolverConfig (solver_config.hpp), which
/// nests this struct as its `average_reward` field and stamps `control` /
/// `threads` when lowering. The pre-SolverConfig name AverageRewardOptions
/// survives only as a [[deprecated]] alias in solver_config.hpp.
struct AverageRewardKnobs {
  /// Stopping threshold on the span seminorm of successive value differences;
  /// bounds the gain error by the same amount.
  double tolerance = 1e-8;
  /// Hard cap on sweeps: bounds a single solve even on pathological
  /// near-tie instances; at 30k sweeps the gain midpoint is accurate to
  /// ~1e-6 on the largest models in this library.
  int max_sweeps = 30000;
  /// Aperiodicity damping tau in (0, 1]: each step keeps the state with
  /// probability (1 - tau). 1.0 disables the transformation; the default
  /// keeps a sliver of self-loop as insurance at ~0.1% cost.
  double aperiodicity_tau = 0.999;
  /// Value-iteration worker threads (prefer setting SolverConfig::threads,
  /// which stamps this field). 1 runs the legacy serial Gauss-Seidel sweep,
  /// bit-identical to previous releases. >1 switches to the chunked Jacobi
  /// sweep (docs/PARALLELISM.md): per-state backups read only the previous
  /// sweep's values and the span reduction is exact, so the result is
  /// bit-identical for EVERY thread count >= 2 — but follows a different
  /// (equally valid) trajectory than the serial sweep to the same optimum.
  int threads = 1;
  /// Wall-clock/iteration budget and cooperative cancellation. One guard
  /// tick is one sweep; on exhaustion the solver returns its best bias and
  /// greedy policy so far with status kBudgetExhausted / kCancelled.
  robust::RunControl control;
};

struct GainResult : SolveReport {
  double gain = 0.0;           ///< optimal (or policy) long-run reward rate
  std::vector<double> bias;    ///< relative value vector (bias up to constant)
  Policy policy;               ///< greedy policy at convergence

  /// RVI sweeps performed (the base report's iteration count).
  [[nodiscard]] int sweeps() const noexcept { return iterations; }
};

/// Maximizes the long-run average of the per-(state,action) rewards
/// `sa_rewards` (indexed by Model::sa_index). `warm_start_bias`, when
/// provided and correctly sized, seeds the value vector — this makes families
/// of solves (e.g. Dinkelbach iterations) much cheaper.
///
/// The CompiledModel overloads are the real solver (the sweep runs on the
/// SoA kernel layout); the Model overloads compile on entry and forward,
/// producing bit-identical results. Callers that solve one model repeatedly
/// (ratio iterations, batch sweeps) should compile once — or fetch the
/// compilation from mdp::ModelCache — and call the compiled overloads.
[[nodiscard]] GainResult maximize_average_reward(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const AverageRewardKnobs& options = {},
    const std::vector<double>* warm_start_bias = nullptr);
[[nodiscard]] GainResult maximize_average_reward(
    const Model& model, std::span<const double> sa_rewards,
    const AverageRewardKnobs& options = {},
    const std::vector<double>* warm_start_bias = nullptr);

/// Convenience overloads using the model's primary reward stream.
[[nodiscard]] GainResult maximize_average_reward(
    const CompiledModel& model, const AverageRewardKnobs& options = {});
[[nodiscard]] GainResult maximize_average_reward(
    const Model& model, const AverageRewardKnobs& options = {});

}  // namespace bvc::mdp
