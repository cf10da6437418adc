// Maximization of ratio objectives  max_pi  num_rate(pi) / den_rate(pi)
// over stationary policies of a unichain MDP, where num/den are the model's
// two reward streams. This is the form of all three utility functions in the
// paper (Eq. 1–3); the same construction underlies Sapirshtein et al.'s
// optimal-selfish-mining solver.
//
// Method: Dinkelbach's algorithm — repeatedly maximize the average reward of
// the linearized stream (num - rho * den) and update rho to the achieved
// ratio — with a bisection fallback for the degenerate case where a policy
// with zero denominator rate (e.g. "wait forever") is optimal at the current
// rho. Both converge because  g(rho) = max_pi (num_rate - rho * den_rate)
// is convex, non-increasing, and g(rho*) = 0 at the optimal ratio rho*.
// Each linearized maximization is Howard policy iteration over the exact
// sparse evaluator (policy_iteration.hpp), warm-started from the previous
// iteration's policy; its certified evaluation yields both stream rates.
#pragma once

#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"
#include "robust/retry.hpp"
#include "robust/run_control.hpp"

namespace bvc::mdp {

/// The ratio-solver knob block (outer Dinkelbach/bisection loop plus the
/// nested inner-solve knobs). Not a front door: callers configure solves
/// through mdp::SolverConfig (solver_config.hpp), which lowers to this
/// shape via SolverConfig::ratio_options(). The pre-SolverConfig name
/// RatioOptions survives only as a [[deprecated]] alias there.
struct RatioKnobs {
  /// Inner-solve knobs. Only `tolerance` is read: every inner policy
  /// evaluation must be certified to an Odoni bracket narrower than it.
  AverageRewardKnobs inner;
  /// Cap on Howard rounds per inner solve; hitting it makes the inner solve,
  /// and therefore the ratio, at best kToleranceStalled.
  int max_improvements = 1000;
  /// Convergence tolerance on the ratio value.
  double tolerance = 1e-6;
  int max_iterations = 200;
  /// Bracket for the optimal ratio; `upper_bound` must be a genuine upper
  /// bound for the bisection fallback to be sound.
  double lower_bound = 0.0;
  double upper_bound = 1.0;
  /// A policy whose denominator rate falls below this is considered
  /// degenerate (accrues no denominator mass).
  double min_weight_rate = 1e-9;
  /// Budget/cancellation for the whole ratio solve. One guard tick is one
  /// outer (Dinkelbach or bisection) iteration; the remaining wall-clock
  /// allowance is forwarded to every inner average-reward solve, so the
  /// deadline binds the total work, not each piece separately. On
  /// exhaustion the best policy found so far is returned.
  robust::RunControl control;
  /// Optional cross-solve warm start: when non-null and sized
  /// num_states(), the first inner solve starts from the greedy policy of
  /// this bias (later inner solves already chain off each other within the
  /// solve). The vector is borrowed for the duration of the call, not
  /// owned. A mismatched size is silently ignored — a neighbor cell with a
  /// different model shape simply cannot seed this one. Warm starts never
  /// move the optimum (policy iteration reaches an optimal policy from any
  /// start); they only change the path to it.
  const std::vector<double>* warm_start_bias = nullptr;
};

/// `iterations` (on the base report) counts linearized solves performed;
/// converged() replaces the old redundant `converged` field. `status` is
/// the worst of the outer loop's own status and every inner solve's, so a
/// ratio is kConverged only when each inner evaluation was certified.
struct RatioResult : SolveReport {
  double ratio = 0.0;     ///< best achieved num/den rate
  Policy policy;          ///< a policy achieving `ratio` (up to tolerance)
  double reward_rate = 0.0;  ///< numerator rate of `policy`
  double weight_rate = 0.0;  ///< denominator rate of `policy`
  bool used_bisection = false;
  /// True iff RatioKnobs::warm_start_bias was supplied with a matching
  /// size (and therefore actually seeded the first inner solve).
  bool used_warm_start = false;
  /// Bias of the last linearized inner solve — the natural seed for a
  /// neighboring cell's warm start (batch.hpp WarmStartPool). Empty only
  /// when the solve was stopped before any inner solve evaluated a policy.
  std::vector<double> final_bias;
};

/// The CompiledModel overload is the real solver: every Dinkelbach /
/// bisection iteration re-linearizes the compiled expected-value columns
/// and re-uses one policy-iteration workspace, so nothing is rebuilt
/// between iterations. The Model overload compiles once on entry
/// (all inner solves share that one compilation) and is bit-identical.
[[nodiscard]] RatioResult maximize_ratio(const CompiledModel& model,
                                         const RatioKnobs& options);
[[nodiscard]] RatioResult maximize_ratio(const Model& model,
                                         const RatioKnobs& options);

/// maximize_ratio with bounded retry-with-escalation: a solve that ends
/// kToleranceStalled is reattempted with a widened bracket, a tighter inner
/// tolerance, and a larger outer iteration cap (see robust::RetryPolicy).
/// Budget exhaustion, cancellation and degeneracy are not retried. The
/// wall-clock budget in `options.control` spans all attempts combined.
/// The Model overload compiles once; every attempt shares the compilation.
[[nodiscard]] RatioResult maximize_ratio_with_retry(
    const CompiledModel& model, const RatioKnobs& options,
    const robust::RetryPolicy& retry = {});
[[nodiscard]] RatioResult maximize_ratio_with_retry(
    const Model& model, const RatioKnobs& options,
    const robust::RetryPolicy& retry = {});

}  // namespace bvc::mdp
