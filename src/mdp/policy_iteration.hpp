// Howard's policy iteration for unichain average-reward MDPs, over an exact
// sparse policy evaluator. This is the inner loop of the ratio solver
// (ratio.hpp) and the library's policy evaluator.
//
// Evaluation (PolicyEvaluator). For a stationary policy pi, pick a
// reference state `ref` that is recurrent under pi (state 0 — the base
// state of the attack models — whenever it is). Let Q_pi be P_pi with
// every transition into `ref` removed. Then I - Q_pi is a nonsingular
// M-matrix, and for a reward vector r the solutions of
//
//   (I - Q_pi) x = r_pi,      (I - Q_pi) y = 1
//
// are the expected reward and the expected number of steps until the
// chain next enters `ref`. By the renewal-reward theorem the gain is
// g = x(ref) / y(ref), and h = x - g y is the bias normalized to
// h(ref) = 0. The system is factored once with ILU(0) (exact when I - Q_pi
// is triangular, as it nearly is on the attack models) and solved with
// ILU-preconditioned BiCGSTAB; the one factorization serves every reward
// stream and the ones right-hand side.
//
// Certificate. One fixed-policy sweep of the computed bias gives Odoni's
// bracket  min_s (T_pi h - h)(s) <= g_pi <= max_s (T_pi h - h)(s)  — it
// holds for ANY vector h, so it certifies the gain independently of how
// accurately the linear system was solved. An evaluation is converged only
// when that bracket is narrower than the caller's tolerance. A multichain
// policy (more than one closed class, detected structurally before
// factoring) is reported as kDegenerateModel, never as a number.
//
// Improvement (HowardSolver). The greedy pass evaluates every action's
// q-value against the exact bias through CompiledModel::expected_next, the
// same loop the RVI sweep uses. Howard's iteration terminates in finitely many rounds
// on unichain models, each round one factorization plus one greedy pass.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mdp/average_reward.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"

namespace bvc::mdp {

/// The Howard policy-iteration knob block. Not a front door: callers
/// configure solves through mdp::SolverConfig (solver_config.hpp).
struct PolicyIterationKnobs {
  int max_improvements = 1000;
  /// Keep the incumbent action unless a challenger beats it by this margin
  /// (guards against cycling on numerically tied actions).
  double improvement_tolerance = 1e-10;
  /// Certificate: an evaluation counts as converged only when its Odoni
  /// gain bracket is narrower than this. SolverConfig lowers its
  /// average_reward.tolerance here; the ratio solver stamps its inner
  /// tolerance.
  double tolerance = 1e-8;
  /// Budget/cancellation; one guard tick per round. On exhaustion the most
  /// recently evaluated policy is returned.
  robust::RunControl control;
};

struct PolicyIterationResult : SolveReport {
  /// Gain of the optimized stream (num - rho * den in the two-stream form).
  double gain = 0.0;
  std::vector<double> bias;  ///< h with h[reference state] = 0
  Policy policy;
  /// Long-run rates of the numerator and denominator streams under
  /// `policy` (weight_rate is 0 for single-stream solves).
  double reward_rate = 0.0;
  double weight_rate = 0.0;
  /// Widest Odoni bracket among the final evaluation's streams; converged()
  /// implies bracket_width <= tolerance.
  double bracket_width = 0.0;
  /// BiCGSTAB iterations across every evaluation of the solve.
  std::int64_t krylov_iterations = 0;

  /// Rounds performed, each one evaluation plus one greedy pass (the base
  /// report's iteration count).
  [[nodiscard]] int improvements() const noexcept { return iterations; }
};

/// Exact sparse evaluation of stationary policies (file comment). Holds its
/// pattern, factor and Krylov buffers across factor() calls, so evaluating
/// a sequence of policies of one model allocates only once.
class PolicyEvaluator {
 public:
  /// `model` must outlive the evaluator.
  explicit PolicyEvaluator(const CompiledModel& model);

  /// Assembles and ILU(0)-factors I - Q_pi for `policy` and solves the
  /// ones system. Returns kConverged, or kDegenerateModel when the policy
  /// has more than one closed class (then evaluate() must not be called).
  /// `policy` is borrowed: it must stay alive and unchanged while
  /// evaluate() is used on this factorization.
  robust::RunStatus factor(const Policy& policy);

  struct Stream {
    double gain = 0.0;
    double bracket_width = 0.0;  ///< max - min of (T_pi h - h)
  };

  /// Gain and bias (written to `bias`, h[reference] = 0) of the reward
  /// stream `sa_rewards` (indexed by SaIndex) under the factored policy.
  Stream evaluate(const double* sa_rewards, std::vector<double>& bias);

  /// BiCGSTAB iterations since construction.
  [[nodiscard]] std::int64_t krylov_iterations() const noexcept {
    return krylov_iterations_;
  }

 private:
  bool find_reference();
  void assemble();
  void factor_ilu();
  void precondition(const double* in, double* out) const;
  void multiply(const double* in, double* out) const;
  void solve(const double* rhs, std::vector<double>& x);

  const CompiledModel& model_;
  const std::uint32_t* action_ = nullptr;
  StateId ref_ = 0;
  // CSR pattern of I - Q_pi with sorted columns; lu_ holds its ILU(0)
  // factors (unit lower part below diag_, upper part from it).
  std::vector<std::size_t> row_;
  std::vector<StateId> col_;
  std::vector<double> lu_;
  std::vector<std::size_t> diag_;
  std::vector<std::int64_t> marker_;
  // Closed-class search (iterative Tarjan) scratch.
  std::vector<std::int64_t> index_;
  std::vector<std::int64_t> low_;
  std::vector<StateId> stack_;
  std::vector<std::pair<StateId, std::size_t>> calls_;
  // Right-hand side, ones solution and residual; the other BiCGSTAB
  // vectors are allocated on the first solve that needs to iterate.
  std::vector<double> rhs_;
  std::vector<double> y_;
  std::vector<double> r_, r0_, p_, v_, t_, phat_, shat_;
  std::int64_t krylov_iterations_ = 0;
};

/// Howard's policy iteration over a PolicyEvaluator, for objectives of the
/// form  num - rho * den  (den may be empty: a plain average-reward solve).
/// The solver keeps its policy and the evaluation of that policy between
/// calls, so a Dinkelbach loop re-solving at successive rho starts each
/// solve from the previous optimum without re-evaluating it.
class HowardSolver {
 public:
  /// Starts from action 0 in every state. `model` and both reward streams
  /// (indexed by SaIndex) are borrowed and must outlive the solver.
  HowardSolver(const CompiledModel& model, std::span<const double> num,
               std::span<const double> den = {});

  /// Replaces the current policy.
  void set_policy(const Policy& policy);

  /// Replaces the current policy with the greedy policy of `bias` for the
  /// rewards num - rho * den (ties keep the lower action).
  void seed_greedy(const std::vector<double>& bias, double rho);

  /// Evaluates the current policy without improving it: no round is
  /// counted, no guard tick taken and no span emitted. kConverged when the
  /// bracket is no wider than `tolerance`.
  [[nodiscard]] PolicyIterationResult evaluate(double rho, double tolerance);

  /// Improves the current policy until no action beats the incumbent by
  /// knobs.improvement_tolerance (kConverged), the round cap is hit or an
  /// evaluation's bracket is wider than knobs.tolerance
  /// (kToleranceStalled), the policy turns multichain (kDegenerateModel),
  /// or the budget ends. The result describes the last EVALUATED policy;
  /// one span `policy_iteration.solve` covers the whole call.
  [[nodiscard]] PolicyIterationResult solve(double rho,
                                            const PolicyIterationKnobs& knobs);

  /// The current policy (after a stalled solve: the improved, not yet
  /// evaluated one).
  [[nodiscard]] const Policy& policy() const noexcept { return policy_; }

 private:
  /// Factors and evaluates policy_ unless the cached evaluation is current.
  robust::RunStatus ensure_evaluated();
  void fill_result(double rho, PolicyIterationResult& out) const;
  /// One greedy pass for num - rho * den against `bias`; true when some
  /// state switched.
  bool improve(const std::vector<double>& bias, double rho,
               double improvement_tolerance, bool keep_incumbent);

  const CompiledModel& model_;
  std::span<const double> num_rewards_;
  std::span<const double> den_rewards_;
  PolicyEvaluator evaluator_;
  Policy policy_;
  // The evaluation of policy_, valid while evaluated_.
  bool evaluated_ = false;
  PolicyEvaluator::Stream num_;
  PolicyEvaluator::Stream den_;
  std::vector<double> h_num_;
  std::vector<double> h_den_;
  std::vector<double> q_;
};

/// Maximizes the average of `sa_rewards` by Howard's policy iteration. As
/// with the other solvers, the CompiledModel overloads are the real
/// implementation and the Model overloads compile once on entry.
[[nodiscard]] PolicyIterationResult policy_iteration(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options = {});
[[nodiscard]] PolicyIterationResult policy_iteration(
    const Model& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options = {});

/// Convenience overloads on the model's primary reward stream.
[[nodiscard]] PolicyIterationResult policy_iteration(
    const CompiledModel& model, const PolicyIterationKnobs& options = {});
[[nodiscard]] PolicyIterationResult policy_iteration(
    const Model& model, const PolicyIterationKnobs& options = {});

/// Evaluates a fixed deterministic policy against an arbitrary per-(state,
/// action) reward vector with the exact sparse evaluator. `gain` is the
/// policy's rate, `bias` its bias (h[reference] = 0), `iterations` the
/// BiCGSTAB iterations. Status: kConverged when the Odoni bracket is
/// narrower than options.tolerance, kToleranceStalled when it is not,
/// kDegenerateModel for a multichain policy. Only options.tolerance is
/// read.
[[nodiscard]] GainResult evaluate_policy_stream(
    const CompiledModel& model, const Policy& policy,
    std::span<const double> sa_rewards,
    const AverageRewardKnobs& options = {});
[[nodiscard]] GainResult evaluate_policy_stream(
    const Model& model, const Policy& policy,
    std::span<const double> sa_rewards,
    const AverageRewardKnobs& options = {});

/// Long-run rates of both reward streams under a fixed policy.
struct PolicyGains {
  double reward_rate = 0.0;  ///< numerator stream per step
  double weight_rate = 0.0;  ///< denominator stream per step
  /// Worst status of the two stream evaluations.
  robust::RunStatus status = robust::RunStatus::kToleranceStalled;

  [[nodiscard]] bool converged() const noexcept {
    return robust::is_success(status);
  }
};

/// Evaluates a fixed deterministic policy on both reward streams with one
/// factorization; status as for evaluate_policy_stream.
[[nodiscard]] PolicyGains evaluate_policy_average(
    const CompiledModel& model, const Policy& policy,
    const AverageRewardKnobs& options = {});
[[nodiscard]] PolicyGains evaluate_policy_average(
    const Model& model, const Policy& policy,
    const AverageRewardKnobs& options = {});

}  // namespace bvc::mdp
