#include "mdp/ratio.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mdp/policy_iteration.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

RatioResult maximize_ratio(const CompiledModel& model,
                           const RatioKnobs& options) {
  BVC_REQUIRE(options.tolerance > 0.0, "ratio tolerance must be positive");
  BVC_REQUIRE(options.upper_bound > options.lower_bound,
              "ratio bracket must be non-empty");

  // Treat gains below this as "zero": the linearized problem is certified
  // to options.inner.tolerance, so anything of that order is noise.
  const double gain_tol = std::max(10.0 * options.inner.tolerance, 1e-8);

  obs::Span solve_span("ratio.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(model.num_states()));
  robust::RunGuard guard(options.control);
  RatioResult result;
  double lo = options.lower_bound;  // ratio known to be achievable (or floor)
  double hi = options.upper_bound;  // ratio known to be unachievable (ceiling)
  double rho = lo;
  const std::size_t actions = model.num_state_actions();
  HowardSolver howard(model, {model.expected_reward(), actions},
                      {model.expected_weight(), actions});
  if (options.warm_start_bias != nullptr &&
      options.warm_start_bias->size() == model.num_states()) {
    howard.seed_greedy(*options.warm_start_bias, rho);
    result.used_warm_start = true;
  }
  bool policy_recorded = false;
  bool degenerate_seen = false;
  // The status lattice: the outer status is never better than the worst
  // inner solve, so a stalled inner solve cannot surface as "converged".
  robust::RunStatus inner_worst = robust::RunStatus::kConverged;
  // The most recent inner policy: adopted as the best-effort answer when the
  // budget expires before any policy's true ratio could be certified.
  Policy last_inner_policy;

  const auto record_policy = [&](const Policy& policy, double num_rate,
                                 double den_rate) {
    result.policy = policy;
    result.reward_rate = num_rate;
    result.weight_rate = den_rate;
    policy_recorded = true;
  };

  // Inner solves share the outer cancel token and the *remaining* wall
  // clock, so the whole ratio solve honors one deadline.
  const auto inner_knobs = [&] {
    PolicyIterationKnobs inner;
    inner.max_improvements = options.max_improvements;
    inner.tolerance = options.inner.tolerance;
    inner.control.cancel = options.control.cancel;
    inner.control.budget = guard.remaining();
    return inner;
  };
  const auto note_inner = [&](PolicyIterationResult& run) {
    ++result.diagnostics.inner_solves;
    result.diagnostics.inner_rounds += run.improvements();
    result.diagnostics.krylov_iterations += run.krylov_iterations;
    inner_worst = std::max(inner_worst, run.status);
    last_inner_policy = run.policy;
    result.final_bias = std::move(run.bias);
  };
  const auto note_outer = [&](double rho_now) {
    ++result.diagnostics.outer_iterations;
    result.diagnostics.rho_trajectory.push_back(rho_now);
    result.diagnostics.residual_trajectory.push_back(hi - lo);
    obs::trace_instant("ratio.outer", "solver", "rho", rho_now);
  };
  const auto stops_outer = [](robust::RunStatus status) {
    return status == robust::RunStatus::kCancelled ||
           status == robust::RunStatus::kBudgetExhausted ||
           status == robust::RunStatus::kDegenerateModel;
  };

  // Single exit point: fix up status, record timing, and make sure the
  // policy is usable (covers every state) even on early exits.
  const auto finalize = [&](robust::RunStatus status) -> RatioResult& {
    if (!policy_recorded) {
      result.policy = last_inner_policy.action.empty() ? howard.policy()
                                                        : last_inner_policy;
    }
    result.status = std::max(status, inner_worst);
    result.wall_clock_ns = guard.elapsed_ns();
    result.diagnostics.elapsed_seconds = guard.elapsed_seconds();
    // Span args mirror SolveDiagnostics so a trace alone explains the
    // outer/inner effort split without the result object in hand.
    solve_span.arg("outer_iterations",
                   static_cast<std::int64_t>(
                       result.diagnostics.outer_iterations));
    solve_span.arg("inner_solves",
                   static_cast<std::int64_t>(result.diagnostics.inner_solves));
    solve_span.arg("inner_rounds", result.diagnostics.inner_rounds);
    solve_span.arg("krylov_iterations", result.diagnostics.krylov_iterations);
    solve_span.arg("bisection",
                   static_cast<std::int64_t>(result.used_bisection ? 1 : 0));
    solve_span.arg("status", robust::to_string(result.status));
    if (obs::metrics_enabled()) {
      static obs::Counter& solves =
          obs::MetricsRegistry::global().counter("mdp.ratio.solves");
      static obs::Counter& outer = obs::MetricsRegistry::global().counter(
          "mdp.ratio.outer_iterations");
      static obs::Counter& bisections =
          obs::MetricsRegistry::global().counter("mdp.ratio.bisection_solves");
      solves.add();
      outer.add(static_cast<std::uint64_t>(
          std::max(0, result.diagnostics.outer_iterations)));
      if (result.used_bisection) {
        bisections.add();
      }
    }
    return result;
  };

  // Dinkelbach may start from any achievable ratio: when the start policy
  // evaluates cleanly, its ratio replaces the floor. Its factorization is
  // kept, so the first inner solve re-uses it rather than repeating it.
  if (!options.control.cancel.cancel_requested()) {
    const PolicyIterationResult start =
        howard.evaluate(rho, options.inner.tolerance);
    if (start.converged() && start.weight_rate > options.min_weight_rate &&
        start.reward_rate / start.weight_rate > lo) {
      lo = start.reward_rate / start.weight_rate;
      rho = lo;
      record_policy(start.policy, start.reward_rate, start.weight_rate);
    }
  }

  // --- Dinkelbach phase -------------------------------------------------
  // Each inner solve is Howard policy iteration on num - rho * den, started
  // from the previous optimum; its final evaluation carries both stream
  // rates, so no separate evaluation is needed.
  for (; result.iterations < options.max_iterations; ++result.iterations) {
    if (const auto stop_status = guard.tick()) {
      return finalize(*stop_status);
    }
    PolicyIterationResult run = howard.solve(rho, inner_knobs());
    note_inner(run);
    if (stops_outer(run.status)) {
      note_outer(rho);
      return finalize(run.status);
    }

    if (run.gain <= gain_tol) {
      // No policy beats ratio `rho` (within tolerance): rho is an upper
      // bound. If it already meets the achievable bound, we are done.
      hi = std::min(hi, rho);
      note_outer(rho);
      if (hi - lo <= options.tolerance) {
        result.ratio = lo;
        return finalize(policy_recorded || !degenerate_seen
                            ? robust::RunStatus::kConverged
                            : robust::RunStatus::kDegenerateModel);
      }
      break;  // degenerate/stalled: refine by bisection below
    }

    const double den_rate = run.weight_rate;
    const double num_rate = run.reward_rate;
    if (den_rate <= options.min_weight_rate) {
      // Positive linearized gain but no denominator mass. With our models
      // the numerator then must be (numerically) zero too; treat as a stall
      // and let bisection decide.
      BVC_ENSURE(num_rate <= gain_tol,
                 "ratio objective is unbounded: positive numerator rate with "
                 "zero denominator rate");
      degenerate_seen = true;
      note_outer(rho);
      break;
    }

    const double achieved = num_rate / den_rate;
    if (achieved > lo) {
      lo = achieved;
      record_policy(run.policy, num_rate, den_rate);
    }
    note_outer(achieved);
    if (achieved <= rho + options.tolerance) {
      // Dinkelbach fixed point: g(rho) ~ 0 at rho = achieved ratio.
      result.ratio = lo;
      return finalize(robust::RunStatus::kConverged);
    }
    rho = achieved;
  }

  // --- Bisection fallback -------------------------------------------------
  result.used_bisection = true;
  while (hi - lo > options.tolerance &&
         result.iterations < options.max_iterations) {
    if (const auto stop_status = guard.tick()) {
      result.ratio = lo;
      return finalize(*stop_status);
    }
    ++result.iterations;
    const double mid = 0.5 * (lo + hi);
    PolicyIterationResult run = howard.solve(mid, inner_knobs());
    note_inner(run);
    if (stops_outer(run.status)) {
      result.ratio = lo;
      note_outer(mid);
      return finalize(run.status);
    }
    if (run.gain > gain_tol) {
      // Some policy achieves a ratio above mid; the solve's own evaluation
      // gives its exact ratio, so the reported policy matches the ratio.
      if (run.weight_rate > options.min_weight_rate) {
        const double achieved = run.reward_rate / run.weight_rate;
        if (achieved > lo) {
          record_policy(run.policy, run.reward_rate, run.weight_rate);
        }
        lo = std::max(lo, std::max(mid, achieved));
      } else {
        degenerate_seen = true;
        lo = mid;
      }
    } else {
      hi = mid;
    }
    note_outer(mid);
  }

  result.ratio = lo;
  if (hi - lo <= options.tolerance * (1.0 + std::abs(lo))) {
    return finalize(policy_recorded || !degenerate_seen
                        ? robust::RunStatus::kConverged
                        : robust::RunStatus::kDegenerateModel);
  }
  return finalize(robust::RunStatus::kToleranceStalled);
}

RatioResult maximize_ratio(const Model& model, const RatioKnobs& options) {
  return maximize_ratio(CompiledModel::compile(model), options);
}

RatioResult maximize_ratio_with_retry(const CompiledModel& model,
                                      const RatioKnobs& options,
                                      const robust::RetryPolicy& retry) {
  robust::RunGuard guard(options.control);

  RatioKnobs attempt = options;
  RatioResult best = maximize_ratio(model, attempt);
  int inner_solves = best.diagnostics.inner_solves;
  std::int64_t inner_rounds = best.diagnostics.inner_rounds;
  std::int64_t krylov_iterations = best.diagnostics.krylov_iterations;
  int outer_iterations = best.diagnostics.outer_iterations;

  int retries = 0;
  while (best.status == robust::RunStatus::kToleranceStalled &&
         retries < retry.max_retries) {
    ++retries;
    // Escalate: wider bracket (in case upper_bound was not a genuine upper
    // bound), tighter inner solves (in case the bracket jittered on inner
    // noise), and more outer iterations. The achieved ratio so far is a
    // certified lower bound, so start the new bracket there.
    attempt.lower_bound = std::max(attempt.lower_bound, best.ratio);
    attempt.upper_bound =
        attempt.lower_bound + (attempt.upper_bound - attempt.lower_bound) *
                                  retry.bracket_widen_factor;
    attempt.inner.tolerance *= retry.inner_tolerance_factor;
    attempt.max_iterations = static_cast<int>(
        static_cast<double>(attempt.max_iterations) *
        retry.iteration_growth_factor);
    attempt.control.budget = guard.remaining();

    RatioResult next = maximize_ratio(model, attempt);
    inner_solves += next.diagnostics.inner_solves;
    inner_rounds += next.diagnostics.inner_rounds;
    krylov_iterations += next.diagnostics.krylov_iterations;
    outer_iterations += next.diagnostics.outer_iterations;
    // Keep the better outcome: a converged solve always wins; otherwise the
    // higher certified ratio does.
    if (next.converged() || next.ratio >= best.ratio) {
      best = std::move(next);
    }
  }

  if (retries > 0 && obs::metrics_enabled()) {
    static obs::Counter& retry_counter =
        obs::MetricsRegistry::global().counter("mdp.ratio.retries");
    retry_counter.add(static_cast<std::uint64_t>(retries));
  }
  best.diagnostics.retries = retries;
  best.diagnostics.inner_solves = inner_solves;
  best.diagnostics.inner_rounds = inner_rounds;
  best.diagnostics.krylov_iterations = krylov_iterations;
  best.diagnostics.outer_iterations = outer_iterations;
  best.diagnostics.elapsed_seconds = guard.elapsed_seconds();
  best.wall_clock_ns = guard.elapsed_ns();
  return best;
}

RatioResult maximize_ratio_with_retry(const Model& model,
                                      const RatioKnobs& options,
                                      const robust::RetryPolicy& retry) {
  return maximize_ratio_with_retry(CompiledModel::compile(model), options,
                                   retry);
}

}  // namespace bvc::mdp
