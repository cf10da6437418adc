#include "mdp/policy_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bvc::mdp {

namespace {

/// BiCGSTAB stops once the residual's max-norm is this small relative to
/// the right-hand side's, or after kMaxKrylovIterations. Either way the
/// Odoni bracket, not the residual, decides whether the result is
/// certified: with (I - Q) x = r + e and (I - Q) y = 1 + e_y, every entry
/// of T_pi h - h equals g + g e_y - e, so the bracket width is at most
/// 2 (|g| |e_y| + |e|) in max-norm.
constexpr double kKrylovRelativeTarget = 1e-13;
constexpr int kMaxKrylovIterations = 100;

double max_norm(const std::vector<double>& v) {
  double norm = 0.0;
  for (const double x : v) {
    norm = std::max(norm, std::abs(x));
  }
  return norm;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

/// Counts solves that end uncertified; registered by the first solve, so a
/// clean run's snapshot reads an explicit 0.
void note_stalled(robust::RunStatus status) {
  if (!obs::metrics_enabled()) {
    return;
  }
  static obs::Counter& stalled =
      obs::MetricsRegistry::global().counter("mdp.solve.stalled");
  if (status == robust::RunStatus::kToleranceStalled) {
    stalled.add();
  }
}

}  // namespace

// --------------------------------------------------------- PolicyEvaluator --

PolicyEvaluator::PolicyEvaluator(const CompiledModel& model) : model_(model) {
  const StateId n = model.num_states();
  // Row s of I - Q holds the diagonal plus at most the widest action's
  // outcomes; size the pattern for the worst policy once.
  std::size_t capacity = 0;
  for (StateId s = 0; s < n; ++s) {
    std::size_t widest = 0;
    for (std::size_t a = 0; a < model.num_actions(s); ++a) {
      const SaIndex sa = model.sa_index(s, a);
      widest =
          std::max(widest, model.outcome_end(sa) - model.outcome_begin(sa));
    }
    capacity += widest + 1;
  }
  row_.resize(n + 1);
  col_.resize(capacity);
  lu_.resize(capacity);
  diag_.resize(n);
  marker_.assign(n, -1);
  index_.resize(n);
  low_.resize(n);
  rhs_.resize(n);
  y_.resize(n);
  r_.resize(n);
}

bool PolicyEvaluator::find_reference() {
  // Iterative Tarjan over the policy's transition graph. A finished
  // component c marks its states with low_ = n + c, so "on the stack" is
  // "visited and low_ < n". A component is closed when no edge leaves it;
  // a unichain policy has exactly one.
  const StateId n = model_.num_states();
  const StateId* next = model_.next();
  const double* prob = model_.prob();
  const auto edges_begin = [&](StateId s) {
    return model_.outcome_begin(model_.sa_index(s, action_[s]));
  };
  const auto edges_end = [&](StateId s) {
    return model_.outcome_end(model_.sa_index(s, action_[s]));
  };
  std::fill(index_.begin(), index_.end(), -1);
  stack_.clear();
  std::int64_t counter = 0;
  std::int64_t components = 0;
  int closed = 0;
  StateId closed_min = 0;
  bool zero_recurrent = false;
  for (StateId root = 0; root < n; ++root) {
    if (index_[root] >= 0) {
      continue;
    }
    index_[root] = low_[root] = counter++;
    stack_.push_back(root);
    calls_.assign(1, {root, edges_begin(root)});
    while (!calls_.empty()) {
      const StateId v = calls_.back().first;
      std::size_t& edge = calls_.back().second;
      if (edge < edges_end(v)) {
        const std::size_t k = edge++;
        const StateId w = next[k];
        if (prob[k] <= 0.0) {
          continue;
        }
        if (index_[w] < 0) {
          index_[w] = low_[w] = counter++;
          stack_.push_back(w);
          calls_.emplace_back(w, edges_begin(w));
        } else if (low_[w] < n) {
          low_[v] = std::min(low_[v], index_[w]);
        }
        continue;
      }
      calls_.pop_back();
      if (!calls_.empty()) {
        const StateId parent = calls_.back().first;
        low_[parent] = std::min(low_[parent], low_[v]);
      }
      if (low_[v] != index_[v]) {
        continue;
      }
      std::size_t first = stack_.size();
      do {
        --first;
      } while (stack_[first] != v);
      const std::int64_t mark = n + components++;
      StateId smallest = v;
      for (std::size_t i = first; i < stack_.size(); ++i) {
        low_[stack_[i]] = mark;
        smallest = std::min(smallest, stack_[i]);
      }
      bool is_closed = true;
      for (std::size_t i = first; i < stack_.size() && is_closed; ++i) {
        const StateId u = stack_[i];
        for (std::size_t k = edges_begin(u); k < edges_end(u); ++k) {
          if (prob[k] > 0.0 && low_[next[k]] != mark) {
            is_closed = false;
            break;
          }
        }
      }
      if (is_closed) {
        ++closed;
        closed_min = smallest;
        zero_recurrent = zero_recurrent || low_[0] == mark;
      }
      stack_.resize(first);
    }
  }
  if (closed != 1) {
    return false;
  }
  ref_ = zero_recurrent ? 0 : closed_min;
  return true;
}

void PolicyEvaluator::assemble() {
  const StateId n = model_.num_states();
  const StateId* next = model_.next();
  const double* prob = model_.prob();
  std::size_t nnz = 0;
  for (StateId s = 0; s < n; ++s) {
    const SaIndex sa = model_.sa_index(s, action_[s]);
    const std::size_t begin = nnz;
    row_[s] = begin;
    col_[nnz] = s;
    lu_[nnz++] = 1.0;
    for (std::size_t k = model_.outcome_begin(sa); k < model_.outcome_end(sa);
         ++k) {
      if (next[k] == ref_ || prob[k] == 0.0) {
        continue;  // Q_pi drops every transition into the reference state
      }
      // Insert -p at column next[k], keeping the row sorted and merged.
      std::size_t pos = begin;
      while (pos < nnz && col_[pos] < next[k]) {
        ++pos;
      }
      if (pos < nnz && col_[pos] == next[k]) {
        lu_[pos] -= prob[k];
        continue;
      }
      for (std::size_t i = nnz; i > pos; --i) {
        col_[i] = col_[i - 1];
        lu_[i] = lu_[i - 1];
      }
      col_[pos] = next[k];
      lu_[pos] = -prob[k];
      ++nnz;
    }
    std::size_t d = begin;
    while (col_[d] != s) {
      ++d;
    }
    diag_[s] = d;
  }
  row_[n] = nnz;
}

void PolicyEvaluator::factor_ilu() {
  // ILU(0) in place on the assembled I - Q, IKJ order: eliminate row i's
  // strictly-lower entries in column order, updating only positions
  // already in row i's pattern.
  const StateId n = model_.num_states();
  for (StateId i = 0; i < n; ++i) {
    for (std::size_t p = row_[i]; p < row_[i + 1]; ++p) {
      marker_[col_[p]] = static_cast<std::int64_t>(p);
    }
    for (std::size_t p = row_[i]; p < diag_[i]; ++p) {
      const StateId k = col_[p];
      const double l = lu_[p] /= lu_[diag_[k]];
      for (std::size_t q = diag_[k] + 1; q < row_[k + 1]; ++q) {
        const std::int64_t m = marker_[col_[q]];
        if (m >= 0) {
          lu_[static_cast<std::size_t>(m)] -= l * lu_[q];
        }
      }
    }
    for (std::size_t p = row_[i]; p < row_[i + 1]; ++p) {
      marker_[col_[p]] = -1;
    }
  }
}

void PolicyEvaluator::precondition(const double* in, double* out) const {
  const StateId n = model_.num_states();
  for (StateId i = 0; i < n; ++i) {
    double sum = in[i];
    for (std::size_t p = row_[i]; p < diag_[i]; ++p) {
      sum -= lu_[p] * out[col_[p]];
    }
    out[i] = sum;
  }
  for (StateId i = n; i-- > 0;) {
    double sum = out[i];
    for (std::size_t p = diag_[i] + 1; p < row_[i + 1]; ++p) {
      sum -= lu_[p] * out[col_[p]];
    }
    out[i] = sum / lu_[diag_[i]];
  }
}

void PolicyEvaluator::multiply(const double* in, double* out) const {
  // (I - Q) in, straight from the model columns (lu_ holds the factors,
  // not the matrix).
  const StateId n = model_.num_states();
  const StateId* next = model_.next();
  const double* prob = model_.prob();
  for (StateId s = 0; s < n; ++s) {
    const SaIndex sa = model_.sa_index(s, action_[s]);
    double sum = in[s];
    for (std::size_t k = model_.outcome_begin(sa); k < model_.outcome_end(sa);
         ++k) {
      if (next[k] != ref_) {
        sum -= prob[k] * in[next[k]];
      }
    }
    out[s] = sum;
  }
}

void PolicyEvaluator::solve(const double* rhs, std::vector<double>& x) {
  // Right-preconditioned BiCGSTAB from x0 = M^-1 b, which is already the
  // exact solution when the ILU(0) factors are exact — then no Krylov
  // vector is ever allocated. The residual r_ doubles as BiCGSTAB's s.
  const std::size_t n = x.size();
  precondition(rhs, x.data());
  multiply(x.data(), r_.data());
  double b_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    r_[i] = rhs[i] - r_[i];
    b_norm = std::max(b_norm, std::abs(rhs[i]));
  }
  const double target = kKrylovRelativeTarget * std::max(1.0, b_norm);
  if (!(max_norm(r_) > target)) {
    return;
  }
  for (std::vector<double>* v : {&r0_, &p_, &v_, &t_, &phat_, &shat_}) {
    v->assign(n, 0.0);
  }
  r0_ = r_;
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  for (int it = 0; it < kMaxKrylovIterations; ++it) {
    const double rho_next = dot(r0_, r_);
    if (rho_next == 0.0 || !std::isfinite(rho_next)) {
      break;
    }
    const double beta = (rho_next / rho) * (alpha / omega);
    for (std::size_t i = 0; i < n; ++i) {
      p_[i] = r_[i] + beta * (p_[i] - omega * v_[i]);
    }
    precondition(p_.data(), phat_.data());
    multiply(phat_.data(), v_.data());
    const double denom = dot(r0_, v_);
    if (denom == 0.0 || !std::isfinite(denom)) {
      break;
    }
    alpha = rho_next / denom;
    ++krylov_iterations_;
    for (std::size_t i = 0; i < n; ++i) {
      r_[i] -= alpha * v_[i];  // s
      x[i] += alpha * phat_[i];
    }
    if (!(max_norm(r_) > target)) {
      break;
    }
    precondition(r_.data(), shat_.data());
    multiply(shat_.data(), t_.data());
    const double tt = dot(t_, t_);
    omega = tt > 0.0 ? dot(t_, r_) / tt : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += omega * shat_[i];
      r_[i] -= omega * t_[i];
    }
    if (!(max_norm(r_) > target) || omega == 0.0) {
      break;
    }
    rho = rho_next;
  }
}

robust::RunStatus PolicyEvaluator::factor(const Policy& policy) {
  BVC_REQUIRE(policy.action.size() == model_.num_states(),
              "policy must assign an action to every state");
  action_ = policy.action.data();
  if (!find_reference()) {
    return robust::RunStatus::kDegenerateModel;
  }
  assemble();
  factor_ilu();
  std::fill(rhs_.begin(), rhs_.end(), 1.0);
  solve(rhs_.data(), y_);
  return robust::RunStatus::kConverged;
}

PolicyEvaluator::Stream PolicyEvaluator::evaluate(const double* sa_rewards,
                                                  std::vector<double>& bias) {
  const StateId n = model_.num_states();
  for (StateId s = 0; s < n; ++s) {
    rhs_[s] = sa_rewards[model_.sa_index(s, action_[s])];
  }
  bias.resize(n);
  solve(rhs_.data(), bias);
  Stream stream;
  stream.gain = bias[ref_] / y_[ref_];
  for (StateId s = 0; s < n; ++s) {
    bias[s] -= stream.gain * y_[s];
  }
  bias[ref_] = 0.0;

  // The certificate: one fixed-policy sweep of T_pi h - h.
  const StateId* next = model_.next();
  const double* prob = model_.prob();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool finite = std::isfinite(stream.gain);
  for (StateId s = 0; s < n; ++s) {
    const SaIndex sa = model_.sa_index(s, action_[s]);
    double value = rhs_[s];
    for (std::size_t k = model_.outcome_begin(sa); k < model_.outcome_end(sa);
         ++k) {
      value += prob[k] * bias[next[k]];
    }
    value -= bias[s];
    finite = finite && std::isfinite(value);  // min/max would skip a NaN
    lo = std::min(lo, value);
    hi = std::max(hi, value);
  }
  stream.bracket_width =
      finite ? hi - lo : std::numeric_limits<double>::infinity();
  return stream;
}

// ------------------------------------------------------------ HowardSolver --

HowardSolver::HowardSolver(const CompiledModel& model,
                           std::span<const double> num,
                           std::span<const double> den)
    : model_(model), num_rewards_(num), den_rewards_(den), evaluator_(model) {
  BVC_REQUIRE(num.size() == model.num_state_actions(),
              "sa_rewards must cover every (state, action) pair");
  BVC_REQUIRE(den.empty() || den.size() == model.num_state_actions(),
              "denominator rewards must cover every (state, action) pair");
  policy_.action.assign(model.num_states(), 0);
  q_.assign(model.num_state_actions(), 0.0);
}

void HowardSolver::set_policy(const Policy& policy) {
  BVC_REQUIRE(policy.action.size() == model_.num_states(),
              "policy must assign an action to every state");
  policy_ = policy;
  evaluated_ = false;
}

void HowardSolver::seed_greedy(const std::vector<double>& bias, double rho) {
  BVC_REQUIRE(bias.size() == model_.num_states(),
              "seed bias must cover every state");
  improve(bias, rho, 0.0, /*keep_incumbent=*/false);
}

robust::RunStatus HowardSolver::ensure_evaluated() {
  if (evaluated_) {
    return robust::RunStatus::kConverged;
  }
  const robust::RunStatus status = evaluator_.factor(policy_);
  if (status != robust::RunStatus::kConverged) {
    return status;
  }
  num_ = evaluator_.evaluate(num_rewards_.data(), h_num_);
  if (!den_rewards_.empty()) {
    den_ = evaluator_.evaluate(den_rewards_.data(), h_den_);
  }
  evaluated_ = true;
  return status;
}

void HowardSolver::fill_result(double rho, PolicyIterationResult& out) const {
  out.policy = policy_;
  out.reward_rate = num_.gain;
  out.weight_rate = den_rewards_.empty() ? 0.0 : den_.gain;
  out.gain = out.reward_rate - rho * out.weight_rate;
  out.bracket_width = num_.bracket_width;
  out.bias = h_num_;
  if (!den_rewards_.empty()) {
    out.bracket_width = std::max(out.bracket_width, den_.bracket_width);
    for (std::size_t s = 0; s < out.bias.size(); ++s) {
      out.bias[s] -= rho * h_den_[s];
    }
  }
}

bool HowardSolver::improve(const std::vector<double>& bias, double rho,
                           double improvement_tolerance, bool keep_incumbent) {
  // The expected-next value of every action, then the linearized reward
  // num - rho * den on top.
  const bool has_den = !den_rewards_.empty();
  for (SaIndex sa = 0; sa < model_.num_state_actions(); ++sa) {
    q_[sa] = model_.expected_next(sa, bias.data()) +
             (has_den ? num_rewards_[sa] - rho * den_rewards_[sa]
                      : num_rewards_[sa]);
  }
  bool changed = false;
  for (StateId s = 0; s < model_.num_states(); ++s) {
    const SaIndex base = model_.state_begin(s);
    std::uint32_t best = 0;
    for (std::size_t a = 1; a < model_.num_actions(s); ++a) {
      if (q_[base + a] > q_[base + best]) {
        best = static_cast<std::uint32_t>(a);
      }
    }
    const std::uint32_t incumbent = policy_.action[s];
    if (best != incumbent &&
        (!keep_incumbent ||
         q_[base + best] > q_[base + incumbent] + improvement_tolerance)) {
      policy_.action[s] = best;
      changed = true;
    }
  }
  if (changed) {
    evaluated_ = false;
  }
  return changed;
}

PolicyIterationResult HowardSolver::evaluate(double rho, double tolerance) {
  PolicyIterationResult result;
  const std::int64_t krylov_before = evaluator_.krylov_iterations();
  result.status = ensure_evaluated();
  if (result.status == robust::RunStatus::kConverged) {
    fill_result(rho, result);
    if (!(result.bracket_width <= tolerance)) {
      result.status = robust::RunStatus::kToleranceStalled;
    }
  } else {
    result.policy = policy_;
  }
  result.krylov_iterations = evaluator_.krylov_iterations() - krylov_before;
  note_stalled(result.status);
  return result;
}

PolicyIterationResult HowardSolver::solve(double rho,
                                          const PolicyIterationKnobs& knobs) {
  obs::Span solve_span("policy_iteration.solve", "solver");
  solve_span.arg("states", static_cast<std::int64_t>(model_.num_states()));
  robust::RunGuard guard(knobs.control);
  const std::int64_t krylov_before = evaluator_.krylov_iterations();
  PolicyIterationResult result;
  result.policy = policy_;
  int rounds = 0;
  for (;;) {
    if (rounds >= knobs.max_improvements) {
      result.status = robust::RunStatus::kToleranceStalled;
      break;
    }
    if (const auto stop_status = guard.tick()) {
      result.status = *stop_status;
      break;
    }
    ++rounds;
    const robust::RunStatus evaluated = ensure_evaluated();
    if (evaluated != robust::RunStatus::kConverged) {
      result.status = evaluated;
      break;
    }
    fill_result(rho, result);
    if (!(result.bracket_width <= knobs.tolerance)) {
      result.status = robust::RunStatus::kToleranceStalled;
      break;
    }
    if (!improve(result.bias, rho, knobs.improvement_tolerance,
                 /*keep_incumbent=*/true)) {
      result.status = robust::RunStatus::kConverged;
      break;
    }
  }
  result.iterations = rounds;
  result.krylov_iterations = evaluator_.krylov_iterations() - krylov_before;
  result.wall_clock_ns = guard.elapsed_ns();

  solve_span.arg("rounds", static_cast<std::int64_t>(rounds));
  solve_span.arg("krylov_iterations", result.krylov_iterations);
  solve_span.arg("bracket_width", result.bracket_width);
  solve_span.arg("status", robust::to_string(result.status));
  if (obs::metrics_enabled()) {
    static obs::Counter& solves =
        obs::MetricsRegistry::global().counter("mdp.pi.solves");
    static obs::Counter& improvements =
        obs::MetricsRegistry::global().counter("mdp.pi.improvements");
    static obs::Counter& krylov =
        obs::MetricsRegistry::global().counter("mdp.pi.krylov_iterations");
    solves.add();
    improvements.add(static_cast<std::uint64_t>(rounds));
    krylov.add(static_cast<std::uint64_t>(result.krylov_iterations));
  }
  note_stalled(result.status);
  return result;
}

// ---------------------------------------------------------- free functions --

PolicyIterationResult policy_iteration(
    const CompiledModel& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options) {
  HowardSolver howard(model, sa_rewards);
  return howard.solve(0.0, options);
}

PolicyIterationResult policy_iteration(
    const Model& model, std::span<const double> sa_rewards,
    const PolicyIterationKnobs& options) {
  return policy_iteration(CompiledModel::compile(model), sa_rewards, options);
}

PolicyIterationResult policy_iteration(
    const CompiledModel& model, const PolicyIterationKnobs& options) {
  const std::span<const double> rewards{model.expected_reward(),
                                        model.num_state_actions()};
  return policy_iteration(model, rewards, options);
}

PolicyIterationResult policy_iteration(
    const Model& model, const PolicyIterationKnobs& options) {
  return policy_iteration(CompiledModel::compile(model), options);
}

GainResult evaluate_policy_stream(const CompiledModel& model,
                                  const Policy& policy,
                                  std::span<const double> sa_rewards,
                                  const AverageRewardKnobs& options) {
  BVC_REQUIRE(sa_rewards.size() == model.num_state_actions(),
              "sa_rewards must cover every (state, action) pair");
  HowardSolver howard(model, sa_rewards);
  howard.set_policy(policy);
  PolicyIterationResult evaluated = howard.evaluate(0.0, options.tolerance);
  GainResult result;
  result.status = evaluated.status;
  result.gain = evaluated.gain;
  result.bias = std::move(evaluated.bias);
  result.policy = policy;
  result.iterations = static_cast<int>(evaluated.krylov_iterations);
  return result;
}

GainResult evaluate_policy_stream(const Model& model, const Policy& policy,
                                  std::span<const double> sa_rewards,
                                  const AverageRewardKnobs& options) {
  return evaluate_policy_stream(CompiledModel::compile(model), policy,
                                sa_rewards, options);
}

PolicyGains evaluate_policy_average(const CompiledModel& model,
                                    const Policy& policy,
                                    const AverageRewardKnobs& options) {
  const std::size_t actions = model.num_state_actions();
  HowardSolver howard(model, {model.expected_reward(), actions},
                      {model.expected_weight(), actions});
  howard.set_policy(policy);
  const PolicyIterationResult evaluated =
      howard.evaluate(0.0, options.tolerance);
  PolicyGains gains;
  gains.reward_rate = evaluated.reward_rate;
  gains.weight_rate = evaluated.weight_rate;
  gains.status = evaluated.status;
  return gains;
}

PolicyGains evaluate_policy_average(const Model& model, const Policy& policy,
                                    const AverageRewardKnobs& options) {
  return evaluate_policy_average(CompiledModel::compile(model), policy,
                                 options);
}

}  // namespace bvc::mdp
