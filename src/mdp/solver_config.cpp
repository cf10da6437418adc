#include "mdp/solver_config.hpp"

namespace bvc::mdp {

AverageRewardKnobs SolverConfig::average_reward_options() const {
  AverageRewardKnobs options = average_reward;
  options.control = control;
  options.threads = threads;
  return options;
}

DiscountedKnobs SolverConfig::discounted_options() const {
  DiscountedKnobs options;
  options.discount = discounted.discount;
  options.tolerance = discounted.tolerance;
  options.max_sweeps = discounted.max_sweeps;
  options.control = control;
  return options;
}

PolicyIterationKnobs SolverConfig::policy_iteration_options() const {
  PolicyIterationKnobs options;
  options.max_improvements = policy_iteration.max_improvements;
  options.improvement_tolerance = policy_iteration.improvement_tolerance;
  options.tolerance = average_reward.tolerance;
  options.control = control;
  return options;
}

RatioKnobs SolverConfig::ratio_options() const {
  RatioKnobs options;
  options.inner = average_reward_options();
  // The top-level control belongs to the outer Dinkelbach loop; the inner
  // solves receive the *remaining* budget from the running guard (stamped by
  // maximize_ratio itself), so clear the copy the inner block inherited.
  options.inner.control = {};
  options.inner.control.cancel = control.cancel;
  options.tolerance = ratio.tolerance;
  options.max_iterations = ratio.max_iterations;
  options.lower_bound = ratio.lower_bound;
  options.upper_bound = ratio.upper_bound;
  options.min_weight_rate = ratio.min_weight_rate;
  options.max_improvements = policy_iteration.max_improvements;
  options.control = control;
  options.warm_start_bias = warm_start_bias;
  return options;
}

GainResult maximize_average_reward(const Model& model,
                                   const SolverConfig& config) {
  return maximize_average_reward(model, config.average_reward_options());
}

GainResult maximize_average_reward(const CompiledModel& model,
                                   const SolverConfig& config) {
  return maximize_average_reward(model, config.average_reward_options());
}

GainResult maximize_average_reward(const Model& model,
                                   std::span<const double> sa_rewards,
                                   const SolverConfig& config,
                                   const std::vector<double>* warm_start_bias) {
  return maximize_average_reward(model, sa_rewards,
                                 config.average_reward_options(),
                                 warm_start_bias);
}

GainResult maximize_average_reward(const CompiledModel& model,
                                   std::span<const double> sa_rewards,
                                   const SolverConfig& config,
                                   const std::vector<double>* warm_start_bias) {
  return maximize_average_reward(model, sa_rewards,
                                 config.average_reward_options(),
                                 warm_start_bias);
}

DiscountedResult solve_discounted(const Model& model,
                                  const SolverConfig& config) {
  return solve_discounted(model, config.discounted_options());
}

DiscountedResult solve_discounted(const CompiledModel& model,
                                  const SolverConfig& config) {
  return solve_discounted(model, config.discounted_options());
}

PolicyIterationResult policy_iteration(const Model& model,
                                       const SolverConfig& config) {
  return policy_iteration(model, config.policy_iteration_options());
}

PolicyIterationResult policy_iteration(const CompiledModel& model,
                                       const SolverConfig& config) {
  return policy_iteration(model, config.policy_iteration_options());
}

RatioResult maximize_ratio(const Model& model, const SolverConfig& config) {
  return maximize_ratio(model, config.ratio_options());
}

RatioResult maximize_ratio(const CompiledModel& model,
                           const SolverConfig& config) {
  return maximize_ratio(model, config.ratio_options());
}

RatioResult maximize_ratio_with_retry(const Model& model,
                                      const SolverConfig& config,
                                      const robust::RetryPolicy& retry) {
  return maximize_ratio_with_retry(model, config.ratio_options(), retry);
}

RatioResult maximize_ratio_with_retry(const CompiledModel& model,
                                      const SolverConfig& config,
                                      const robust::RetryPolicy& retry) {
  return maximize_ratio_with_retry(model, config.ratio_options(), retry);
}

PolicyIterationResult policy_iteration(const Model& model,
                                       std::span<const double> sa_rewards,
                                       const SolverConfig& config) {
  return policy_iteration(model, sa_rewards,
                          config.policy_iteration_options());
}

PolicyIterationResult policy_iteration(const CompiledModel& model,
                                       std::span<const double> sa_rewards,
                                       const SolverConfig& config) {
  return policy_iteration(model, sa_rewards,
                          config.policy_iteration_options());
}

GainResult evaluate_policy_stream(const Model& model, const Policy& policy,
                                  std::span<const double> sa_rewards,
                                  const SolverConfig& config) {
  return evaluate_policy_stream(model, policy, sa_rewards,
                                config.average_reward_options());
}

GainResult evaluate_policy_stream(const CompiledModel& model,
                                  const Policy& policy,
                                  std::span<const double> sa_rewards,
                                  const SolverConfig& config) {
  return evaluate_policy_stream(model, policy, sa_rewards,
                                config.average_reward_options());
}

PolicyGains evaluate_policy_average(const Model& model, const Policy& policy,
                                    const SolverConfig& config) {
  return evaluate_policy_average(model, policy,
                                 config.average_reward_options());
}

PolicyGains evaluate_policy_average(const CompiledModel& model,
                                    const Policy& policy,
                                    const SolverConfig& config) {
  return evaluate_policy_average(model, policy,
                                 config.average_reward_options());
}

}  // namespace bvc::mdp
