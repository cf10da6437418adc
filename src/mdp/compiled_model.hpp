// Structure-of-arrays compilation of a sparse Model — the layout every
// solver sweeps.
//
// Model (model.hpp) is the *authoring* representation: convenient to build
// incrementally, validated, and addressed through bounds-checked accessors.
// Sweeping it from the solvers' hot loops pays for that convenience twice
// per access: every num_actions/sa_index/outcomes call re-validates its
// arguments, and the 32-byte Outcome structs interleave the probability a
// backup multiplies with the reward/weight fields it never touches, wasting
// half of every cache line the expected-value loop streams through.
//
// CompiledModel is the same CSR-like structure flattened into parallel
// scalar arrays (state_begin / outcome_begin index arrays, and next / prob /
// reward / weight outcome columns), with unchecked inline accessors. Every
// solver (average_reward, ratio, policy_iteration) and rollout_model sweeps
// this layout; the Model overloads compile on entry and forward.
// Compilation preserves action and outcome ORDER exactly, and the solvers
// keep the seed's expression order, so every result is bit-identical to
// sweeping the Model directly.
//
// CompiledModel is immutable after compile() and safe to share across
// threads by const reference — mdp::ModelCache (model_cache.hpp) hands out
// shared_ptr<const CompiledModel> on exactly that basis.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include "mdp/model.hpp"

namespace bvc::mdp {

class CompiledModel {
 public:
  /// Flattens `model` into the SoA layout.
  [[nodiscard]] static CompiledModel compile(const Model& model);

  /// compile() wrapped in a shared_ptr — the shape ModelCache stores.
  [[nodiscard]] static std::shared_ptr<const CompiledModel> compile_shared(
      const Model& model);

  [[nodiscard]] StateId num_states() const noexcept {
    return static_cast<StateId>(state_begin_.size() - 1);
  }
  [[nodiscard]] std::size_t num_state_actions() const noexcept {
    return action_labels_.size();
  }
  [[nodiscard]] std::size_t num_outcomes() const noexcept {
    return next_.size();
  }

  // Unchecked structural accessors (the hot-loop interface). Indices are
  // validated once at the solver entry points, not per access.
  [[nodiscard]] SaIndex state_begin(StateId s) const noexcept {
    return state_begin_[s];
  }
  [[nodiscard]] std::size_t num_actions(StateId s) const noexcept {
    return state_begin_[s + 1] - state_begin_[s];
  }
  [[nodiscard]] SaIndex sa_index(StateId s, std::size_t a) const noexcept {
    return state_begin_[s] + a;
  }
  [[nodiscard]] ActionLabel action_label(SaIndex sa) const noexcept {
    return action_labels_[sa];
  }
  [[nodiscard]] std::size_t outcome_begin(SaIndex sa) const noexcept {
    return outcome_begin_[sa];
  }
  [[nodiscard]] std::size_t outcome_end(SaIndex sa) const noexcept {
    return outcome_begin_[sa + 1];
  }

  // Outcome columns, indexed by [outcome_begin(sa), outcome_end(sa)).
  [[nodiscard]] const StateId* next() const noexcept { return next_.data(); }
  [[nodiscard]] const double* prob() const noexcept { return prob_.data(); }
  [[nodiscard]] const double* reward() const noexcept {
    return reward_.data();
  }
  [[nodiscard]] const double* weight() const noexcept {
    return weight_.data();
  }

  // Per-(state, action) expected increments, indexed by SaIndex.
  [[nodiscard]] const double* expected_reward() const noexcept {
    return expected_reward_.data();
  }
  [[nodiscard]] const double* expected_weight() const noexcept {
    return expected_weight_.data();
  }
  [[nodiscard]] double expected_reward(SaIndex sa) const noexcept {
    return expected_reward_[sa];
  }
  [[nodiscard]] double expected_weight(SaIndex sa) const noexcept {
    return expected_weight_[sa];
  }

  /// The expected-value backup every solver sweep reduces to: the sum of
  /// p * bias[next] over action sa's outcomes, accumulated in row order
  /// (so the RVI sweep and the policy-iteration greedy pass agree bit for
  /// bit on the same bias).
  [[nodiscard]] double expected_next(SaIndex sa,
                                     const double* bias) const noexcept {
    double sum = 0.0;
    const std::size_t end = outcome_begin_[sa + 1];
    for (std::size_t k = outcome_begin_[sa]; k < end; ++k) {
      sum += prob_[k] * bias[next_[k]];
    }
    return sum;
  }

  /// Binary round-trip for the ModelCache disk tier. The format is a
  /// private cache artifact (native endianness, element sizes recorded in
  /// the header and checked on read), not an interchange format: a file
  /// written by a different build layout simply fails to load and the
  /// caller recompiles. serialize() writes this model; deserialize()
  /// returns the restored model or nullptr when the stream is truncated,
  /// malformed, or from an incompatible layout.
  void serialize(std::ostream& out) const;
  [[nodiscard]] static std::shared_ptr<const CompiledModel> deserialize(
      std::istream& in);

  /// Bytes held by the SoA columns. Feeds the cache's bytes_resident
  /// accounting so a sweep can see how much model memory it keeps live.
  [[nodiscard]] std::size_t bytes_resident() const noexcept {
    const auto column = [](const auto& values) noexcept {
      return values.size() * sizeof(values[0]);
    };
    return column(state_begin_) + column(action_labels_) +
           column(outcome_begin_) + column(next_) + column(prob_) +
           column(reward_) + column(weight_) + column(expected_reward_) +
           column(expected_weight_);
  }

 private:
  CompiledModel() = default;

  // state s owns flat actions [state_begin_[s], state_begin_[s+1])
  std::vector<SaIndex> state_begin_;
  std::vector<ActionLabel> action_labels_;
  // flat action sa owns outcome rows [outcome_begin_[sa], outcome_begin_[sa+1])
  std::vector<std::size_t> outcome_begin_;
  // outcome columns (parallel arrays, one row per sparse branch)
  std::vector<StateId> next_;
  std::vector<double> prob_;
  std::vector<double> reward_;
  std::vector<double> weight_;
  // per-(state, action) expectations
  std::vector<double> expected_reward_;
  std::vector<double> expected_weight_;
};

}  // namespace bvc::mdp
