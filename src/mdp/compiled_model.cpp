#include "mdp/compiled_model.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace bvc::mdp {

CompiledModel CompiledModel::compile(const Model& model) {
  const StateId n = model.num_states();
  const std::size_t actions = model.num_state_actions();

  CompiledModel compiled;
  compiled.state_begin_.reserve(n + 1);
  compiled.action_labels_.reserve(actions);
  compiled.outcome_begin_.reserve(actions + 1);
  compiled.expected_reward_.reserve(actions);
  compiled.expected_weight_.reserve(actions);

  compiled.state_begin_.push_back(0);
  compiled.outcome_begin_.push_back(0);
  for (StateId s = 0; s < n; ++s) {
    const std::size_t state_actions = model.num_actions(s);
    for (std::size_t a = 0; a < state_actions; ++a) {
      const SaIndex sa = model.sa_index(s, a);
      compiled.action_labels_.push_back(model.action_label(s, a));
      compiled.expected_reward_.push_back(model.expected_reward(sa));
      compiled.expected_weight_.push_back(model.expected_weight(sa));
      // Outcome order is preserved verbatim: solvers accumulate expected
      // values in this order, so any reordering would change the
      // floating-point sums and break bit-compatibility with the Model path.
      for (const Outcome& o : model.outcomes(sa)) {
        compiled.next_.push_back(o.next);
        compiled.prob_.push_back(o.probability);
        compiled.reward_.push_back(o.reward);
        compiled.weight_.push_back(o.weight);
      }
      compiled.outcome_begin_.push_back(compiled.next_.size());
    }
    compiled.state_begin_.push_back(compiled.action_labels_.size());
  }

  BVC_ENSURE(compiled.action_labels_.size() == actions,
             "compiled action count must match the source model");
  return compiled;
}

std::shared_ptr<const CompiledModel> CompiledModel::compile_shared(
    const Model& model) {
  return std::make_shared<const CompiledModel>(compile(model));
}

namespace {

// Disk-tier wire format: magic, layout fingerprint, then each column as
// (element count, raw bytes). Native endianness — the file never leaves the
// machine that wrote it, and a mismatched reader fails the fingerprint. The
// magic names the column list: files from the earlier "BVCM" layout (which
// also stored tau and a tau-scaled copy of prob) fail it and are
// recompiled.
constexpr std::uint32_t kMagic = 0x32435642;  // "BVC2"
constexpr std::uint32_t kLayout = (sizeof(StateId) << 0) |
                                  (sizeof(ActionLabel) << 8) |
                                  (sizeof(SaIndex) << 16) |
                                  (sizeof(std::size_t) << 24);

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return in.good();
}

template <typename T>
void write_column(std::ostream& out, const std::vector<T>& column) {
  write_pod(out, static_cast<std::uint64_t>(column.size()));
  out.write(reinterpret_cast<const char*>(column.data()),
            static_cast<std::streamsize>(column.size() * sizeof(T)));
}

/// Reads one column; `max_elements` bounds the allocation so a truncated
/// or corrupt header cannot request terabytes.
template <typename T>
bool read_column(std::istream& in, std::vector<T>& column,
                 std::uint64_t max_elements) {
  std::uint64_t count = 0;
  if (!read_pod(in, count) || count > max_elements) {
    return false;
  }
  column.assign(static_cast<std::size_t>(count), T{});
  in.read(reinterpret_cast<char*>(column.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return in.good();
}

}  // namespace

void CompiledModel::serialize(std::ostream& out) const {
  write_pod(out, kMagic);
  write_pod(out, kLayout);
  write_column(out, state_begin_);
  write_column(out, action_labels_);
  write_column(out, outcome_begin_);
  write_column(out, next_);
  write_column(out, prob_);
  write_column(out, reward_);
  write_column(out, weight_);
  write_column(out, expected_reward_);
  write_column(out, expected_weight_);
}

std::shared_ptr<const CompiledModel> CompiledModel::deserialize(
    std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t layout = 0;
  CompiledModel model;
  if (!read_pod(in, magic) || magic != kMagic || !read_pod(in, layout) ||
      layout != kLayout) {
    return nullptr;
  }
  // ~100M elements/column bounds the read at a few GB — far above any real
  // attack model, far below a runaway corrupt length.
  constexpr std::uint64_t kMaxElements = 100'000'000;
  if (!read_column(in, model.state_begin_, kMaxElements) ||
      !read_column(in, model.action_labels_, kMaxElements) ||
      !read_column(in, model.outcome_begin_, kMaxElements) ||
      !read_column(in, model.next_, kMaxElements) ||
      !read_column(in, model.prob_, kMaxElements) ||
      !read_column(in, model.reward_, kMaxElements) ||
      !read_column(in, model.weight_, kMaxElements) ||
      !read_column(in, model.expected_reward_, kMaxElements) ||
      !read_column(in, model.expected_weight_, kMaxElements)) {
    return nullptr;
  }
  // Structural sanity: the index arrays must describe the columns they
  // index, or the unchecked hot-loop accessors would read out of bounds.
  if (model.state_begin_.empty() || model.outcome_begin_.empty() ||
      model.state_begin_.front() != 0 || model.outcome_begin_.front() != 0 ||
      model.state_begin_.back() != model.action_labels_.size() ||
      model.outcome_begin_.back() != model.next_.size() ||
      model.outcome_begin_.size() != model.action_labels_.size() + 1 ||
      model.prob_.size() != model.next_.size() ||
      model.reward_.size() != model.next_.size() ||
      model.weight_.size() != model.next_.size() ||
      model.expected_reward_.size() != model.action_labels_.size() ||
      model.expected_weight_.size() != model.action_labels_.size()) {
    return nullptr;
  }
  // Strictly increasing offsets: every state owns at least one action and
  // every action at least one outcome, as ModelBuilder guarantees. A state
  // with no actions would send the greedy passes' state_begin(s) read into
  // the next state's slots (one past the end for the last state).
  const auto strictly_increasing = [](const auto& offsets) {
    return std::adjacent_find(offsets.begin(), offsets.end(),
                              [](auto a, auto b) { return b <= a; }) ==
           offsets.end();
  };
  if (!strictly_increasing(model.state_begin_) ||
      !strictly_increasing(model.outcome_begin_)) {
    return nullptr;
  }
  const StateId states = model.num_states();
  for (const StateId next : model.next_) {
    if (next >= states) {
      return nullptr;
    }
  }
  return std::make_shared<const CompiledModel>(std::move(model));
}

}  // namespace bvc::mdp
