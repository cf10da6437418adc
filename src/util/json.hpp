// The project's one JSON reader and writer: a recursive value type with a
// strict parser, plus the shared string escaper and number writer.
//
// Every JSON document the project reads goes through Json::parse: bvcd
// request bodies, checkpoint journal lines (robust::parse_jsonl_line) and
// per-process `*.metrics.json` files (obs::read_metrics_json). parse()
// either returns a fully validated document or nullopt, so a malformed
// input is rejected before any field is read. Every writer that builds its
// text directly (journal lines, metrics files, event log, trace, manifest,
// timeline) escapes strings with append_json_escaped, and the ones that
// print full-precision doubles use append_json_number, so their output
// always re-parses.
//
// Writing is deterministic: object member order is preserved and finite
// doubles print as %.17g (integral values therefore print as integers);
// a non-finite double prints as `null`, since JSON has no NaN or Inf.
//
// Deliberately NOT general-purpose: no comments, no NaN/Inf literals,
// UTF-8 passed through verbatim, \uXXXX escapes decoded (surrogate pairs
// included), nesting capped at kMaxDepth so a hostile body cannot blow the
// stack.
//
// Layering: this file depends on nothing but the standard library and is
// built as its own library (bvc_json) below bvc_obs, so every layer can
// use it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bvc::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parser recursion cap; deeper documents are rejected, not truncated.
  static constexpr std::size_t kMaxDepth = 64;

  Json() = default;  // null
  static Json boolean(bool value);
  static Json number(double value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  // Typed reads. Wrong-type access returns the neutral value rather than
  // throwing — callers validate types up front via the predicates.
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
  [[nodiscard]] double as_number(double fallback = 0.0) const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept;
  /// The read side of append_json_number: a number, or `null` read as NaN,
  /// into `out`. False (and `out` untouched) for any other type.
  [[nodiscard]] bool number_or_null(double& out) const noexcept;

  // Array access.
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] const Json& at(std::size_t index) const noexcept {
    return items_[index];
  }
  [[nodiscard]] const std::vector<Json>& items() const noexcept {
    return items_;
  }
  void push_back(Json value);

  // Object access (member order preserved; first match wins on lookup).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept {
    return members_;
  }
  Json& set(std::string key, Json value);  ///< returns *this for chaining

  // Convenience typed lookups on objects.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const noexcept;
  [[nodiscard]] bool bool_or(std::string_view key,
                             bool fallback) const noexcept;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;

  /// Compact single-line serialization (no insignificant whitespace).
  [[nodiscard]] std::string dump() const;

  /// Strict parse of exactly one document (trailing non-whitespace fails).
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Appends `text` as a quoted JSON string: `"` and `\` are backslash-
/// escaped, every other control character becomes \u00XX.
void append_json_escaped(std::string& out, std::string_view text);

/// Appends `value` as a JSON number: %.17g (round-trips every finite
/// double bit for bit), or `null` when `value` is NaN or infinite.
void append_json_number(std::string& out, double value);

/// A number read back as a count: `value` as an integer in [0, max], or
/// nullopt when it is NaN, negative, fractional or out of range. Readers
/// of counts in files go through this instead of casting, since casting
/// such a double to an integer is undefined.
[[nodiscard]] std::optional<std::uint64_t> json_count(
    double value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) noexcept;

}  // namespace bvc::util
