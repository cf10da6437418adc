// Deterministic mutation test of the one JSON reader (util::Json::parse)
// and the two schema readers built on it (robust::parse_jsonl_line and
// obs::read_metrics_json).
//
// Three seed documents — a bvcd bu-attack job body, a checkpoint journal
// line and a *.metrics.json file — are mutated by byte flips,
// truncations, token splices and depth bombs from a fixed seed. For every
// mutant:
//   * no reader crashes (scripts/sanitize.sh runs this under ASan/UBSan);
//   * whatever parses is a fixed point: dump(parse(dump(parse(x)))) ==
//     dump(parse(x));
//   * an accepted journal line or metrics file re-serializes to text its
//     reader accepts again, unchanged.
// And no strict prefix of a valid journal line is accepted.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "robust/checkpoint.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;

constexpr int kMutantsPerSeed = 20000;

const std::string kJobBody =
    R"({"kind":"bu-attack","utility":"relative-revenue",)"
    R"("budget":{"wall_clock_seconds":300},)"
    R"("cells":[{"alpha":0.2,"beta":0.4,"gamma":0.4,"ad":3,"setting":1},)"
    R"({"alpha":0.25,"beta":0.375,"gamma":0.375,"ad":6,"setting":2}],)"
    R"("note":"tab\tquote\" é"})";

std::string journal_seed() {
  robust::CheckpointRecord record;
  record.key = "bu|a=0.25|b=0.375|\"quoted\"";
  record.status = robust::RunStatus::kToleranceStalled;
  record.values = {{"utility_value", 0.34567891234567891},
                   {"limit_per_epoch", 1e6},
                   {"limit_per_epoch", 1.1e6},
                   {"gap", -2.5e-300}};
  record.policy = {0, 3, -1, 2147483647};
  return robust::to_jsonl(record);
}

std::string metrics_seed() {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["mdp.cache.hits"] = 42;
  snapshot.counters["robust.checkpoint.cells_appended"] = 0;
  snapshot.gauges["mdp.cache.resident_mb"] = 132.25;
  snapshot.gauges["b.level"] = -0.125;
  obs::Histogram::Snapshot histogram;
  histogram.bounds = {0.001, 0.01, 0.1};
  histogram.counts = {5, 0, 7, 1};
  histogram.sum = 0.75;
  histogram.count = 13;
  snapshot.histograms["mdp.batch.item_s"] = histogram;
  std::ostringstream out;
  obs::write_metrics_json(out, snapshot);
  return out.str();
}

/// Splice material: structural tokens, boundary numbers and escapes.
const std::vector<std::string_view> kTokens = {
    "{",      "}",          "[",     "]",      ",",        ":",
    "\"",     "\\",         "null",  "true",   "false",    "-0",
    "1e999",  "-1",         "0.5",   "1e18",   "4294967296", "NaN",
    "\\u00",  "\\ud834",    "\\udd1e", "\x01", "\xff",     " ",
    "\"key\":", "\"values\":{", "\"policy\":[", "\"counts\":[",
    "\"miners\":"};

std::string mutate(const std::string& seed, Rng& rng) {
  std::string text = seed;
  switch (rng.next_below(4)) {
    case 0: {  // flip a few bytes
      const std::uint64_t flips = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < flips && !text.empty(); ++i) {
        text[rng.next_below(text.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      }
      break;
    }
    case 1:  // truncate
      text.resize(rng.next_below(text.size()));
      break;
    case 2: {  // splice a token in, or over a short span
      const std::string_view token = kTokens[rng.next_below(kTokens.size())];
      const std::size_t at = rng.next_below(text.size() + 1);
      const std::size_t span =
          std::min<std::size_t>(rng.next_below(4), text.size() - at);
      text.replace(at, span, token);
      break;
    }
    default: {  // depth bomb past the parser's cap, around the seed
      const std::size_t depth =
          util::Json::kMaxDepth - 2 + rng.next_below(6);
      const bool objects = rng.next_below(2) == 0;
      std::string open;
      std::string close;
      for (std::size_t i = 0; i < depth; ++i) {
        open += objects ? "{\"a\":" : "[";
        close += objects ? "}" : "]";
      }
      text = open + text + close;
      break;
    }
  }
  return text;
}

/// parse(dump(parse(x))) must reproduce dump(parse(x)) exactly. Returns
/// whether `text` parsed at all.
bool expect_fixed_point(const std::string& text) {
  const std::optional<util::Json> first = util::Json::parse(text);
  if (!first) return false;
  const std::string dumped = first->dump();
  const std::optional<util::Json> second = util::Json::parse(dumped);
  EXPECT_TRUE(second.has_value()) << "dump does not re-parse: " << dumped;
  if (second) {
    EXPECT_EQ(second->dump(), dumped) << "input: " << text;
  }
  return true;
}

TEST(JsonMutation, JobBodyMutantsParseToAFixedPointOrNotAtAll) {
  ASSERT_TRUE(util::Json::parse(kJobBody).has_value());
  Rng rng(0x15);
  int parsed = 0;
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    parsed += expect_fixed_point(mutate(kJobBody, rng)) ? 1 : 0;
  }
  // The mutations must reach the writer, not only the rejection paths.
  EXPECT_GT(parsed, kMutantsPerSeed / 20);
}

TEST(JsonMutation, JournalLineMutantsAreRejectedOrReadConsistently) {
  const std::string seed = journal_seed();
  ASSERT_TRUE(robust::parse_jsonl_line(seed).has_value()) << seed;
  for (std::size_t length = 0; length < seed.size(); ++length) {
    EXPECT_FALSE(robust::parse_jsonl_line(seed.substr(0, length)))
        << "accepted a strict prefix: " << seed.substr(0, length);
  }
  Rng rng(0x16);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string text = mutate(seed, rng);
    expect_fixed_point(text);
    const std::optional<robust::CheckpointRecord> record =
        robust::parse_jsonl_line(text);
    if (!record) continue;
    ++accepted;
    const std::string line = robust::to_jsonl(*record);
    const std::optional<robust::CheckpointRecord> again =
        robust::parse_jsonl_line(line);
    ASSERT_TRUE(again.has_value()) << line;
    EXPECT_EQ(robust::to_jsonl(*again), line) << "input: " << text;
  }
  EXPECT_GT(accepted, kMutantsPerSeed / 100);
}

TEST(JsonMutation, MetricsFileMutantsAreRejectedOrReadConsistently) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("bvc_json_mutation_" + std::to_string(::getpid()) + ".metrics.json");
  const auto read_text = [&](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
    return obs::read_metrics_json(path.string());
  };
  const std::string seed = metrics_seed();
  ASSERT_TRUE(read_text(seed).has_value()) << seed;
  Rng rng(0x17);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerSeed / 4; ++i) {
    const std::string text = mutate(seed, rng);
    expect_fixed_point(text);
    const std::optional<obs::MetricsSnapshot> snapshot = read_text(text);
    if (!snapshot) continue;
    ++accepted;
    for (const auto& [name, histogram] : snapshot->histograms) {
      EXPECT_EQ(histogram.counts.size(), histogram.bounds.size() + 1) << name;
    }
    std::ostringstream rewritten;
    obs::write_metrics_json(rewritten, *snapshot);
    const std::optional<obs::MetricsSnapshot> again =
        read_text(rewritten.str());
    ASSERT_TRUE(again.has_value()) << rewritten.str();
    std::ostringstream twice;
    obs::write_metrics_json(twice, *again);
    EXPECT_EQ(twice.str(), rewritten.str()) << "input: " << text;
  }
  EXPECT_GT(accepted, kMutantsPerSeed / 400);
  std::filesystem::remove(path);
}

}  // namespace
