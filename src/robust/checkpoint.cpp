#include "robust/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <unordered_set>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace bvc::robust {

namespace {

std::optional<RunStatus> status_from_string(std::string_view text) {
  for (const RunStatus status :
       {RunStatus::kConverged, RunStatus::kToleranceStalled,
        RunStatus::kBudgetExhausted, RunStatus::kCancelled,
        RunStatus::kDegenerateModel}) {
    if (text == to_string(status)) {
      return status;
    }
  }
  return std::nullopt;
}

/// Writes `content` to `path` atomically: <path>.tmp + fsync + rename
/// (merge_journals' one-shot output).
bool write_file_atomically(const std::string& path,
                           const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  const char* data = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd, data, left);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  // fsync before rename: the rename must never land ahead of the data.
  if (::fsync(fd) != 0 || ::close(fd) != 0 ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

double CheckpointRecord::value_or(std::string_view name,
                                  double fallback) const noexcept {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return value;
    }
  }
  return fallback;
}

bool CheckpointRecord::has_value(std::string_view name) const noexcept {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return true;
    }
  }
  return false;
}

std::string to_jsonl(const CheckpointRecord& record) {
  std::string out = "{\"key\":";
  util::append_json_escaped(out, record.key);
  out += ",\"status\":";
  util::append_json_escaped(out, to_string(record.status));
  out += ",\"values\":{";
  for (std::size_t i = 0; i < record.values.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    util::append_json_escaped(out, record.values[i].first);
    out += ':';
    // %.17g round-trips every finite double: a resumed cell renders the
    // exact bits the original solve produced (the bitwise-identical-output
    // guarantee rests on this). A non-finite value is written as null.
    util::append_json_number(out, record.values[i].second);
  }
  out += '}';
  if (!record.policy.empty()) {
    out += ",\"policy\":[";
    for (std::size_t i = 0; i < record.policy.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      out += std::to_string(record.policy[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::optional<CheckpointRecord> parse_jsonl_line(std::string_view line) {
  // One util::Json parse, then the schema to_jsonl writes: exactly `key`,
  // `status`, `values` and an optional `policy`. A torn or foreign line
  // fails here and load() skips it.
  const std::optional<util::Json> json = util::Json::parse(line);
  if (!json || !json->is_object()) {
    return std::nullopt;
  }
  const util::Json* key = json->find("key");
  const util::Json* status = json->find("status");
  const util::Json* values = json->find("values");
  const util::Json* policy = json->find("policy");
  // Three or four members, all found by name: none unknown or repeated.
  if (key == nullptr || !key->is_string() || status == nullptr ||
      values == nullptr || !values->is_object() ||
      (policy != nullptr && !policy->is_array()) ||
      json->members().size() != (policy != nullptr ? 4u : 3u)) {
    return std::nullopt;
  }
  const std::optional<RunStatus> run_status =
      status_from_string(status->as_string());
  if (!run_status) {
    return std::nullopt;
  }
  CheckpointRecord record;
  record.key = key->as_string();
  record.status = *run_status;
  // members(), not find(): a name may repeat (the voting trace's
  // limit_per_epoch) and its order is the data. null reads back as NaN.
  for (const auto& [name, value] : values->members()) {
    if (!value.number_or_null(record.values.emplace_back(name, 0.0).second)) {
      return std::nullopt;
    }
  }
  if (policy != nullptr) {
    for (const util::Json& action : policy->items()) {
      const double number = action.as_number(0.5);  // 0.5: not an integer
      if (number != std::floor(number) ||
          number < std::numeric_limits<std::int32_t>::min() ||
          number > std::numeric_limits<std::int32_t>::max()) {
        return std::nullopt;
      }
      record.policy.push_back(static_cast<std::int32_t>(number));
    }
  }
  return record;
}

CrashPlan crash_plan_from_env() {
  CrashPlan plan;
  if (const char* cells = std::getenv("BVC_CRASH_AFTER_CELLS");
      cells != nullptr && *cells != '\0') {
    plan.crash_after_appends =
        static_cast<std::size_t>(std::strtoull(cells, nullptr, 10));
  }
  if (const char* shard = std::getenv("BVC_CRASH_SHARD");
      shard != nullptr && *shard != '\0') {
    plan.only_shard = static_cast<int>(std::strtol(shard, nullptr, 10));
  }
  return plan;
}

CheckpointJournal::CheckpointJournal(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  BVC_REQUIRE(!path_.empty(), "CheckpointJournal needs a non-empty path");
}

CheckpointJournal::~CheckpointJournal() {
  flush();
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::size_t CheckpointJournal::load() {
  if (!enabled()) {
    return 0;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  loaded_ = true;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return 0;  // no journal yet: fresh sweep
  }
  const std::string content{std::istreambuf_iterator<char>(in), {}};
  std::size_t loaded = 0;
  for (std::size_t begin = 0; begin < content.size();) {
    std::size_t end = content.find('\n', begin);
    const bool terminated = end != std::string::npos;
    if (!terminated) {
      end = content.size();
    }
    const std::string_view line(content.data() + begin, end - begin);
    const std::size_t line_begin = begin;
    begin = end + 1;
    if (line.empty()) {
      continue;
    }
    std::optional<CheckpointRecord> record = parse_jsonl_line(line);
    if (!terminated) {
      // The file ends mid-line: a torn fragment is cut off before the
      // first write, a complete record only gets its missing newline.
      if (record) {
        terminate_tail_ = true;
      } else {
        cut_to_ = line_begin;
      }
    }
    if (!record) {
      ++skipped_lines_;
      continue;
    }
    const auto [it, inserted] =
        index_.try_emplace(record->key, records_.size());
    if (inserted) {
      records_.push_back(std::move(*record));
    } else {
      records_[it->second] = std::move(*record);  // last record wins
    }
    ++loaded;
  }
  if (skipped_lines_ > 0) {
    obs::log_warn("checkpoint", "skipped malformed journal line(s)",
                  {{"lines", skipped_lines_}, {"path", path_}});
  }
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global()
        .gauge("robust.checkpoint.cells_loaded")
        .set(static_cast<double>(records_.size()));
  }
  return loaded;
}

bool CheckpointJournal::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const CheckpointRecord* CheckpointJournal::find(const std::string& key) const {
  if (!enabled()) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &records_[it->second];
}

std::optional<CheckpointRecord> CheckpointJournal::lookup(
    const std::string& key) const {
  if (!enabled()) {
    return std::nullopt;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return records_[it->second];
}

void CheckpointJournal::append(CheckpointRecord record) {
  if (!enabled()) {
    return;
  }
  std::string line = to_jsonl(record);
  line += '\n';
  const std::lock_guard<std::mutex> lock(mutex_);
  unflushed_ += line;
  const auto [it, inserted] =
      index_.try_emplace(record.key, records_.size());
  if (inserted) {
    records_.push_back(std::move(record));
  } else {
    records_[it->second] = std::move(record);
  }
  ++appended_;
  flush_locked();
  if (options_.crash.armed_for(options_.shard_index) &&
      appended_ >= options_.crash.crash_after_appends) {
    flush_locked();  // the journal the next run resumes from is complete
    // Die while still holding the journal lock: releasing it first would
    // let a concurrent worker append cell N+1 before the signal lands,
    // making "exactly N journaled cells" nondeterministic (the resume
    // tests assert the exact count, and TSan's slowdown makes the
    // unlocked window wide enough to hit in practice).
    // EventLog flushes per record, so this survives the raise below.
    obs::log_warn("checkpoint", "crash injection: SIGKILL",
                  {{"cells_appended", appended_}});
    ::raise(SIGKILL);  // simulate an external hard kill (OOM killer)
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& appended_cells =
        obs::MetricsRegistry::global().counter(
            "robust.checkpoint.cells_appended");
    appended_cells.add();
  }
}

bool CheckpointJournal::flush() {
  if (!enabled()) {
    return true;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  return flush_locked();
}

bool CheckpointJournal::open_locked() {
  if (fd_ >= 0) {
    return true;
  }
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC | (loaded_ ? 0 : O_TRUNC);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    return false;
  }
  if (cut_to_ != kNoCut) {
    if (::ftruncate(fd_, static_cast<off_t>(cut_to_)) != 0) {
      const int error = errno;
      ::close(fd_);
      fd_ = -1;
      errno = error;
      return false;
    }
    cut_to_ = kNoCut;
  }
  if (terminate_tail_) {
    unflushed_.insert(0, 1, '\n');
    terminate_tail_ = false;
  }
  return true;
}

bool CheckpointJournal::flush_locked() {
  if (unflushed_.empty() && !unsynced_) {
    return true;
  }
  bool ok = open_locked();
  std::size_t written = 0;
  while (ok && written < unflushed_.size()) {
    const ssize_t wrote = ::write(fd_, unflushed_.data() + written,
                                  unflushed_.size() - written);
    if (wrote <= 0) {
      ok = wrote < 0 && errno == EINTR;
      continue;
    }
    written += static_cast<std::size_t>(wrote);
    unsynced_ = true;
  }
  // Only the bytes that reached the file leave the buffer: a retry resumes
  // mid-line instead of writing any line twice.
  unflushed_.erase(0, written);
  if (written > 0 && obs::metrics_enabled()) {
    static obs::Counter& bytes_written =
        obs::MetricsRegistry::global().counter(
            "robust.checkpoint.bytes_written");
    bytes_written.add(written);
  }
  if (ok && unsynced_) {
    ok = ::fdatasync(fd_) == 0;
    unsynced_ = !ok;
  }
  if (!ok && !write_failed_) {
    obs::log_error("checkpoint",
                   "cannot write journal; continuing without durability",
                   {{"path", path_}, {"error", std::strerror(errno)}});
    write_failed_ = true;
  }
  return ok;
}

std::size_t CheckpointJournal::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::size_t CheckpointJournal::appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::size_t CheckpointJournal::skipped_lines() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return skipped_lines_;
}

MergeReport merge_journals(std::span<const std::string> shard_paths,
                           const std::string& out_path) {
  MergeReport report;
  std::string content;
  std::unordered_set<std::string> seen;
  for (const std::string& path : shard_paths) {
    std::ifstream in(path);
    if (!in) {
      continue;  // a shard that never completed a cell has no journal
    }
    ++report.inputs;
    // (key, line) in first-occurrence order; a recomputed cell's later
    // line replaces its earlier one, as in load().
    std::vector<std::pair<std::string, std::string>> lines;
    std::unordered_map<std::string, std::size_t> position;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      std::optional<CheckpointRecord> record = parse_jsonl_line(line);
      if (!record) {
        ++report.malformed_lines;
        continue;
      }
      const auto [it, inserted] =
          position.try_emplace(record->key, lines.size());
      if (inserted) {
        lines.emplace_back(std::move(record->key), std::move(line));
      } else {
        ++report.duplicates;
        lines[it->second].second = std::move(line);
      }
    }
    for (auto& [key, kept] : lines) {
      if (!seen.insert(std::move(key)).second) {
        ++report.duplicates;
        continue;  // an earlier journal holds this key
      }
      ++report.records;
      content += kept;
      content += '\n';
    }
  }
  if (!write_file_atomically(out_path, content)) {
    obs::log_error("checkpoint", "cannot write merged journal",
                   {{"path", out_path}});
  }
  return report;
}

}  // namespace bvc::robust
