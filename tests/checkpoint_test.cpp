// Crash-safe sweep checkpointing (robust/checkpoint.hpp), the shard
// supervisor's building blocks (robust/supervisor.hpp, robust/retry.hpp),
// and the checkpointed batch engine (mdp::run_batch + BatchCheckpoint).
// Registered under the `shard` ctest label together with the end-to-end
// kill-and-resume script test (scripts/check_resume.sh).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bu/attack_analysis.hpp"
#include "btc/selfish_mining.hpp"
#include "counter/voting_simulation.hpp"
#include "mdp/batch.hpp"
#include "mdp/model_cache.hpp"
#include "robust/checkpoint.hpp"
#include "robust/retry.hpp"
#include "robust/run_control.hpp"
#include "robust/supervisor.hpp"

namespace {

using namespace bvc;
using robust::CheckpointJournal;
using robust::CheckpointRecord;
using robust::RunStatus;

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + "bvc_ckpt_" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

CheckpointRecord make_record(std::string key, double value) {
  CheckpointRecord record;
  record.key = std::move(key);
  record.values.emplace_back("value", value);
  return record;
}

// ---------------------------------------------------------------------------
// JSONL record serialization

TEST(CheckpointRecord, JsonlRoundTripIsExact) {
  CheckpointRecord record;
  record.key = "attack|alpha=0.29999999999999999|u=rel";  // key uses | and =
  record.status = RunStatus::kConverged;
  record.values.emplace_back("third", 1.0 / 3.0);
  record.values.emplace_back("neg", -0.0);
  // Smallest-magnitude NORMAL doubles round-trip; subnormals are rejected
  // by the strict parser (strtod underflow), which degrades to recompute.
  record.values.emplace_back("tiny", 2.2250738585072014e-308);
  record.values.emplace_back("big", 12345.678901234567);
  record.policy = {0, 1, 3, 2};

  const std::string line = to_jsonl(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const auto parsed = robust::parse_jsonl_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, record.key);
  EXPECT_EQ(parsed->status, record.status);
  ASSERT_EQ(parsed->values.size(), record.values.size());
  for (std::size_t i = 0; i < record.values.size(); ++i) {
    EXPECT_EQ(parsed->values[i].first, record.values[i].first);
    // %.17g round-trips every finite double bit-exactly.
    EXPECT_EQ(parsed->values[i].second, record.values[i].second) << i;
  }
  EXPECT_EQ(parsed->policy, record.policy);
}

TEST(CheckpointRecord, RoundTripsEveryStatus) {
  for (const RunStatus status :
       {RunStatus::kConverged, RunStatus::kToleranceStalled,
        RunStatus::kBudgetExhausted, RunStatus::kCancelled,
        RunStatus::kDegenerateModel}) {
    CheckpointRecord record = make_record("k", 1.0);
    record.status = status;
    const auto parsed = robust::parse_jsonl_line(to_jsonl(record));
    ASSERT_TRUE(parsed.has_value()) << to_jsonl(record);
    EXPECT_EQ(parsed->status, status);
  }
}

TEST(CheckpointRecord, ParseRejectsTornAndForeignLines) {
  const std::string good = to_jsonl(make_record("cell", 2.5));
  EXPECT_TRUE(robust::parse_jsonl_line(good).has_value());

  EXPECT_FALSE(robust::parse_jsonl_line("").has_value());
  EXPECT_FALSE(robust::parse_jsonl_line("{}").has_value());
  EXPECT_FALSE(robust::parse_jsonl_line("not json at all").has_value());
  EXPECT_FALSE(robust::parse_jsonl_line("{\"key\":\"x\"").has_value());
  // Torn write: every strict prefix of a valid line must be rejected, never
  // misparsed into a record with silently missing fields.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(robust::parse_jsonl_line(good.substr(0, len)).has_value())
        << "prefix length " << len;
  }
  // Unknown status names are malformed, not defaulted.
  std::string bad_status = good;
  const auto pos = bad_status.find("converged");
  ASSERT_NE(pos, std::string::npos);
  bad_status.replace(pos, 9, "exploded!");
  EXPECT_FALSE(robust::parse_jsonl_line(bad_status).has_value());
}

// ---------------------------------------------------------------------------
// Journal persistence

TEST(CheckpointJournal, AppendFlushReload) {
  const std::string path = temp_path("append_reload.jsonl");
  {
    CheckpointJournal journal(path);
    EXPECT_TRUE(journal.enabled());
    EXPECT_EQ(journal.load(), 0u);  // missing file = empty, not an error
    journal.append(make_record("a", 1.5));
    journal.append(make_record("b", -2.25));
    journal.append(make_record("c", 1e-17));
    EXPECT_EQ(journal.appended(), 3u);
  }  // destructor flushes

  CheckpointJournal reloaded(path);
  EXPECT_EQ(reloaded.load(), 3u);
  EXPECT_EQ(reloaded.skipped_lines(), 0u);
  EXPECT_TRUE(reloaded.contains("a"));
  const auto record = reloaded.lookup("b");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value_or("value", 0.0), -2.25);
  EXPECT_FALSE(reloaded.contains("missing"));
  EXPECT_EQ(reloaded.lookup("missing"), std::nullopt);
}

TEST(CheckpointJournal, DisabledJournalIsInert) {
  CheckpointJournal journal;
  EXPECT_FALSE(journal.enabled());
  journal.append(make_record("a", 1.0));
  EXPECT_TRUE(journal.flush());
  EXPECT_FALSE(journal.contains("a"));
}

TEST(CheckpointJournal, FsyncBatchBuffersUntilThreshold) {
  const std::string path = temp_path("fsync_batch.jsonl");
  robust::JournalOptions options;
  options.fsync_batch = 3;
  CheckpointJournal journal(path, options);
  journal.append(make_record("a", 1.0));
  journal.append(make_record("b", 2.0));
  // Two appends < fsync_batch: nothing durable yet.
  EXPECT_FALSE(std::ifstream(path).good());
  // The in-memory index still serves resumes immediately.
  EXPECT_TRUE(journal.contains("b"));

  journal.append(make_record("c", 3.0));  // third append triggers the flush
  CheckpointJournal reader(path);
  EXPECT_EQ(reader.load(), 3u);
}

TEST(CheckpointJournal, LoadLastWinsOnDuplicateKeys) {
  const std::string path = temp_path("duplicates.jsonl");
  {
    std::ofstream out(path);
    out << to_jsonl(make_record("cell", 1.0)) << '\n';
    out << to_jsonl(make_record("cell", 99.0)) << '\n';
  }
  CheckpointJournal journal(path);
  journal.load();
  const auto record = journal.lookup("cell");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->value_or("value", 0.0), 99.0);
}

TEST(CheckpointJournal, LoadSkipsMalformedLines) {
  const std::string path = temp_path("torn.jsonl");
  {
    std::ofstream out(path);
    out << to_jsonl(make_record("good1", 1.0)) << '\n';
    out << "### corrupted by a foreign tool ###\n";
    const std::string torn = to_jsonl(make_record("torn", 3.0));
    out << torn.substr(0, torn.size() / 2) << '\n';  // raw-append crash tail
    out << to_jsonl(make_record("good2", 2.0)) << '\n';
  }
  CheckpointJournal journal(path);
  EXPECT_EQ(journal.load(), 2u);
  EXPECT_EQ(journal.skipped_lines(), 2u);
  EXPECT_TRUE(journal.contains("good1"));
  EXPECT_TRUE(journal.contains("good2"));
  EXPECT_FALSE(journal.contains("torn"));
}

TEST(CheckpointJournal, MergeFirstOccurrenceWins) {
  const std::string shard0 = temp_path("merge_shard0.jsonl");
  const std::string shard1 = temp_path("merge_shard1.jsonl");
  const std::string missing = temp_path("merge_missing.jsonl");
  const std::string out_path = temp_path("merge_out.jsonl");
  {
    std::ofstream a(shard0);
    a << to_jsonl(make_record("k1", 1.0)) << '\n';
    a << to_jsonl(make_record("k2", 2.0)) << '\n';
    std::ofstream b(shard1);
    b << to_jsonl(make_record("k2", 99.0)) << '\n';  // duplicate, dropped
    b << "garbage line\n";
    b << to_jsonl(make_record("k3", 3.0)) << '\n';
  }
  const std::vector<std::string> inputs = {shard0, shard1, missing};
  const robust::MergeReport report = robust::merge_journals(inputs, out_path);
  EXPECT_EQ(report.inputs, 2u);  // the missing shard journal is skipped
  EXPECT_EQ(report.records, 3u);
  EXPECT_EQ(report.duplicates, 1u);
  EXPECT_EQ(report.malformed_lines, 1u);

  // The merged output is itself a resumable journal.
  CheckpointJournal merged(out_path);
  EXPECT_EQ(merged.load(), 3u);
  const auto k2 = merged.lookup("k2");
  ASSERT_TRUE(k2.has_value());
  EXPECT_EQ(k2->value_or("value", 0.0), 2.0);  // shard order, first wins
}

// ---------------------------------------------------------------------------
// Shard partition

TEST(ShardSpec, ParsesValidAndRejectsInvalid) {
  const auto ok = robust::ShardSpec::parse("1/4");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->index, 1);
  EXPECT_EQ(ok->count, 4);
  EXPECT_EQ(ok->to_string(), "1/4");
  EXPECT_TRUE(robust::ShardSpec::parse("0/1").has_value());

  for (const char* bad :
       {"", "4/4", "5/4", "-1/4", "1/0", "1/-2", "x/4", "1/y", "1", "1/2/3"}) {
    EXPECT_FALSE(robust::ShardSpec::parse(bad).has_value()) << bad;
  }
}

TEST(ShardSpec, RoundRobinPartitionIsDisjointAndComplete) {
  constexpr int kShards = 3;
  constexpr std::size_t kCells = 32;
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    int owners = 0;
    for (int shard = 0; shard < kShards; ++shard) {
      if (robust::ShardSpec{shard, kShards}.owns(cell)) {
        ++owners;
      }
    }
    EXPECT_EQ(owners, 1) << "cell " << cell;
  }
  // A single-shard spec owns everything.
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    EXPECT_TRUE((robust::ShardSpec{0, 1}.owns(cell)));
  }
}

// ---------------------------------------------------------------------------
// Backoff policy

TEST(BackoffPolicy, DelaysCompoundAndSaturateAtCap) {
  robust::BackoffPolicy policy;
  policy.initial_delay_seconds = 1.0;
  policy.multiplier = 10.0;
  policy.max_delay_seconds = 5.0;
  EXPECT_EQ(policy.delay_for_attempt(0), 1.0);
  EXPECT_EQ(policy.delay_for_attempt(1), 5.0);  // 10 clamped to the cap
  EXPECT_EQ(policy.delay_for_attempt(2), 5.0);  // saturated, no overflow
  EXPECT_EQ(policy.delay_for_attempt(50), 5.0);
}

TEST(BackoffPolicy, DegenerateInputsYieldZeroDelay) {
  robust::BackoffPolicy policy;
  EXPECT_EQ(policy.delay_for_attempt(-1), 0.0);
  policy.initial_delay_seconds = 0.0;
  EXPECT_EQ(policy.delay_for_attempt(0), 0.0);
  policy.initial_delay_seconds = 1.0;
  policy.max_delay_seconds = -3.0;  // negative cap clamps to zero, not -3
  EXPECT_EQ(policy.delay_for_attempt(0), 0.0);
}

TEST(BackoffPolicy, WaitReturnsImmediatelyOnZeroDelay) {
  robust::BackoffPolicy policy;
  policy.initial_delay_seconds = 0.0;
  const robust::CancelToken cancel = robust::CancelToken::make();
  EXPECT_TRUE(robust::backoff_wait(policy, 0, cancel));
}

TEST(BackoffPolicy, WaitAbortsWhenLinkedTokenFiresMidBackoff) {
  robust::BackoffPolicy policy;
  policy.initial_delay_seconds = 30.0;  // far beyond any test budget
  const robust::CancelToken parent = robust::CancelToken::make();
  const robust::CancelToken child = robust::CancelToken::make_linked(parent);

  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    parent.request_cancel();  // cancelling the parent reaches the child
  });
  const auto begin = std::chrono::steady_clock::now();
  const bool completed = robust::backoff_wait(policy, 0, child);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  firer.join();
  EXPECT_FALSE(completed);  // the caller must abandon the retry
  EXPECT_LT(waited, 10.0);  // aborted the 30 s sleep, not served it out
}

// ---------------------------------------------------------------------------
// Crash injection plan

TEST(CrashPlan, ReadsEnvironmentHooks) {
  ::unsetenv("BVC_CRASH_AFTER_CELLS");
  ::unsetenv("BVC_CRASH_SHARD");
  EXPECT_FALSE(robust::crash_plan_from_env().armed_for(0));

  ::setenv("BVC_CRASH_AFTER_CELLS", "3", 1);
  robust::CrashPlan plan = robust::crash_plan_from_env();
  EXPECT_EQ(plan.crash_after_appends, 3u);
  EXPECT_TRUE(plan.armed_for(-1));  // unsharded process
  EXPECT_TRUE(plan.armed_for(2));   // any shard

  ::setenv("BVC_CRASH_SHARD", "1", 1);
  plan = robust::crash_plan_from_env();
  EXPECT_TRUE(plan.armed_for(1));
  EXPECT_FALSE(plan.armed_for(0));  // only the named shard crashes

  ::unsetenv("BVC_CRASH_AFTER_CELLS");
  ::unsetenv("BVC_CRASH_SHARD");
}

// ---------------------------------------------------------------------------
// Checkpointed batch engine

mdp::BatchCheckpoint numbered_checkpoint(CheckpointJournal& journal,
                                         std::vector<double>& results) {
  mdp::BatchCheckpoint checkpoint;
  checkpoint.journal = &journal;
  checkpoint.cell_key = [](std::size_t i) {
    return "cell-" + std::to_string(i);
  };
  checkpoint.restore = [&results](std::size_t i,
                                  const CheckpointRecord& record) {
    if (!record.has_value("value")) {
      return false;
    }
    results[i] = record.value_or("value", 0.0);
    return true;
  };
  checkpoint.snapshot = [&results](std::size_t i) {
    return make_record("cell-" + std::to_string(i), results[i]);
  };
  return checkpoint;
}

TEST(CheckpointedBatch, JournalsOnFirstRunResumesOnSecond) {
  const std::string path = temp_path("batch_resume.jsonl");
  constexpr std::size_t kCells = 5;
  const auto run_item = [](std::vector<double>& results, std::atomic<int>& n) {
    return [&results, &n](std::size_t i, const robust::RunControl&) {
      ++n;
      results[i] = static_cast<double>(i) * 2.5;
      return RunStatus::kConverged;
    };
  };
  const auto skip_item = [](std::size_t, RunStatus) {};

  std::vector<double> first(kCells, -1.0);
  {
    CheckpointJournal journal(path);
    journal.load();
    std::atomic<int> runs{0};
    const mdp::BatchReport report =
        mdp::run_batch(kCells, {}, numbered_checkpoint(journal, first),
                       run_item(first, runs), skip_item);
    EXPECT_EQ(runs.load(), static_cast<int>(kCells));
    EXPECT_EQ(report.items_resumed, 0u);
    EXPECT_EQ(journal.appended(), kCells);  // every success journaled
  }

  // Second run: everything restores from the journal, nothing recomputes.
  std::vector<double> second(kCells, -1.0);
  CheckpointJournal journal(path);
  EXPECT_EQ(journal.load(), kCells);
  std::atomic<int> runs{0};
  const mdp::BatchReport report =
      mdp::run_batch(kCells, {}, numbered_checkpoint(journal, second),
                     run_item(second, runs), skip_item);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(report.items_resumed, kCells);
  EXPECT_EQ(report.status, RunStatus::kConverged);
  EXPECT_EQ(second, first);
}

TEST(CheckpointedBatch, FailedRestoreFallsBackToRecompute) {
  const std::string path = temp_path("batch_stale.jsonl");
  constexpr std::size_t kCells = 3;
  {
    // A stale journal whose middle record lost its value (schema drift).
    std::ofstream out(path);
    out << to_jsonl(make_record("cell-0", 0.0)) << '\n';
    CheckpointRecord hollow;
    hollow.key = "cell-1";
    out << to_jsonl(hollow) << '\n';
    out << to_jsonl(make_record("cell-2", 5.0)) << '\n';
  }
  CheckpointJournal journal(path);
  journal.load();
  std::vector<double> results(kCells, -1.0);
  std::atomic<int> runs{0};
  const mdp::BatchReport report = mdp::run_batch(
      kCells, {}, numbered_checkpoint(journal, results),
      [&](std::size_t i, const robust::RunControl&) {
        ++runs;
        results[i] = static_cast<double>(i) * 2.5;
        return RunStatus::kConverged;
      },
      [](std::size_t, RunStatus) {});
  EXPECT_EQ(runs.load(), 1);  // only the hollow record recomputes
  EXPECT_EQ(report.items_resumed, kCells - 1);
  EXPECT_EQ(results[1], 2.5);
}

TEST(CheckpointedBatch, ShardFilterExcludesForeignCells) {
  const std::string path = temp_path("batch_shard.jsonl");
  constexpr std::size_t kCells = 6;
  const robust::ShardSpec shard{1, 2};  // owns the odd cells
  CheckpointJournal journal(path);
  std::vector<double> results(kCells, 0.0);
  mdp::BatchCheckpoint checkpoint = numbered_checkpoint(journal, results);
  checkpoint.include = [shard](std::size_t i) { return shard.owns(i); };
  checkpoint.exclude = [&results](std::size_t i) { results[i] = -1.0; };

  const mdp::BatchReport report = mdp::run_batch(
      kCells, {}, checkpoint,
      [&results](std::size_t i, const robust::RunControl&) {
        results[i] = static_cast<double>(i);
        return RunStatus::kConverged;
      },
      [](std::size_t, RunStatus) {});

  EXPECT_EQ(report.items_excluded, kCells / 2);
  EXPECT_EQ(report.items_converged, kCells / 2);
  EXPECT_EQ(report.status, RunStatus::kConverged);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(results[i], shard.owns(i) ? static_cast<double>(i) : -1.0) << i;
  }
  // Only owned cells reach the journal — merging shard journals can never
  // collide on a key.
  EXPECT_EQ(journal.appended(), kCells / 2);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(journal.contains("cell-" + std::to_string(i)), shard.owns(i));
  }
}

TEST(CheckpointedBatch, OnlySuccessfulCellsAreJournaled) {
  const std::string path = temp_path("batch_failures.jsonl");
  CheckpointJournal journal(path);
  std::vector<double> results(2, 0.0);
  const mdp::BatchReport report = mdp::run_batch(
      2, {}, numbered_checkpoint(journal, results),
      [&results](std::size_t i, const robust::RunControl&) {
        results[i] = 1.0;
        return i == 0 ? RunStatus::kConverged : RunStatus::kDegenerateModel;
      },
      [](std::size_t, RunStatus) {});
  EXPECT_EQ(report.status, RunStatus::kDegenerateModel);  // worst status
  EXPECT_EQ(journal.appended(), 1u);
  EXPECT_TRUE(journal.contains("cell-0"));
  EXPECT_FALSE(journal.contains("cell-1"));  // a resume retries the failure
}

// ---------------------------------------------------------------------------
// Shard supervisor (cheap /bin/sh workers; the real-bench path is covered
// end-to-end by scripts/check_resume.sh)

robust::WorkerSpawn shell_worker(const std::string& command,
                                 const std::string& tag) {
  robust::WorkerSpawn spawn;
  spawn.argv = {"/bin/sh", "-c", command};
  spawn.log_path = temp_path("supervisor_" + tag + ".log");
  spawn.journal_path = temp_path("supervisor_" + tag + ".jsonl");
  return spawn;
}

TEST(Supervisor, CleanWorkersCompleteWithoutRestarts) {
  const std::vector<robust::WorkerSpawn> workers = {
      shell_worker("exit 0", "clean0"), shell_worker("exit 0", "clean1")};
  robust::SupervisorOptions options;
  options.backoff.initial_delay_seconds = 0.01;
  const robust::SupervisorReport report =
      robust::supervise_shards(workers, options);
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(report.total_restarts, 0);
  EXPECT_FALSE(report.cancelled);
}

TEST(Supervisor, ZeroRetryBudgetGivesUpAfterFirstCrash) {
  const std::vector<robust::WorkerSpawn> workers = {
      shell_worker("exit 7", "zeroretry")};
  robust::SupervisorOptions options;
  options.backoff.max_retries = 0;  // never restart
  options.backoff.initial_delay_seconds = 0.01;
  const robust::SupervisorReport report =
      robust::supervise_shards(workers, options);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_FALSE(report.all_completed());
  EXPECT_TRUE(report.shards[0].gave_up);
  EXPECT_EQ(report.shards[0].restarts, 0);
  EXPECT_EQ(report.shards[0].last_exit_code, 7);
  EXPECT_EQ(report.total_restarts, 0);
}

TEST(Supervisor, RestartsCrashedWorkerUntilItSucceeds) {
  // First incarnation crashes, the respawn finds the marker and exits 0 —
  // exactly the journal-backed resume pattern the supervisor exists for.
  const std::string marker = temp_path("supervisor_marker");
  const std::vector<robust::WorkerSpawn> workers = {shell_worker(
      "if [ -f '" + marker + "' ]; then exit 0; else touch '" + marker +
          "'; exit 1; fi",
      "restart")};
  robust::SupervisorOptions options;
  options.backoff.max_retries = 3;
  options.backoff.initial_delay_seconds = 0.01;
  options.backoff.max_delay_seconds = 0.05;
  const robust::SupervisorReport report =
      robust::supervise_shards(workers, options);
  EXPECT_TRUE(report.all_completed());
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].restarts, 1);
  EXPECT_FALSE(report.shards[0].gave_up);
  EXPECT_EQ(report.total_restarts, 1);
  std::remove(marker.c_str());
}

TEST(Supervisor, CancelTokenStopsLiveWorkers) {
  const std::vector<robust::WorkerSpawn> workers = {
      shell_worker("sleep 600", "cancel")};
  robust::SupervisorOptions options;
  options.cancel = robust::CancelToken::make();
  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    options.cancel.request_cancel();
  });
  const auto begin = std::chrono::steady_clock::now();
  const robust::SupervisorReport report =
      robust::supervise_shards(workers, options);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  firer.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.all_completed());
  EXPECT_LT(waited, 60.0);  // SIGTERMed the sleeper instead of waiting it out
}

TEST(Supervisor, SelfExecutablePathIsAbsolute) {
  const std::string path = robust::self_executable_path("fallback");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), '/');  // /proc/self/exe resolves on Linux
}

// ---------------------------------------------------------------------------
// Domain record/restore roundtrips

TEST(DomainCheckpoint, AnalysisRecordRoundTrips) {
  bu::AnalysisResult result;
  result.status = RunStatus::kConverged;
  result.iterations = 17;
  result.wall_clock_ns = 123456789;
  result.utility_value = 0.34567891234567891;
  result.honest_baseline = 0.3;
  result.attack_beats_honest = true;
  result.reward_rate = 1.25;
  result.weight_rate = 3.5;
  result.policy.action = {0, 1, 2, 0};

  const CheckpointRecord record =
      bu::analysis_record("cell", result, /*persist_policy=*/true);
  bu::AnalysisResult restored;
  ASSERT_TRUE(bu::analysis_restore(record, restored));
  EXPECT_EQ(restored.status, result.status);
  EXPECT_EQ(restored.iterations, result.iterations);
  EXPECT_EQ(restored.wall_clock_ns, result.wall_clock_ns);
  EXPECT_EQ(restored.utility_value, result.utility_value);
  EXPECT_EQ(restored.honest_baseline, result.honest_baseline);
  EXPECT_TRUE(restored.attack_beats_honest);
  EXPECT_EQ(restored.reward_rate, result.reward_rate);
  EXPECT_EQ(restored.weight_rate, result.weight_rate);
  EXPECT_EQ(restored.policy.action, result.policy.action);

  // Without persist_policy the record stays small and restore leaves the
  // policy empty.
  const CheckpointRecord slim =
      bu::analysis_record("cell", result, /*persist_policy=*/false);
  EXPECT_TRUE(slim.policy.empty());
  bu::AnalysisResult slim_restored;
  ASSERT_TRUE(bu::analysis_restore(slim, slim_restored));
  EXPECT_TRUE(slim_restored.policy.action.empty());
  EXPECT_EQ(slim_restored.utility_value, result.utility_value);
}

TEST(DomainCheckpoint, AnalysisRestoreRejectsSchemaDrift) {
  CheckpointRecord hollow;
  hollow.key = "cell";
  hollow.values.emplace_back("honest_baseline", 0.3);  // utility_value gone
  bu::AnalysisResult result;
  EXPECT_FALSE(bu::analysis_restore(hollow, result));
}

TEST(DomainCheckpoint, SmRecordRoundTrips) {
  btc::SmResult result;
  result.status = RunStatus::kConverged;
  result.iterations = 9;
  result.wall_clock_ns = 42;
  result.utility_value = 0.41234567890123456;
  result.policy.action = {3, 1, 0};

  const CheckpointRecord record =
      btc::sm_record("cell", result, /*persist_policy=*/true);
  btc::SmResult restored;
  ASSERT_TRUE(btc::sm_restore(record, restored));
  EXPECT_EQ(restored.utility_value, result.utility_value);
  EXPECT_EQ(restored.iterations, result.iterations);
  EXPECT_EQ(restored.wall_clock_ns, result.wall_clock_ns);
  EXPECT_EQ(restored.policy.action, result.policy.action);

  CheckpointRecord hollow;
  hollow.key = "cell";
  btc::SmResult rejected;
  EXPECT_FALSE(btc::sm_restore(hollow, rejected));
}

TEST(DomainCheckpoint, VotingRecordRoundTripsEpochTrace) {
  counter::VotingSimResult result;
  result.status = RunStatus::kConverged;
  result.iterations = 3;
  result.wall_clock_ns = 777;
  result.final_limit = 1'300'000;
  result.increases = 3;
  result.decreases = 1;
  result.blocks = 3 * 2016;
  result.limit_per_epoch = {1'000'000, 1'100'000, 1'200'000};

  const CheckpointRecord record = counter::voting_record("cell", result);
  counter::VotingSimResult restored;
  ASSERT_TRUE(counter::voting_restore(record, restored));
  EXPECT_EQ(restored.final_limit, result.final_limit);
  EXPECT_EQ(restored.increases, result.increases);
  EXPECT_EQ(restored.decreases, result.decreases);
  EXPECT_EQ(restored.blocks, result.blocks);
  EXPECT_EQ(restored.limit_per_epoch, result.limit_per_epoch);  // in order
  EXPECT_EQ(restored.iterations, result.iterations);
}

TEST(DomainCheckpoint, JobKeysSeparateDistinctCells) {
  bu::AnalysisJob a;
  bu::AnalysisJob b = a;
  b.params.alpha = a.params.alpha + 1e-12;  // tiny change, distinct key
  EXPECT_NE(bu::analysis_job_key(a, {}), bu::analysis_job_key(b, {}));
  bu::AnalysisOptions loose;
  loose.tolerance = 1e-3;
  EXPECT_NE(bu::analysis_job_key(a, {}), bu::analysis_job_key(a, loose));

  btc::SmJob sm_a;
  btc::SmJob sm_b = sm_a;
  sm_b.tolerance = sm_a.tolerance * 0.5;
  EXPECT_NE(btc::sm_job_key(sm_a), btc::sm_job_key(sm_b));

  counter::VotingJob vote_a;
  vote_a.config.cohorts = {{1.0, 1'000'000, false}};
  counter::VotingJob vote_b = vote_a;
  vote_b.seed = vote_a.seed + 1;
  EXPECT_NE(counter::voting_job_key(vote_a), counter::voting_job_key(vote_b));
  counter::VotingJob vote_c = vote_a;
  vote_c.config.cohorts[0].adversarial = true;
  EXPECT_NE(counter::voting_job_key(vote_a), counter::voting_job_key(vote_c));
}

TEST(DomainCheckpoint, OtherSolverSchemeJournalForcesAResolve) {
  // The key a relative-value-iteration build journaled cells under: no
  // solver scheme, plus its sweep knobs. A record stored under it must
  // never be resumed into a policy-iteration run; the cell is re-solved.
  bu::AnalysisJob job;
  job.params.alpha = 0.25;
  job.params.beta = 0.375;
  job.params.gamma = 0.375;
  job.params.ad = 4;
  const bu::AnalysisOptions options;
  std::string rvi_key = bu::attack_model_cache_key(job.params, job.utility);
  mdp::append_key(rvi_key, "tol", options.tolerance);
  mdp::append_key(rvi_key, "itol", options.inner.tolerance);
  mdp::append_key(rvi_key, "isweeps", std::int64_t{30000});
  mdp::append_key(rvi_key, "itau", 0.999);
  const std::string key = bu::analysis_job_key(job, options);
  ASSERT_NE(rvi_key, key);
  EXPECT_NE(key.find("solver=pi-sparse"), std::string::npos);

  const std::string path = temp_path("other_scheme.jsonl");
  {
    CheckpointJournal journal(path);
    journal.load();
    bu::AnalysisResult stale;
    stale.status = RunStatus::kConverged;
    stale.utility_value = 0.99;
    stale.honest_baseline = 0.25;
    journal.append(bu::analysis_record(rvi_key, stale, false));
  }
  CheckpointJournal journal(path);
  ASSERT_EQ(journal.load(), 1u);
  bu::AnalysisCheckpoint checkpoint;
  checkpoint.journal = &journal;
  const std::vector<bu::AnalysisResult> results =
      bu::analyze_batch({&job, 1}, options, {}, checkpoint);
  EXPECT_EQ(journal.appended(), 1u);  // solved, journaled under the new key
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].converged());
  EXPECT_GT(results[0].diagnostics.inner_solves, 0);
  EXPECT_EQ(results[0].utility_value,
            bu::analyze(job.params, job.utility, options).utility_value);
  EXPECT_TRUE(journal.contains(key));
}

TEST(DomainCheckpoint, VotingBatchResumesBitIdentically) {
  const std::string path = temp_path("voting_resume.jsonl");
  counter::VoteRuleConfig rule;
  rule.epoch_length = 20;
  rule.adjust_threshold = 0.6;
  rule.veto_threshold = 0.15;
  rule.activation_delay = 2;
  rule.step = 100'000;
  rule.initial_limit = 1'000'000;
  rule.max_limit = 2'000'000;

  std::vector<counter::VotingJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].config.rule = rule;
    jobs[i].config.cohorts = {{0.8, 2'000'000, false},
                              {0.2, 1'000'000, i == 2}};
    jobs[i].epochs = 4;
    jobs[i].seed = 1000 + i;
  }

  std::vector<counter::VotingSimResult> computed;
  {
    CheckpointJournal journal(path);
    journal.load();
    counter::VotingCheckpoint checkpoint;
    checkpoint.journal = &journal;
    computed = counter::run_voting_batch(jobs, {}, checkpoint);
    EXPECT_EQ(journal.appended(), jobs.size());
  }

  CheckpointJournal journal(path);
  EXPECT_EQ(journal.load(), jobs.size());
  counter::VotingCheckpoint checkpoint;
  checkpoint.journal = &journal;
  const std::vector<counter::VotingSimResult> resumed =
      counter::run_voting_batch(jobs, {}, checkpoint);
  EXPECT_EQ(journal.appended(), 0u);  // nothing recomputed
  ASSERT_EQ(resumed.size(), computed.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].final_limit, computed[i].final_limit) << i;
    EXPECT_EQ(resumed[i].blocks, computed[i].blocks) << i;
    EXPECT_EQ(resumed[i].limit_per_epoch, computed[i].limit_per_epoch) << i;
    EXPECT_EQ(resumed[i].increases, computed[i].increases) << i;
  }
}

}  // namespace
