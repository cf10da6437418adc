#include "mdp/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace bvc::mdp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void WarmStartPool::store(std::size_t index, std::vector<double> bias) {
  if (bias.empty()) {
    return;
  }
  auto entry = std::make_shared<const std::vector<double>>(std::move(bias));
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[index] = std::move(entry);
}

std::shared_ptr<const std::vector<double>> WarmStartPool::nearest(
    std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.empty()) {
    return nullptr;
  }
  const auto above = entries_.lower_bound(index);
  if (above == entries_.begin()) {
    return above->second;
  }
  const auto below = std::prev(above);
  if (above == entries_.end()) {
    return below->second;
  }
  // Ties go to the lower index (prefer the already-swept side of a grid).
  return (above->first - index) < (index - below->first) ? above->second
                                                         : below->second;
}

std::size_t WarmStartPool::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::int64_t estimate_rounds_saved(
    std::span<const std::pair<bool, std::int64_t>> items) noexcept {
  std::int64_t cold_rounds = 0;
  std::int64_t cold_items = 0;
  for (const auto& [warm, rounds] : items) {
    if (!warm) {
      cold_rounds += rounds;
      ++cold_items;
    }
  }
  if (cold_items == 0) {
    return 0;
  }
  const double mean_cold = static_cast<double>(cold_rounds) /
                           static_cast<double>(cold_items);
  double saved = 0.0;
  for (const auto& [warm, rounds] : items) {
    if (warm) {
      saved += std::max(0.0, mean_cold - static_cast<double>(rounds));
    }
  }
  return static_cast<std::int64_t>(saved + 0.5);
}

BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item) {
  return run_batch(count, config, BatchCheckpoint{}, run_item, skip_item);
}

BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const BatchCheckpoint& checkpoint,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item) {
  BVC_REQUIRE(run_item != nullptr, "run_batch requires a run_item callback");
  BVC_REQUIRE(skip_item != nullptr, "run_batch requires a skip_item callback");
  if (checkpoint.enabled()) {
    BVC_REQUIRE(checkpoint.cell_key != nullptr && checkpoint.restore != nullptr &&
                    checkpoint.snapshot != nullptr,
                "a journaling BatchCheckpoint needs cell_key/restore/snapshot");
  }

  const int threads =
      config.threads == 0
          ? util::ThreadPool::hardware_threads()
          : std::max(1, config.threads);
  const Clock::time_point start = Clock::now();
  const double allowance = config.control.budget.wall_clock_seconds;
  const std::int64_t max_started = config.control.budget.max_ticks;

  // Internal aborts (an item threw) cancel this linked token so in-flight
  // siblings stop early; the caller's token is left untouched.
  const robust::CancelToken abort_token =
      robust::CancelToken::make_linked(config.control.cancel);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> converged{0};
  std::atomic<std::size_t> skipped{0};
  std::atomic<std::size_t> resumed{0};
  std::atomic<std::size_t> excluded{0};
  std::atomic<std::uint8_t> worst{
      static_cast<std::uint8_t>(robust::RunStatus::kConverged)};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto note_status = [&](robust::RunStatus status) {
    if (robust::is_success(status)) {
      converged.fetch_add(1, std::memory_order_relaxed);
    }
    // RunStatus is ordered best-to-worst, so the aggregate is a max.
    std::uint8_t raw = static_cast<std::uint8_t>(status);
    std::uint8_t seen = worst.load(std::memory_order_relaxed);
    while (raw > seen &&
           !worst.compare_exchange_weak(seen, raw,
                                        std::memory_order_relaxed)) {
    }
  };

  // Each worker (and, for threads == 1, the calling thread) drains the
  // shared index counter. Pickup re-checks cancellation and the shared
  // budget so one expired deadline skips every remaining item.
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      // Shard exclusion first: another process owns this cell; it neither
      // runs, resumes, nor burns this shard's budget.
      if (checkpoint.include != nullptr && !checkpoint.include(i)) {
        if (checkpoint.exclude != nullptr) {
          checkpoint.exclude(i);
        }
        excluded.fetch_add(1, std::memory_order_relaxed);
        continue;
      }

      // Resume next, before any budget check: replaying a finished cell
      // from the journal costs microseconds and must not be starved by a
      // deadline the original run would have beaten.
      if (checkpoint.enabled()) {
        const std::optional<robust::CheckpointRecord> record =
            checkpoint.journal->lookup(checkpoint.cell_key(i));
        if (record.has_value() && checkpoint.restore(i, *record)) {
          note_status(record->status);
          resumed.fetch_add(1, std::memory_order_relaxed);
          if (obs::metrics_enabled()) {
            static obs::Counter& resumed_items =
                obs::MetricsRegistry::global().counter(
                    "mdp.batch.items_resumed");
            resumed_items.add();
          }
          continue;
        }
      }

      std::optional<robust::RunStatus> skip;
      if (abort_token.cancel_requested()) {
        skip = robust::RunStatus::kCancelled;
      } else if (seconds_since(start) >= allowance ||
                 static_cast<std::int64_t>(i) >= max_started) {
        skip = robust::RunStatus::kBudgetExhausted;
      }
      if (skip) {
        skip_item(i, *skip);
        skipped.fetch_add(1, std::memory_order_relaxed);
        note_status(*skip);
        if (obs::metrics_enabled()) {
          static obs::Counter& skipped_items =
              obs::MetricsRegistry::global().counter("mdp.batch.items_skipped");
          skipped_items.add();
        }
        continue;
      }

      // Queue wait: how long this item sat behind earlier items before a
      // worker picked it up, measured from the batch's start. The gauge
      // holds the worst wait seen, i.e. the batch's scheduling backlog.
      if (obs::metrics_enabled()) {
        static obs::Gauge& queue_wait = obs::MetricsRegistry::global().gauge(
            "mdp.batch.max_queue_wait_seconds");
        const double waited = seconds_since(start);
        if (waited > queue_wait.value()) {
          queue_wait.set(waited);
        }
      }

      robust::RunControl item_control;
      item_control.cancel = abort_token;
      if (allowance != std::numeric_limits<double>::infinity()) {
        // Same absolute deadline as the batch: the item gets whatever wall
        // clock remains, so no item can outlive the shared budget.
        item_control.budget = robust::RunBudget::deadline(
            std::max(0.0, allowance - seconds_since(start)));
      }
      try {
        obs::Span span("batch.item", "batch");
        span.arg("index", static_cast<std::int64_t>(i));
        const robust::RunStatus status = run_item(i, item_control);
        note_status(status);
        // Only completed cells are journaled: a resumed sweep retries
        // failures instead of replaying them.
        if (checkpoint.enabled() && robust::is_success(status)) {
          checkpoint.journal->append(checkpoint.snapshot(i));
        }
        if (obs::metrics_enabled()) {
          static obs::Counter& items =
              obs::MetricsRegistry::global().counter("mdp.batch.items_run");
          items.add();
        }
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        abort_token.request_cancel();
        skip_item(i, robust::RunStatus::kCancelled);
        note_status(robust::RunStatus::kCancelled);
      }
    }
  };

  if (threads == 1 || count <= 1) {
    drain();
  } else {
    const int workers =
        static_cast<int>(std::min<std::size_t>(threads, count));
    util::ThreadPool pool(workers);
    for (int w = 0; w < workers; ++w) {
      pool.submit(drain);
    }
    pool.wait_idle();
  }

  if (first_error) {
    std::rethrow_exception(first_error);
  }

  BatchReport report;
  report.status = count == 0
                      ? robust::RunStatus::kConverged
                      : static_cast<robust::RunStatus>(
                            worst.load(std::memory_order_relaxed));
  report.items = count;
  report.items_converged = converged.load(std::memory_order_relaxed);
  report.items_skipped = skipped.load(std::memory_order_relaxed);
  report.items_resumed = resumed.load(std::memory_order_relaxed);
  report.items_excluded = excluded.load(std::memory_order_relaxed);
  report.elapsed_seconds = seconds_since(start);
  return report;
}

RatioBatchResult solve_batch(std::span<const RatioJob> jobs,
                             const BatchConfig& config) {
  for (const RatioJob& job : jobs) {
    BVC_REQUIRE(job.model != nullptr || job.compiled != nullptr,
                "RatioJob needs a model or a compiled model");
  }

  RatioBatchResult out;
  out.items.resize(jobs.size());
  std::optional<WarmStartPool> warm_pool;
  if (config.warm_start) {
    warm_pool.emplace();
  }
  out.report = run_batch(
      jobs.size(), config,
      [&](std::size_t i, const robust::RunControl& control) {
        SolverConfig item_config = jobs[i].config;
        item_config.control = control;
        // The seed shared_ptr must outlive the solve: the pool may replace
        // the entry concurrently, but our reference keeps the bias alive.
        std::shared_ptr<const std::vector<double>> seed;
        if (warm_pool) {
          seed = warm_pool->nearest(i);
          if (seed != nullptr) {
            item_config.warm_start_bias = seed.get();
          }
        }
        out.items[i] =
            jobs[i].compiled != nullptr
                ? maximize_ratio_with_retry(*jobs[i].compiled, item_config,
                                            jobs[i].retry)
                : maximize_ratio_with_retry(*jobs[i].model, item_config,
                                            jobs[i].retry);
        // Only successful cells seed their neighbors: a budget-truncated
        // bias is a poor (though harmless) seed.
        if (warm_pool && robust::is_success(out.items[i].status)) {
          warm_pool->store(i, out.items[i].final_bias);
        }
        return out.items[i].status;
      },
      [&](std::size_t i, robust::RunStatus status) {
        out.items[i] = RatioResult{};
        out.items[i].status = status;
      });
  if (warm_pool) {
    std::vector<std::pair<bool, std::int64_t>> round_obs;
    round_obs.reserve(out.items.size());
    for (const RatioResult& item : out.items) {
      if (robust::is_success(item.status)) {
        if (item.used_warm_start) {
          ++out.report.items_warm_started;
        }
        round_obs.emplace_back(item.used_warm_start,
                               item.diagnostics.inner_rounds);
      }
    }
    out.report.rounds_saved_estimate = estimate_rounds_saved(round_obs);
    if (obs::metrics_enabled()) {
      static obs::Counter& warm_items = obs::MetricsRegistry::global().counter(
          "mdp.batch.items_warm_started");
      warm_items.add(
          static_cast<std::uint64_t>(out.report.items_warm_started));
    }
  }
  return out;
}

}  // namespace bvc::mdp
