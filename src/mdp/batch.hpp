// Parallel batch solving: fan N independent solves across a thread pool
// while one shared robust::RunControl budget spans the whole batch.
//
// Semantics (docs/PARALLELISM.md has the full discussion):
//
//   * Results are returned in INPUT ORDER and are byte-for-byte independent
//     of the worker-thread count — parallelism only reorders which wall
//     clock slice each item runs in, never what an item computes.
//   * The batch budget is shared cooperatively. Every item started is given
//     the wall clock REMAINING at its start (the same absolute deadline as
//     the batch), so the first item to hit the deadline ends in
//     kBudgetExhausted and every not-yet-started item is skipped with the
//     same status; items already in flight finish on their own partial
//     results. `budget.max_ticks` caps the number of items STARTED.
//   * Cancellation of the caller's token stops pickup of new items
//     (kCancelled) and is observed by in-flight solves through a linked
//     token; the engine's own internal aborts (an item threw) cancel that
//     linked token without firing the caller's.
//   * An item that throws does not tear down the process: the first
//     exception is rethrown after all workers drain, and the remaining
//     items are marked kCancelled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "mdp/compiled_model.hpp"
#include "mdp/ratio.hpp"
#include "mdp/solver_config.hpp"
#include "robust/checkpoint.hpp"
#include "robust/retry.hpp"
#include "robust/run_control.hpp"

namespace bvc::mdp {

/// Engine-level knobs, distinct from SolverConfig::threads (which
/// parallelizes *inside* one value-iteration sweep).
struct BatchConfig {
  /// Worker threads for the batch fan-out. 0 means "all hardware threads";
  /// 1 runs every item inline on the calling thread (no pool is created).
  int threads = 0;
  /// Budget/cancellation shared by the WHOLE batch (see file comment).
  robust::RunControl control;
  /// Cross-cell warm starts: seed each item's first inner solve with the
  /// final bias of the nearest (by job index) already-finished item, via a
  /// WarmStartPool. Neighboring cells of a parameter grid have nearly
  /// identical optimal biases, so the seeded solve starts close to its
  /// fixed point and converges in fewer sweeps; a seed of the wrong model
  /// size is ignored by the solver. OFF by default: with threads >= 2 the
  /// available neighbors depend on completion order, so per-cell sweep
  /// counts (never the converged values, which stay within solver
  /// tolerance of the cold result) are only reproducible at threads == 1.
  bool warm_start = false;
};

/// Aggregate outcome of one batch run.
struct BatchReport {
  /// Worst per-item status (RunStatus is ordered best-to-worst) over the
  /// items this process was responsible for; kConverged for an empty batch.
  /// Excluded items (another shard's cells) never contribute.
  robust::RunStatus status = robust::RunStatus::kConverged;
  std::size_t items = 0;            ///< total items submitted
  std::size_t items_converged = 0;  ///< items with is_success(status)
  std::size_t items_skipped = 0;    ///< items never started (budget/cancel)
  /// Checkpoint/shard accounting (zero without a BatchCheckpoint):
  std::size_t items_resumed = 0;    ///< restored from the journal, not run
  std::size_t items_excluded = 0;   ///< another shard's cells, not run
  /// Warm-start accounting (zero unless BatchConfig::warm_start). Counts
  /// items whose solver actually consumed a neighbor's bias; the rounds
  /// estimate is Σ over warm items of (mean cold inner rounds − that
  /// item's inner rounds), clamped per item at zero — an honest
  /// same-batch comparison, not a measurement against a separate cold run.
  std::size_t items_warm_started = 0;
  std::int64_t rounds_saved_estimate = 0;
  double elapsed_seconds = 0.0;

  [[nodiscard]] bool all_converged() const noexcept {
    return items_converged == items;
  }
};

/// Checkpoint/shard plumbing for run_batch. All callbacks are optional in
/// the sense that a default-constructed BatchCheckpoint (null journal)
/// disables the whole layer; with a journal set, `cell_key`, `restore` and
/// `snapshot` must be provided. Per item i, in pickup order:
///
///   1. `include(i)` false (another shard's cell) -> `exclude(i)` stamps
///      the caller's slot however it likes; the item counts only in
///      items_excluded (never in the worst-status aggregate).
///   2. journal has `cell_key(i)` and `restore(i, record)` returns true ->
///      the cell is resumed: counted via its recorded status, not re-run.
///      A restore returning false (schema drift, truncated record) falls
///      through to a normal solve — a stale journal degrades to recompute,
///      never to wrong results.
///   3. Otherwise the item runs; if its status is_success, `snapshot(i)`
///      is appended to the journal (failures are NOT journaled: a resumed
///      sweep retries them instead of replaying the failure).
///
/// Restores bypass the shared budget on purpose: replaying a finished cell
/// costs microseconds and must not be starved by a deadline that the
/// original (computing) run would have beaten.
struct BatchCheckpoint {
  robust::CheckpointJournal* journal = nullptr;
  std::function<std::string(std::size_t)> cell_key;
  std::function<bool(std::size_t, const robust::CheckpointRecord&)> restore;
  std::function<robust::CheckpointRecord(std::size_t)> snapshot;
  /// Shard filter; null means every cell is owned by this process.
  std::function<bool(std::size_t)> include;
  /// Stamp for excluded cells; null leaves the caller's slot untouched.
  std::function<void(std::size_t)> exclude;

  [[nodiscard]] bool enabled() const noexcept {
    return journal != nullptr && journal->enabled();
  }
  [[nodiscard]] bool sharded() const noexcept { return include != nullptr; }
};

/// Thread-safe pool of finished cells' biases backing cross-cell warm
/// starts (BatchConfig::warm_start). Workers store a converged cell's
/// RatioResult::final_bias under its job index; a starting cell asks for
/// the nearest stored index (smallest |i - j|, lower index on ties) and
/// seeds its solve with that bias. Entries are shared_ptr so a concurrent
/// store never invalidates a bias another worker is reading.
class WarmStartPool {
 public:
  /// Stores `bias` as item `index`'s exportable bias; empty biases are
  /// ignored. Overwrites any previous entry for the index.
  void store(std::size_t index, std::vector<double> bias);

  /// The stored bias nearest to `index`, or null when the pool is empty.
  [[nodiscard]] std::shared_ptr<const std::vector<double>> nearest(
      std::size_t index) const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::size_t, std::shared_ptr<const std::vector<double>>> entries_;
};

/// The BatchReport::rounds_saved_estimate aggregation, shared by the batch
/// wrappers: `items` holds (used_warm_start, inner_rounds) per SUCCESSFUL
/// item. Returns Σ over warm items of max(0, mean cold sweeps − item
/// sweeps), rounded; 0 when either group is empty.
[[nodiscard]] std::int64_t estimate_rounds_saved(
    std::span<const std::pair<bool, std::int64_t>> items) noexcept;

/// One ratio-maximization work item. Exactly one of `model` / `compiled`
/// must be set: `compiled` (e.g. a ModelCache entry — shared, immutable,
/// safe across workers) is solved directly; `model` is compiled on entry by
/// the solver, bit-identically. A raw `model` must outlive the solve_batch
/// call. `config.control` is OVERRIDDEN by the engine with the batch's
/// shared budget (set budgets on BatchConfig::control instead).
struct RatioJob {
  const Model* model = nullptr;
  std::shared_ptr<const CompiledModel> compiled;
  SolverConfig config;
  /// Per-item retry escalation; default disables retries so a batch's cost
  /// stays predictable. Set e.g. robust::RetryPolicy{} for the solo-solve
  /// default behaviour.
  robust::RetryPolicy retry{.max_retries = 0};
};

struct RatioBatchResult {
  /// Input-ordered, one per job. Items skipped by the shared budget carry
  /// status kBudgetExhausted / kCancelled and default-constructed values.
  std::vector<RatioResult> items;
  BatchReport report;
};

/// Solves every job (maximize_ratio_with_retry) across the pool.
[[nodiscard]] RatioBatchResult solve_batch(std::span<const RatioJob> jobs,
                                           const BatchConfig& config = {});

/// Generic engine behind solve_batch, exposed so higher layers (bu::, btc::)
/// can batch their own analysis types without duplicating the scheduling,
/// budget-sharing, and exception plumbing.
///
/// `run_item(i, control)` solves item `i` under the engine-provided control
/// (linked cancel token + remaining wall clock) and returns its status,
/// writing its result wherever the caller keeps it (slot `i` of an output
/// vector — slots are disjoint, so no locking is needed). `skip_item(i,
/// status)` stamps an item that was never started. Both callbacks may run
/// on pool threads but never concurrently for the same `i`.
[[nodiscard]] BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item);

/// run_batch with the crash-safe checkpoint/shard layer (see
/// BatchCheckpoint). With a disabled checkpoint this is exactly the plain
/// overload. The journal outlives the call; the caller flushes/merges it.
[[nodiscard]] BatchReport run_batch(
    std::size_t count, const BatchConfig& config,
    const BatchCheckpoint& checkpoint,
    const std::function<robust::RunStatus(std::size_t,
                                          const robust::RunControl&)>& run_item,
    const std::function<void(std::size_t, robust::RunStatus)>& skip_item);

}  // namespace bvc::mdp
