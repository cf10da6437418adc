// High-level solving and inspection of the fork-attack MDP: one call per
// cell of the paper's Tables 2–4.
#pragma once

#include <string>
#include <vector>

#include "bu/attack_model.hpp"
#include "mdp/batch.hpp"
#include "mdp/ratio.hpp"
#include "robust/retry.hpp"
#include "robust/run_control.hpp"
#include "util/rng.hpp"

namespace bvc::bu {

struct AnalysisOptions {
  /// Accuracy of the reported utility value. The paper solves to 1e-4; we
  /// default one decade tighter.
  double tolerance = 1e-5;
  /// Inner-solve knobs; only `tolerance` is read — the width every inner
  /// policy evaluation's Odoni bracket must stay under.
  mdp::AverageRewardKnobs inner = [] {
    mdp::AverageRewardKnobs o;
    o.tolerance = 2e-7;
    return o;
  }();
  /// Wall-clock/iteration budget and cancellation for the whole analysis
  /// (all retry attempts included).
  robust::RunControl control;
  /// Escalation for stalled solves; set max_retries = 0 to disable.
  robust::RetryPolicy retry;
  /// Optional warm-start bias (borrowed; see RatioKnobs::warm_start_bias).
  /// Seeds the first inner solve when sized to the model's state count;
  /// ignored otherwise. analyze_batch fills this per cell from its
  /// WarmStartPool when BatchConfig::warm_start is on.
  const std::vector<double>* warm_start_bias = nullptr;
};

/// The base report carries how the underlying ratio solve ended (status,
/// iterations, wall clock, diagnostics). Any status other than kConverged
/// means `utility_value` is a best-effort lower bound, not a certified
/// optimum — table-reproduction callers must check converged().
struct AnalysisResult : mdp::SolveReport {
  double utility_value = 0.0;  ///< max u over the strategy space
  /// The honest reference: u1 = u2 = alpha for a compliant miner in a
  /// healthy network; u3 has reference 0 (no compliant blocks orphaned).
  double honest_baseline = 0.0;
  /// Whether the optimum exceeds the honest baseline beyond tolerance —
  /// i.e. whether deviating from "always mine on Chain 1" pays.
  bool attack_beats_honest = false;
  mdp::Policy policy;          ///< optimal policy (local action indices)
  double reward_rate = 0.0;    ///< numerator rate of the optimal policy
  double weight_rate = 0.0;    ///< denominator rate of the optimal policy
  /// Whether AnalysisOptions::warm_start_bias actually seeded the solve.
  bool used_warm_start = false;
  /// Last inner bias — the seed offered to neighboring cells. analyze()
  /// leaves it populated; analyze_batch moves it into its WarmStartPool
  /// (or drops it) so sweep results stay lean. Never journaled: a resumed
  /// cell contributes no seed.
  std::vector<double> final_bias;

  /// Outer ratio iterations (the base report's iteration count).
  [[nodiscard]] int solver_iterations() const noexcept { return iterations; }
};

/// Solves for Alice's optimal utility within the strategy space.
[[nodiscard]] AnalysisResult analyze(const AttackParams& params,
                                     Utility utility,
                                     const AnalysisOptions& options = {});

/// As analyze(), but reuses an already-built model (the ratio solver does
/// several average-reward solves; building once helps sweeps).
[[nodiscard]] AnalysisResult analyze(const AttackModel& model,
                                     const AnalysisOptions& options = {});

/// One cell of a table sweep for analyze_batch: the model is built inside
/// the worker, so jobs are cheap to enumerate up front.
struct AnalysisJob {
  AttackParams params;
  Utility utility = Utility::kRelativeRevenue;
};

/// Canonical checkpoint key of one sweep cell: the ModelCache key of the
/// effective (params, utility) model plus every solver knob that shapes the
/// reported value — two cells share a journal entry iff they are guaranteed
/// to produce identical results.
[[nodiscard]] std::string analysis_job_key(const AnalysisJob& job,
                                           const AnalysisOptions& options);

/// Crash-safe sweep plumbing for analyze_batch (see mdp::BatchCheckpoint
/// for the cell lifecycle). Cells excluded by the shard filter get
/// default-constructed results stamped kConverged: a shard worker's own
/// table rendering is scratch (the supervisor redirects it to a log file);
/// only its journal is merged.
struct AnalysisCheckpoint {
  robust::CheckpointJournal* journal = nullptr;
  /// Shard filter over the job index; null = every cell owned.
  std::function<bool(std::size_t)> include;
  /// Persist the optimal policy per cell so resumed consumers can replay it
  /// (the ablation scenario simulations need this; the plain tables do not
  /// — policies dominate journal size, so this is opt-in).
  bool persist_policy = false;
};

/// Batched analyze(): solves every job across mdp::run_batch's thread pool
/// under the shared budget in `batch.control` (per-item budgets in
/// `options.control` are ignored — the engine stamps each item with the
/// batch's remaining allowance). Results are input-ordered and independent
/// of the thread count; skipped items carry kBudgetExhausted / kCancelled.
/// With a checkpoint journal, completed cells are journaled as they finish
/// and journaled cells are restored instead of re-solved.
/// With `batch.warm_start`, each cell's first inner solve is seeded by the
/// nearest finished neighbor's bias (mdp::WarmStartPool); enumerate jobs so
/// adjacent indices are adjacent grid cells to get the most out of it. The
/// optional `report` out-param receives the engine's BatchReport including
/// the warm-start counters (items_warm_started, rounds_saved_estimate).
[[nodiscard]] std::vector<AnalysisResult> analyze_batch(
    std::span<const AnalysisJob> jobs, const AnalysisOptions& options = {},
    const mdp::BatchConfig& batch = {},
    const AnalysisCheckpoint& checkpoint = {},
    mdp::BatchReport* report = nullptr);

/// Journal (de)serialization of one analysis cell, exposed for the resume
/// tests. restore returns false on a record missing required fields (schema
/// drift) — the caller then recomputes the cell.
[[nodiscard]] robust::CheckpointRecord analysis_record(
    const std::string& key, const AnalysisResult& result, bool persist_policy);
[[nodiscard]] bool analysis_restore(const robust::CheckpointRecord& record,
                                    AnalysisResult& result);

/// Convenience wrappers, one per table.
[[nodiscard]] double max_relative_revenue(double alpha, double beta,
                                          double gamma, Setting setting,
                                          unsigned ad = 6);
[[nodiscard]] double max_absolute_reward(double alpha, double beta,
                                         double gamma, Setting setting,
                                         unsigned ad = 6);
[[nodiscard]] double max_orphaning(double alpha, double beta, double gamma,
                                   Setting setting, unsigned ad = 6);

/// The action the policy chooses in `state` (resolving local indices).
[[nodiscard]] Action policy_action(const AttackModel& model,
                                   const mdp::Policy& policy,
                                   const AttackState& state);

/// Human-readable policy dump for the phase-1 fork states (and the base
/// state), e.g. for the quickstart example.
[[nodiscard]] std::string describe_policy(const AttackModel& model,
                                          const mdp::Policy& policy);

/// Outcome of rolling the MDP dynamics forward under a fixed policy with
/// pseudo-random events — a direct Monte-Carlo check of the analytic rates.
struct RolloutResult {
  Deltas totals;
  std::uint64_t steps = 0;
  /// Utility estimate: accumulated numerator / accumulated denominator.
  double utility_estimate = 0.0;
};

/// Simulates `steps` events from the base state under `policy`.
[[nodiscard]] RolloutResult rollout_policy(const AttackModel& model,
                                           const mdp::Policy& policy,
                                           std::uint64_t steps, Rng& rng);

}  // namespace bvc::bu
