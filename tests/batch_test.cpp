// The batch-solve engine and the SolverConfig front door: input-order
// determinism across thread counts, shared-budget semantics (deadline,
// tick cap, cancellation), and front-door/knob-block equivalence for every
// solver.
#include "mdp/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/policy_iteration.hpp"
#include "mdp/ratio.hpp"
#include "mdp/solver_config.hpp"
#include "robust/run_control.hpp"

namespace bvc {
namespace {

bu::AttackParams small_params(double alpha, double beta, double gamma) {
  bu::AttackParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.gamma = gamma;
  params.setting = bu::Setting::kNoStickyGate;
  params.ad = 4;  // small state space: these tests solve many models
  return params;
}

std::vector<bu::AttackModel> small_model_set() {
  std::vector<bu::AttackModel> models;
  models.push_back(bu::build_attack_model(
      small_params(0.25, 0.30, 0.45), bu::Utility::kRelativeRevenue));
  models.push_back(bu::build_attack_model(
      small_params(0.15, 0.40, 0.45), bu::Utility::kRelativeRevenue));
  models.push_back(bu::build_attack_model(
      small_params(0.10, 0.45, 0.45), bu::Utility::kRelativeRevenue));
  models.push_back(bu::build_attack_model(
      small_params(0.20, 0.40, 0.40), bu::Utility::kRelativeRevenue));
  return models;
}

std::vector<mdp::RatioJob> jobs_for(const std::vector<bu::AttackModel>& models) {
  std::vector<mdp::RatioJob> jobs;
  for (const bu::AttackModel& model : models) {
    mdp::RatioJob job;
    job.model = &model.model;
    job.config.ratio.tolerance = 1e-6;
    job.config.ratio.upper_bound = 1.0;
    jobs.push_back(job);
  }
  return jobs;
}

// ------------------------------------------------------------ solve_batch --

TEST(SolveBatch, EmptyBatchConverges) {
  const mdp::RatioBatchResult result = mdp::solve_batch({}, {});
  EXPECT_TRUE(result.items.empty());
  EXPECT_EQ(result.report.status, robust::RunStatus::kConverged);
  EXPECT_EQ(result.report.items, 0u);
  EXPECT_TRUE(result.report.all_converged());
}

TEST(SolveBatch, ResultsAreBitIdenticalAcrossThreadCounts) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig serial;
  serial.threads = 1;
  const mdp::RatioBatchResult baseline = mdp::solve_batch(jobs, serial);
  ASSERT_EQ(baseline.items.size(), jobs.size());
  EXPECT_TRUE(baseline.report.all_converged());

  for (const int threads : {2, 8}) {
    mdp::BatchConfig config;
    config.threads = threads;
    const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
    ASSERT_EQ(result.items.size(), jobs.size());
    EXPECT_EQ(result.report.status, baseline.report.status);
    EXPECT_EQ(result.report.items_converged,
              baseline.report.items_converged);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Bitwise: the engine only reorders wall-clock slices, never the
      // arithmetic each item performs.
      EXPECT_EQ(result.items[i].ratio, baseline.items[i].ratio)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(result.items[i].policy, baseline.items[i].policy)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(result.items[i].reward_rate, baseline.items[i].reward_rate);
      EXPECT_EQ(result.items[i].weight_rate, baseline.items[i].weight_rate);
      EXPECT_EQ(result.items[i].status, baseline.items[i].status);
    }
  }
}

TEST(SolveBatch, ExpiredDeadlineSkipsEveryItemWithoutHanging) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig config;
  config.threads = 4;
  config.control.budget = robust::RunBudget::deadline(0.0);
  const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
  ASSERT_EQ(result.items.size(), jobs.size());
  EXPECT_EQ(result.report.status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.report.items_skipped, jobs.size());
  EXPECT_EQ(result.report.items_converged, 0u);
  for (const mdp::RatioResult& item : result.items) {
    EXPECT_EQ(item.status, robust::RunStatus::kBudgetExhausted);
  }
}

TEST(SolveBatch, TickBudgetCapsItemsStarted) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig config;
  config.threads = 2;
  config.control.budget = robust::RunBudget::ticks(2);
  const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
  ASSERT_EQ(result.items.size(), jobs.size());
  // Pickup is index-ordered, so exactly the first two items run.
  EXPECT_TRUE(result.items[0].converged());
  EXPECT_TRUE(result.items[1].converged());
  EXPECT_EQ(result.items[2].status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.items[3].status, robust::RunStatus::kBudgetExhausted);
  EXPECT_EQ(result.report.items_skipped, 2u);
}

TEST(SolveBatch, PreCancelledTokenSkipsEveryItem) {
  const std::vector<bu::AttackModel> models = small_model_set();
  const std::vector<mdp::RatioJob> jobs = jobs_for(models);

  mdp::BatchConfig config;
  config.threads = 4;
  config.control.cancel = robust::CancelToken::make();
  config.control.cancel.request_cancel();
  const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
  EXPECT_EQ(result.report.status, robust::RunStatus::kCancelled);
  EXPECT_EQ(result.report.items_skipped, jobs.size());
  for (const mdp::RatioResult& item : result.items) {
    EXPECT_EQ(item.status, robust::RunStatus::kCancelled);
  }
}

// -------------------------------------------------------------- run_batch --

TEST(RunBatch, PropagatesFirstItemException) {
  mdp::BatchConfig config;
  config.threads = 2;
  std::vector<robust::RunStatus> statuses(8, robust::RunStatus::kConverged);
  EXPECT_THROW(
      (void)mdp::run_batch(
          8, config,
          [&](std::size_t i, const robust::RunControl&) {
            if (i == 1) {
              throw std::runtime_error("item 1 failed");
            }
            return robust::RunStatus::kConverged;
          },
          [&](std::size_t i, robust::RunStatus status) {
            statuses[i] = status;
          }),
      std::runtime_error);
}

TEST(RunBatch, SharedDeadlineBoundsInFlightItems) {
  // Items that are already running when the deadline passes must receive a
  // finite remaining allowance and report kBudgetExhausted themselves.
  mdp::BatchConfig config;
  config.threads = 1;
  config.control.budget = robust::RunBudget::deadline(1e-6);
  std::vector<robust::RunStatus> statuses(3, robust::RunStatus::kConverged);
  const mdp::BatchReport report = mdp::run_batch(
      3, config,
      [&](std::size_t i, const robust::RunControl& control) {
        EXPECT_LT(control.budget.wall_clock_seconds, 1.0);
        robust::RunGuard guard(control);
        while (true) {
          if (const auto stop = guard.tick()) {
            statuses[i] = *stop;
            return *stop;
          }
        }
      },
      [&](std::size_t i, robust::RunStatus status) { statuses[i] = status; });
  EXPECT_EQ(report.status, robust::RunStatus::kBudgetExhausted);
  for (const robust::RunStatus status : statuses) {
    EXPECT_EQ(status, robust::RunStatus::kBudgetExhausted);
  }
}

// -------------------------------------------------- linked cancel tokens --

TEST(CancelToken, LinkedChildSeesParentButNotViceVersa) {
  const robust::CancelToken parent = robust::CancelToken::make();
  const robust::CancelToken child = robust::CancelToken::make_linked(parent);
  EXPECT_FALSE(child.cancel_requested());

  child.request_cancel();
  EXPECT_TRUE(child.cancel_requested());
  EXPECT_FALSE(parent.cancel_requested());

  const robust::CancelToken sibling =
      robust::CancelToken::make_linked(parent);
  EXPECT_FALSE(sibling.cancel_requested());
  parent.request_cancel();
  EXPECT_TRUE(sibling.cancel_requested());
  EXPECT_TRUE(parent.cancel_requested());
}

// ------------------------------------------------- bu/btc batch wrappers --

TEST(AnalyzeBatch, MatchesSerialAnalyzeForEveryThreadCount) {
  std::vector<bu::AnalysisJob> jobs = {
      {small_params(0.25, 0.30, 0.45), bu::Utility::kRelativeRevenue},
      {small_params(0.15, 0.40, 0.45), bu::Utility::kRelativeRevenue},
      {small_params(0.10, 0.45, 0.45), bu::Utility::kOrphaning},
  };
  std::vector<bu::AnalysisResult> serial;
  for (const bu::AnalysisJob& job : jobs) {
    serial.push_back(bu::analyze(job.params, job.utility));
  }

  for (const int threads : {1, 2, 8}) {
    mdp::BatchConfig config;
    config.threads = threads;
    const std::vector<bu::AnalysisResult> batch =
        bu::analyze_batch(jobs, {}, config);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(batch[i].utility_value, serial[i].utility_value)
          << "item " << i << " threads " << threads;
      EXPECT_EQ(batch[i].policy, serial[i].policy);
      EXPECT_EQ(batch[i].status, serial[i].status);
      EXPECT_EQ(batch[i].honest_baseline, serial[i].honest_baseline);
    }
  }
}

// --------------------------------------------- SolverConfig front door --

TEST(SolverConfig, FrontDoorMatchesLegacyOverloads) {
  const bu::AttackModel attack = bu::build_attack_model(
      small_params(0.25, 0.30, 0.45), bu::Utility::kRelativeRevenue);
  const mdp::Model& model = attack.model;

  mdp::SolverConfig config;
  config.average_reward.tolerance = 1e-9;
  config.ratio.tolerance = 1e-6;
  config.policy_iteration.max_improvements = 50;

  {
    const mdp::GainResult front = mdp::maximize_average_reward(model, config);
    const mdp::GainResult legacy =
        mdp::maximize_average_reward(model, config.average_reward_options());
    EXPECT_EQ(front.gain, legacy.gain);
    EXPECT_EQ(front.policy, legacy.policy);
    EXPECT_EQ(front.iterations, legacy.iterations);
  }
  {
    const mdp::PolicyIterationResult front =
        mdp::policy_iteration(model, config);
    const mdp::PolicyIterationResult legacy =
        mdp::policy_iteration(model, config.policy_iteration_options());
    EXPECT_EQ(front.gain, legacy.gain);
    EXPECT_EQ(front.policy, legacy.policy);
    EXPECT_EQ(front.improvements(), legacy.improvements());
  }
  {
    const mdp::RatioResult front = mdp::maximize_ratio(model, config);
    const mdp::RatioResult legacy =
        mdp::maximize_ratio(model, config.ratio_options());
    EXPECT_EQ(front.ratio, legacy.ratio);
    EXPECT_EQ(front.policy, legacy.policy);
    EXPECT_EQ(front.status, legacy.status);
  }
}

TEST(SolverConfig, ControlStampsTheLoweredOptions) {
  mdp::SolverConfig config;
  config.control.budget = robust::RunBudget::ticks(123);

  const mdp::AverageRewardKnobs avg = config.average_reward_options();
  EXPECT_EQ(avg.control.budget.max_ticks, 123);

  const mdp::RatioKnobs ratio = config.ratio_options();
  EXPECT_EQ(ratio.control.budget.max_ticks, 123);
  // The outer guard owns the budget; inner solves get the remaining wall
  // clock stamped at call time, not a second copy of the tick cap.
  EXPECT_TRUE(ratio.inner.control.budget.unlimited());

  EXPECT_EQ(config.policy_iteration_options().control.budget.max_ticks, 123);
}

// ------------------------------------------------ cross-cell warm starts --

bu::AttackModel small_attack_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kNoStickyGate;
  params.ad = 4;  // small grid keeps the test fast
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

TEST(WarmStart, SeedNeverMovesTheFixedPoint) {
  const bu::AttackModel attack = small_attack_model();
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(attack.model);

  mdp::RatioKnobs knobs;
  knobs.upper_bound = 1.0;
  mdp::RatioResult cold = mdp::maximize_ratio(compiled, knobs);
  ASSERT_TRUE(cold.converged());
  ASSERT_FALSE(cold.used_warm_start);
  ASSERT_FALSE(cold.final_bias.empty());

  knobs.warm_start_bias = &cold.final_bias;
  const mdp::RatioResult warm = mdp::maximize_ratio(compiled, knobs);
  ASSERT_TRUE(warm.converged());
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_NEAR(cold.ratio, warm.ratio, 10.0 * knobs.tolerance);
  EXPECT_EQ(cold.policy, warm.policy);
  // Seeding with the converged bias cannot make the solve work harder.
  EXPECT_LE(warm.diagnostics.inner_rounds, cold.diagnostics.inner_rounds);
}

TEST(WarmStart, MismatchedSeedSizeIsIgnored) {
  const bu::AttackModel attack = small_attack_model();
  const std::vector<double> wrong_size(3, 1.0);
  mdp::RatioKnobs knobs;
  knobs.warm_start_bias = &wrong_size;
  const mdp::RatioResult result = mdp::maximize_ratio(attack.model, knobs);
  ASSERT_TRUE(result.converged());
  EXPECT_FALSE(result.used_warm_start);
}

TEST(WarmStart, PoolNearestPrefersLowerIndexOnTies) {
  mdp::WarmStartPool pool;
  EXPECT_EQ(pool.nearest(0), nullptr);
  pool.store(2, {2.0});
  pool.store(10, {10.0});
  pool.store(99, {});  // empty biases are ignored
  EXPECT_EQ(pool.size(), 2u);

  EXPECT_EQ(pool.nearest(0)->front(), 2.0);
  EXPECT_EQ(pool.nearest(5)->front(), 2.0);
  EXPECT_EQ(pool.nearest(6)->front(), 2.0);  // tie |6-2| == |10-6|
  EXPECT_EQ(pool.nearest(7)->front(), 10.0);
  EXPECT_EQ(pool.nearest(10)->front(), 10.0);
  EXPECT_EQ(pool.nearest(500)->front(), 10.0);

  pool.store(10, {11.0});  // overwrite
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.nearest(10)->front(), 11.0);
}

TEST(WarmStart, EstimateSweepsSaved) {
  using Obs = std::pair<bool, std::int64_t>;
  const std::vector<Obs> none;
  EXPECT_EQ(mdp::estimate_rounds_saved(none), 0);

  // mean cold = 15; the warm item at 5 saved ~10; a warm item slower than
  // the cold mean contributes zero (clamped), not a negative.
  const std::vector<Obs> mixed = {{false, 10}, {false, 20}, {true, 5}};
  EXPECT_EQ(mdp::estimate_rounds_saved(mixed), 10);
  const std::vector<Obs> slow_warm = {{false, 10}, {true, 50}};
  EXPECT_EQ(mdp::estimate_rounds_saved(slow_warm), 0);
  const std::vector<Obs> all_warm = {{true, 5}, {true, 6}};
  EXPECT_EQ(mdp::estimate_rounds_saved(all_warm), 0);  // no cold baseline
}

TEST(WarmStart, BatchCountsSeededCellsAtOneThread) {
  // A small alpha sweep: neighboring cells have similar biases. With
  // threads == 1 cells run in index order, so every cell after the first
  // is seeded by a finished neighbor.
  std::vector<bu::AnalysisJob> jobs;
  for (const double alpha : {0.15, 0.20, 0.25}) {
    bu::AttackParams params;
    params.alpha = alpha;
    params.beta = 0.30;
    params.gamma = 1.0 - alpha - 0.30;
    params.setting = bu::Setting::kNoStickyGate;
    params.ad = 4;
    jobs.push_back({params, bu::Utility::kRelativeRevenue});
  }

  mdp::BatchConfig batch;
  batch.threads = 1;
  batch.warm_start = true;
  mdp::BatchReport report;
  const std::vector<bu::AnalysisResult> warm_results =
      bu::analyze_batch(jobs, {}, batch, {}, &report);
  ASSERT_EQ(warm_results.size(), jobs.size());
  for (const bu::AnalysisResult& cell : warm_results) {
    ASSERT_TRUE(cell.converged());
    EXPECT_TRUE(cell.final_bias.empty());  // moved into the pool, kept lean
  }
  EXPECT_FALSE(warm_results[0].used_warm_start);
  EXPECT_TRUE(warm_results[1].used_warm_start);
  EXPECT_TRUE(warm_results[2].used_warm_start);
  EXPECT_EQ(report.items_warm_started, 2u);
  EXPECT_GE(report.rounds_saved_estimate, 0);

  // The warm values equal the cold values within solver tolerance.
  mdp::BatchConfig cold_batch;
  cold_batch.threads = 1;
  const std::vector<bu::AnalysisResult> cold_results =
      bu::analyze_batch(jobs, {}, cold_batch);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_FALSE(cold_results[i].used_warm_start);
    EXPECT_NEAR(cold_results[i].utility_value, warm_results[i].utility_value,
                1e-4);
  }
}

}  // namespace
}  // namespace bvc
