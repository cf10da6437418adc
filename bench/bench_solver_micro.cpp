// google-benchmark microbenchmarks of the numerical core: model builds,
// ratio (Dinkelbach) solves, batch fan-out, and simulator throughput. These
// guard the performance assumptions behind the table benches (a setting-2
// Dinkelbach solve must stay ~1 s or the full grids become impractical).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "bu/attack_analysis.hpp"
#include "btc/selfish_mining.hpp"
#include "mdp/batch.hpp"
#include "sim/attack_scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace bvc;

bu::AttackParams grid_params(bu::Setting setting) {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = setting;
  return params;
}

void BM_BuildAttackModelSetting1(benchmark::State& state) {
  const bu::AttackParams params = grid_params(bu::Setting::kNoStickyGate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::build_attack_model(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_BuildAttackModelSetting1);

void BM_BuildAttackModelSetting2(benchmark::State& state) {
  const bu::AttackParams params = grid_params(bu::Setting::kStickyGate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::build_attack_model(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_BuildAttackModelSetting2);

// Batch of eight Table-3-style setting-1 solves fanned across the batch
// engine; Arg is BatchConfig::threads (1 = serial baseline for the speedup
// ratio). UseRealTime because the work happens on pool threads.
void BM_BatchSolveTable3(benchmark::State& state) {
  struct Grid {
    int b;
    int g;
  };
  const std::vector<Grid> grids = {{2, 1}, {1, 1}};
  const std::vector<double> alphas = {0.05, 0.10, 0.15, 0.20};
  std::vector<bu::AttackModel> models;
  for (const Grid& grid : grids) {
    for (const double alpha : alphas) {
      bu::AttackParams params;
      const double rest = 1.0 - alpha;
      params.alpha = alpha;
      params.beta = rest * grid.b / (grid.b + grid.g);
      params.gamma = rest - params.beta;
      params.setting = bu::Setting::kNoStickyGate;
      models.push_back(
          bu::build_attack_model(params, bu::Utility::kAbsoluteReward));
    }
  }
  std::vector<mdp::RatioJob> jobs;
  for (const bu::AttackModel& model : models) {
    mdp::RatioJob job;
    job.model = &model.model;
    job.config.ratio.tolerance = 1e-5;
    job.config.ratio.upper_bound =
        1.0 + model.params.rds * static_cast<double>(model.params.max_ad());
    job.config.average_reward.tolerance = 2e-7;
    jobs.push_back(job);
  }
  mdp::BatchConfig config;
  config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const mdp::RatioBatchResult result = mdp::solve_batch(jobs, config);
    benchmark::DoNotOptimize(result.report.items_converged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_BatchSolveTable3)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

void BM_SolveRelativeRevenueSetting1(benchmark::State& state) {
  const bu::AttackParams params = grid_params(bu::Setting::kNoStickyGate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::analyze(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_SolveRelativeRevenueSetting1);

void BM_SolveRelativeRevenueSetting2(benchmark::State& state) {
  const bu::AttackParams params = grid_params(bu::Setting::kStickyGate);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::analyze(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_SolveRelativeRevenueSetting2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_SolveSelfishMining(benchmark::State& state) {
  btc::SmParams params;
  params.alpha = 0.35;
  params.gamma_tie = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        btc::analyze_sm(params, bu::Utility::kRelativeRevenue));
  }
}
BENCHMARK(BM_SolveSelfishMining);

void BM_ScenarioSimThroughput(benchmark::State& state) {
  const bu::AttackModel model = bu::build_attack_model(
      grid_params(bu::Setting::kNoStickyGate), bu::Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);
  bench::require_solved(analysis.status, "scenario-sim setup solve",
                        /*fatal=*/false);
  sim::AttackScenarioSim simulator(model, sim::ScenarioOptions{});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator.run(analysis.policy, 100'000, rng));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_ScenarioSimThroughput)->Unit(benchmark::kMillisecond);

void BM_PolicyRollout(benchmark::State& state) {
  const bu::AttackModel model = bu::build_attack_model(
      grid_params(bu::Setting::kNoStickyGate), bu::Utility::kRelativeRevenue);
  const bu::AnalysisResult analysis = bu::analyze(model);
  bench::require_solved(analysis.status, "rollout setup solve",
                        /*fatal=*/false);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bu::rollout_policy(model, analysis.policy, 100'000, rng));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_PolicyRollout)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bvc::util::ArgParser parser(
      "bench_solver_micro",
      "google-benchmark microbenchmarks of the numerical core");
  bvc::bench::add_budget_args(parser);
  bvc::bench::add_obs_args(parser);
  // Everything else belongs to google-benchmark (--benchmark_filter etc.).
  parser.allow_prefix("benchmark_").allow_prefix("v");
  (void)parser.parse(argc, argv);

  // The session must outlive the benchmark run; constructed from the full
  // argv so the manifest records every flag.
  bvc::bench::ObsSession obs(argc, argv);
  // Strip the shared obs flags before google-benchmark sees argv — it
  // rejects arguments it does not recognize.
  const auto is_obs_flag = [](std::string_view arg) {
    for (const std::string_view prefix :
         {"--trace-out", "--trace-jsonl", "--metrics-out", "--manifest-out"}) {
      if (arg == prefix || (arg.size() > prefix.size() &&
                            arg.substr(0, prefix.size()) == prefix &&
                            arg[prefix.size()] == '=')) {
        return true;
      }
    }
    return false;
  };
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (is_obs_flag(argv[i])) {
      // `--flag value` form: swallow the value too.
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc &&
          argv[i + 1][0] != '-') {
        ++i;
      }
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
