// google-benchmark microbenchmarks of the numerical core: model builds,
// relative value iteration, ratio (Dinkelbach) solves, and simulator
// throughput. These guard the performance assumptions behind the table
// benches (a setting-2 Dinkelbach solve must stay ~1 s or the full grids
// become impractical).
//
// `--mode=kernel` bypasses google-benchmark and runs the AoS-vs-SoA sweep
// kernel comparison instead, writing BENCH_kernel.json (see run_kernel_mode
// below).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "bu/attack_analysis.hpp"
#include "btc/selfish_mining.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/batch.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/kernel.hpp"
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

void BM_RviSweepSetting2(benchmark::State& state) {
  const bu::AttackModel model = bu::build_attack_model(
      grid_params(bu::Setting::kStickyGate), bu::Utility::kRelativeRevenue);
  mdp::SolverConfig config;
  config.average_reward.max_sweeps = static_cast<int>(state.range(0));
  config.average_reward.tolerance = 1e-30;  // force exactly max_sweeps sweeps
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mdp::maximize_average_reward(model.model, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          model.model.num_states());
}
BENCHMARK(BM_RviSweepSetting2)->Arg(10);

// The same fixed sweep count with the chunked parallel sweep enabled:
// Arg is the thread count (1 = legacy serial baseline). Thread-count
// invariance of the results themselves is asserted in tests/batch_test.cpp;
// this curve shows the wall-clock scaling on multi-core hardware.
void BM_RviParallelSweepSetting2(benchmark::State& state) {
  const bu::AttackModel model = bu::build_attack_model(
      grid_params(bu::Setting::kStickyGate), bu::Utility::kRelativeRevenue);
  mdp::SolverConfig config;
  config.average_reward.max_sweeps = 10;
  config.average_reward.tolerance = 1e-30;  // force exactly max_sweeps sweeps
  config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mdp::maximize_average_reward(model.model, config));
  }
  state.SetItemsProcessed(state.iterations() * 10 *
                          model.model.num_states());
}
BENCHMARK(BM_RviParallelSweepSetting2)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

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

// ---- --mode=kernel: AoS vs SoA sweep throughput --------------------------
//
// Measures the raw Bellman-backup sweep — the inner loop every solver and
// every table cell spends its time in — over the two model layouts:
//
//   AoS — the seed data path: bounds-checked std::span lookups over the
//         Model's 32-byte Outcome structs (half of every cache line loaded
//         into the sweep is reward/weight data the backup never touches);
//   SoA — the CompiledModel kernel layout: raw contiguous next/prob columns.
//
// Both variants run the identical serial Gauss-Seidel greedy sweep with the
// identical expression order, so their bias vectors stay bitwise equal —
// which the run asserts, making this a throughput measurement of the same
// computation, not of two different algorithms. A third variant sweeps the
// precompiled tau-damped probability column (mathematically equivalent,
// different FP association — which is why production solvers don't use it;
// see compiled_model.hpp).

namespace {

constexpr double kKernelTau = 0.999;

/// One in-place Gauss-Seidel greedy sweep over the AoS Model layout,
/// mirroring rvi_core's serial discipline (state-0 residual subtracted
/// in-sweep).
void aos_sweep(const mdp::Model& model, std::span<const double> rewards,
               std::vector<double>& bias) {
  const mdp::StateId n = model.num_states();
  double ref = 0.0;
  for (mdp::StateId s = 0; s < n; ++s) {
    const std::size_t actions = model.num_actions(s);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < actions; ++a) {
      const mdp::SaIndex sa = model.sa_index(s, a);
      double q = rewards[sa];
      double expected_next = 0.0;
      for (const mdp::Outcome& outcome : model.outcomes(sa)) {
        expected_next += outcome.probability * bias[outcome.next];
      }
      q = kKernelTau * (q + expected_next) + (1.0 - kKernelTau) * bias[s];
      if (q > best) {
        best = q;
      }
    }
    if (s == 0) {
      ref = best - bias[0];
    }
    bias[s] = best - ref;
  }
}

/// The same sweep over the CompiledModel SoA columns.
void soa_sweep(const mdp::CompiledModel& model,
               std::span<const double> rewards, std::vector<double>& bias) {
  const mdp::StateId n = model.num_states();
  const mdp::StateId* next_col = model.next();
  const double* prob_col = model.prob();
  const double* rewards_data = rewards.data();
  double ref = 0.0;
  for (mdp::StateId s = 0; s < n; ++s) {
    const std::size_t actions = model.num_actions(s);
    const mdp::SaIndex sa_base = model.state_begin(s);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < actions; ++a) {
      const mdp::SaIndex sa = sa_base + a;
      double q = rewards_data[sa];
      double expected_next = 0.0;
      const std::size_t end = model.outcome_end(sa);
      for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
        expected_next += prob_col[k] * bias[next_col[k]];
      }
      q = kKernelTau * (q + expected_next) + (1.0 - kKernelTau) * bias[s];
      if (q > best) {
        best = q;
      }
    }
    if (s == 0) {
      ref = best - bias[0];
    }
    bias[s] = best - ref;
  }
}

/// SoA sweep through the precompiled tau-damped probability column:
/// tau * (q + sum p*b) == tau*q + sum (tau*p)*b up to FP association.
void soa_damped_sweep(const mdp::CompiledModel& model,
                      std::span<const double> rewards,
                      std::vector<double>& bias) {
  const mdp::StateId n = model.num_states();
  const mdp::StateId* next_col = model.next();
  const double* damped_col = model.damped_prob();
  const double* rewards_data = rewards.data();
  double ref = 0.0;
  for (mdp::StateId s = 0; s < n; ++s) {
    const std::size_t actions = model.num_actions(s);
    const mdp::SaIndex sa_base = model.state_begin(s);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < actions; ++a) {
      const mdp::SaIndex sa = sa_base + a;
      double q = kKernelTau * rewards_data[sa];
      const std::size_t end = model.outcome_end(sa);
      for (std::size_t k = model.outcome_begin(sa); k < end; ++k) {
        q += damped_col[k] * bias[next_col[k]];
      }
      q += (1.0 - kKernelTau) * bias[s];
      if (q > best) {
        best = q;
      }
    }
    if (s == 0) {
      ref = best - bias[0];
    }
    bias[s] = best - ref;
  }
}

/// One greedy Jacobi sweep lowered onto the dispatched kernels
/// (mdp/kernel.hpp), mirroring rvi_core's vector discipline: the state-0
/// reference residual from a small backup_expected slice, then the fused
/// kernel::rvi_sweep over every state (backup + rewards + tau transform +
/// max in one register-resident pass, vectorized over states on this
/// model's uniform 2-action menu). Reads `bias_in`, writes `bias_out`
/// (Jacobi, not in-place Gauss-Seidel — see docs/PARALLELISM.md for why
/// the two disciplines are separately comparable).
void kernel_jacobi_sweep(const mdp::CompiledModel& model,
                         std::span<const double> rewards,
                         const std::vector<double>& bias_in,
                         std::vector<double>& bias_out,
                         std::vector<double>& q_buf, mdp::kernel::Isa isa) {
  const mdp::StateId n = model.num_states();
  const double* rewards_data = rewards.data();
  mdp::kernel::backup_expected(model, nullptr, 1.0, bias_in.data(), 0,
                               model.state_begin(1), q_buf.data(), isa);
  double best0 = -std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < model.num_actions(0); ++a) {
    const double q = kKernelTau * (rewards_data[a] + q_buf[a]) +
                     (1.0 - kKernelTau) * bias_in[0];
    if (q > best0) {
      best0 = q;
    }
  }
  const double ref = best0 - bias_in[0];
  double span_min = std::numeric_limits<double>::infinity();
  double span_max = -std::numeric_limits<double>::infinity();
  mdp::kernel::rvi_sweep(model, rewards_data, kKernelTau, bias_in.data(), ref,
                         0, n, bias_out.data(), nullptr, &span_min, &span_max,
                         isa);
}

/// One benchmark row: a sweep variant, its best-of-reps time, and the bias
/// vector it converges to (captured on the first rep; every rep starts
/// from the same zero bias, so reps are deterministic replicas).
struct TimedRow {
  const char* kind;  ///< "aos" | "soa" | "damped" | "kernel"
  mdp::kernel::Isa isa = mdp::kernel::Isa::kScalar;  ///< kernel rows only
  std::function<void(std::vector<double>&)> sweep;
  double best_seconds = std::numeric_limits<double>::infinity();
  std::vector<double> result;
};

/// Times every row with reps interleaved round-robin (row A rep 0, row B
/// rep 0, ..., row A rep 1, ...) rather than all reps of one row before
/// the next. On machines with drifting clocks (shared VMs, turbo
/// transitions) sequential phases can see different effective frequencies,
/// which corrupts cross-row ratios; interleaving gives every row samples
/// from the same clock windows, so each row's best-of comes from a fast
/// window available to all. Honors the shared --wall-clock-ms /
/// --max-ticks budget (one tick per row-rep).
void time_rows(std::vector<TimedRow>& rows, std::vector<double>& bias,
               int sweeps, int reps, robust::RunGuard& guard) {
  using Clock = std::chrono::steady_clock;
  for (int rep = 0; rep < reps; ++rep) {
    for (TimedRow& row : rows) {
      std::fill(bias.begin(), bias.end(), 0.0);
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < sweeps; ++i) {
        row.sweep(bias);
      }
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      row.best_seconds = std::min(row.best_seconds, seconds);
      if (rep == 0) {
        row.result = bias;
      }
      if (guard.tick().has_value()) {
        return;  // budget exhausted: report what we have
      }
    }
  }
}

int run_kernel_mode(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_kernel.json");
  // 100-sweep reps: short enough that a rep fits inside one quiet clock
  // window on shared/virtualized hosts (a 200-sweep rep spans several and
  // lets the row that happens to sustain boost clocks longest — not the
  // faster kernel — win), long enough to amortize the scratch swap.
  int sweeps = static_cast<int>(args.get_long("sweeps", 100));
  const robust::RunControl control = bench::run_control_from_args(args);
  if (control.budget.max_ticks != std::numeric_limits<std::int64_t>::max()) {
    sweeps = static_cast<int>(std::min<std::int64_t>(
        sweeps, std::max<std::int64_t>(1, control.budget.max_ticks)));
  }
  robust::RunGuard guard(control);

  // The setting-2 grid cell: the largest model the table benches sweep.
  const bu::AttackModel attack = bu::build_attack_model(
      grid_params(bu::Setting::kStickyGate), bu::Utility::kRelativeRevenue);
  const mdp::Model& model = attack.model;
  const mdp::CompiledModel& compiled = *attack.compiled;
  const std::span<const double> rewards{compiled.expected_reward(),
                                        compiled.num_state_actions()};

  std::vector<double> bias(model.num_states(), 0.0);
  std::vector<double> q_buf(compiled.num_state_actions(), 0.0);
  // Per-kernel-row Jacobi scratch; deque for stable addresses across
  // push_back (the row lambdas capture pointers into it).
  std::deque<std::vector<double>> scratches;

  std::vector<TimedRow> rows;
  const auto push_row = [&rows](const char* kind, mdp::kernel::Isa isa,
                                std::function<void(std::vector<double>&)> fn) {
    TimedRow row;
    row.kind = kind;
    row.isa = isa;
    row.sweep = std::move(fn);
    rows.push_back(std::move(row));
  };
  push_row("aos", mdp::kernel::Isa::kScalar,
           [&](std::vector<double>& b) { aos_sweep(model, rewards, b); });
  push_row("soa", mdp::kernel::Isa::kScalar,
           [&](std::vector<double>& b) { soa_sweep(compiled, rewards, b); });
  push_row("damped", mdp::kernel::Isa::kScalar, [&](std::vector<double>& b) {
    soa_damped_sweep(compiled, rewards, b);
  });
  // Dispatched-kernel rows: the same greedy sweep lowered onto the backup
  // kernel (Jacobi discipline), once per ISA this build+CPU carries. All
  // kernel rows must agree bit-for-bit with each other (same expression
  // tree per row); they are tolerance-equivalent, not bit-equal, to the
  // Gauss-Seidel rows above.
  for (const mdp::kernel::Isa isa :
       {mdp::kernel::Isa::kScalar, mdp::kernel::Isa::kAvx2,
        mdp::kernel::Isa::kAvx512}) {
    if (!mdp::kernel::isa_available(isa) || !compiled.has_ell()) {
      continue;
    }
    scratches.emplace_back(model.num_states(), 0.0);
    std::vector<double>* scratch = &scratches.back();
    push_row("kernel", isa, [&, scratch, isa](std::vector<double>& b) {
      kernel_jacobi_sweep(compiled, rewards, b, *scratch, q_buf, isa);
      b.swap(*scratch);
    });
  }
  constexpr int kReps = 7;
  time_rows(rows, bias, sweeps, kReps, guard);

  const auto row_rate = [&](const char* kind) {
    for (const TimedRow& row : rows) {
      if (std::string_view(row.kind) == kind) {
        return static_cast<double>(sweeps) / row.best_seconds;
      }
    }
    return 0.0;
  };
  std::vector<const TimedRow*> kernel_rows;
  for (const TimedRow& row : rows) {
    if (std::string_view(row.kind) == "kernel") {
      kernel_rows.push_back(&row);
    }
  }
  const bool bit_identical =
      std::memcmp(rows[0].result.data(), rows[1].result.data(),
                  rows[0].result.size() * sizeof(double)) == 0;
  bool kernel_bit_identical = true;
  for (const TimedRow* row : kernel_rows) {
    for (std::size_t s = 0; s < row->result.size(); ++s) {
      // == (not memcmp): ELL padding may flip a zero's sign.
      if (row->result[s] != kernel_rows.front()->result[s]) {
        kernel_bit_identical = false;
        break;
      }
    }
  }

  const double aos_rate = row_rate("aos");
  const double soa_rate = row_rate("soa");
  const double damped_rate = row_rate("damped");
  const double speedup = soa_rate / aos_rate;
  const double threshold = 1.5;

  // The acceptance row: what auto-dispatch actually picks on this machine,
  // compared against the scalar SoA sweep every solver ran before the
  // kernel layer existed.
  const mdp::kernel::Isa dispatched =
      mdp::kernel::resolve(mdp::kernel::Request::kAuto);
  double dispatched_rate = 0.0;
  for (const TimedRow* row : kernel_rows) {
    if (row->isa == dispatched) {
      dispatched_rate = static_cast<double>(sweeps) / row->best_seconds;
    }
  }
  const double vector_speedup =
      soa_rate > 0.0 ? dispatched_rate / soa_rate : 0.0;
  const double vector_threshold = 1.3;
  // Only gate when a vector ISA is actually available; a scalar-only
  // machine trivially "dispatches" scalar at ~1.0x.
  const bool vector_pass = dispatched == mdp::kernel::Isa::kScalar ||
                           vector_speedup >= vector_threshold;

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"mode\": \"kernel\",\n"
       << "  \"model\": \"bu setting-2 alpha=0.25 beta=0.30 gamma=0.45\",\n"
       << "  \"states\": " << model.num_states() << ",\n"
       << "  \"state_actions\": " << model.num_state_actions() << ",\n"
       << "  \"sweeps_per_rep\": " << sweeps << ",\n"
       << "  \"aos_sweeps_per_sec\": " << aos_rate << ",\n"
       << "  \"soa_sweeps_per_sec\": " << soa_rate << ",\n"
       << "  \"soa_damped_sweeps_per_sec\": " << damped_rate << ",\n"
       << "  \"speedup_soa_vs_aos\": " << speedup << ",\n"
       << "  \"threshold\": " << threshold << ",\n"
       << "  \"pass\": " << (speedup >= threshold ? "true" : "false") << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"kernel_rows\": [";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const double rate =
        static_cast<double>(sweeps) / kernel_rows[i]->best_seconds;
    json << (i == 0 ? "\n" : ",\n") << "    {\"isa\": \""
         << mdp::kernel::to_string(kernel_rows[i]->isa)
         << "\", \"sweeps_per_sec\": " << rate << ", \"speedup_vs_soa\": "
         << (soa_rate > 0.0 ? rate / soa_rate : 0.0) << "}";
  }
  json << "\n  ],\n"
       << "  \"kernel_bit_identical\": "
       << (kernel_bit_identical ? "true" : "false") << ",\n"
       << "  \"dispatched_isa\": \"" << mdp::kernel::to_string(dispatched)
       << "\",\n"
       << "  \"speedup_vector_vs_soa\": " << vector_speedup << ",\n"
       << "  \"vector_threshold\": " << vector_threshold << ",\n"
       << "  \"vector_pass\": " << (vector_pass ? "true" : "false")
       << "\n}\n";
  json.close();

  std::printf(
      "kernel sweep microbench (single thread, %d sweeps/rep, best of %d "
      "interleaved reps)\n"
      "  model: %u states, %zu state-actions\n"
      "  AoS (seed Model path):      %10.1f sweeps/s\n"
      "  SoA (CompiledModel):        %10.1f sweeps/s  (%.2fx%s)\n"
      "  SoA damped-prob column:     %10.1f sweeps/s\n"
      "  bias vectors bit-identical: %s\n",
      sweeps, kReps, model.num_states(), model.num_state_actions(), aos_rate,
      soa_rate, speedup, speedup >= threshold ? ", >= 1.5x target" : "",
      damped_rate, bit_identical ? "yes" : "NO (BUG)");
  for (const TimedRow* row : kernel_rows) {
    const double rate = static_cast<double>(sweeps) / row->best_seconds;
    std::printf("  kernel %-7s (Jacobi):    %10.1f sweeps/s  (%.2fx vs SoA)\n",
                std::string(mdp::kernel::to_string(row->isa)).c_str(), rate,
                soa_rate > 0.0 ? rate / soa_rate : 0.0);
  }
  std::printf(
      "  kernel rows bit-identical:  %s\n"
      "  dispatched ISA: %s  (%.2fx vs scalar SoA%s)\n"
      "  -> %s\n",
      kernel_bit_identical ? "yes" : "NO (BUG)",
      std::string(mdp::kernel::to_string(dispatched)).c_str(), vector_speedup,
      vector_pass ? (dispatched == mdp::kernel::Isa::kScalar
                         ? ""
                         : ", >= 1.3x target")
                  : ", BELOW 1.3x target",
      out_path.c_str());
  return bit_identical && kernel_bit_identical && vector_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bvc::util::ArgParser parser(
      "bench_solver_micro",
      "google-benchmark microbenchmarks of the numerical core");
  bvc::bench::add_budget_args(parser);
  bvc::bench::add_obs_args(parser);
  parser.add({
      {"mode", bvc::util::ArgType::kString, "kernel",
       "run the standalone kernel-sweep comparison instead of "
       "google-benchmark", ""},
      {"out", bvc::util::ArgType::kString, "FILE",
       "kernel mode: JSON results path", "BENCH_kernel.json"},
      {"sweeps", bvc::util::ArgType::kLong, "N",
       "kernel mode: sweeps per repetition", "100"},
  });
  // Everything else belongs to google-benchmark (--benchmark_filter etc.).
  parser.allow_prefix("benchmark_").allow_prefix("v");
  (void)parser.parse(argc, argv);

  // The session must outlive the benchmark run; constructed from the full
  // argv so the manifest records every flag.
  bvc::bench::ObsSession obs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--mode=kernel" ||
        (arg == "--mode" && i + 1 < argc &&
         std::string_view(argv[i + 1]) == "kernel")) {
      return run_kernel_mode(argc, argv);
    }
  }
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
