// The vectorized backup kernel layer (mdp/kernel.hpp): dispatch
// vocabulary, bit-identical scalar/AVX2/AVX-512 equivalence (including
// remainder lanes, odd outcome widths, and the damped-prob variant),
// solver-level bit-identity of the kernel Jacobi path against the scalar
// Jacobi path, cross-cell warm starts (fixed point unchanged, counters
// accurate), and the NUMA placement helpers' smoke behaviour.
//
// Vector-ISA cases GTEST_SKIP when the build or CPU lacks the ISA, so the
// suite is green (not red) on machines without AVX2/AVX-512.
#include "mdp/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "bu/attack_analysis.hpp"
#include "bu/attack_model.hpp"
#include "mdp/average_reward.hpp"
#include "mdp/batch.hpp"
#include "mdp/compiled_model.hpp"
#include "mdp/model.hpp"
#include "mdp/ratio.hpp"
#include "mdp/solver_config.hpp"
#include "util/aligned.hpp"
#include "util/numa.hpp"

namespace {

using namespace bvc;
using mdp::kernel::Isa;
using mdp::kernel::Request;

/// Restores the process-wide kernel request on scope exit so one test's
/// set_requested never leaks into another (or into other suites).
class ScopedKernelRequest {
 public:
  explicit ScopedKernelRequest(Request request)
      : previous_(mdp::kernel::requested()) {
    mdp::kernel::set_requested(request);
  }
  ~ScopedKernelRequest() { mdp::kernel::set_requested(previous_); }
  ScopedKernelRequest(const ScopedKernelRequest&) = delete;
  ScopedKernelRequest& operator=(const ScopedKernelRequest&) = delete;

 private:
  Request previous_;
};

/// A deterministic model with deliberately ragged action widths (1..5
/// outcomes) and a state-action count chosen to exercise both full vector
/// blocks and the scalar remainder for 4- and 8-lane kernels.
mdp::Model ragged_model(mdp::StateId num_states) {
  mdp::ModelBuilder builder(num_states);
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  const auto next_unit = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(seed >> 11) / 9007199254740992.0;
  };
  for (mdp::StateId s = 0; s < num_states; ++s) {
    const std::size_t actions = 1 + s % 3;
    for (std::size_t a = 0; a < actions; ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      const std::size_t width = 1 + (s + a) % 5;
      double remaining = 1.0;
      for (std::size_t j = 0; j < width; ++j) {
        const double p =
            j + 1 == width ? remaining : remaining * (0.2 + 0.6 * next_unit());
        remaining -= p;
        const mdp::StateId next =
            static_cast<mdp::StateId>((s * 7 + a * 3 + j * 5) % num_states);
        builder.add_outcome(next, p, next_unit(), next_unit());
      }
    }
  }
  return builder.build();
}

std::vector<double> ramp_bias(std::size_t num_states) {
  std::vector<double> bias(num_states);
  for (std::size_t s = 0; s < num_states; ++s) {
    bias[s] = 0.25 * static_cast<double>(s) - 3.0;
  }
  return bias;
}

/// Runs scalar and `isa` over the same inputs and demands bit-equality
/// (EXPECT_EQ on doubles is ==, so +0.0 vs -0.0 from ELL padding passes).
void expect_backup_equivalence(const mdp::CompiledModel& compiled, Isa isa,
                               const double* seed, double scale) {
  const std::size_t num_sa = compiled.num_state_actions();
  const std::vector<double> bias = ramp_bias(compiled.num_states());
  std::vector<double> q_scalar(num_sa, -1.0);
  std::vector<double> q_vector(num_sa, -2.0);
  mdp::kernel::backup_expected(compiled, seed, scale, bias.data(), 0, num_sa,
                               q_scalar.data(), Isa::kScalar);
  mdp::kernel::backup_expected(compiled, seed, scale, bias.data(), 0, num_sa,
                               q_vector.data(), isa);
  for (std::size_t sa = 0; sa < num_sa; ++sa) {
    EXPECT_EQ(q_scalar[sa], q_vector[sa]) << "sa=" << sa;
  }

  // Split ranges (chunk boundaries at non-lane-multiples): same answer.
  std::vector<double> q_split(num_sa, -3.0);
  const std::size_t cut = num_sa / 3 + 1;
  mdp::kernel::backup_expected(compiled, seed, scale, bias.data(), 0, cut,
                               q_split.data(), isa);
  mdp::kernel::backup_expected(compiled, seed, scale, bias.data(), cut, num_sa,
                               q_split.data(), isa);
  for (std::size_t sa = 0; sa < num_sa; ++sa) {
    EXPECT_EQ(q_scalar[sa], q_split[sa]) << "split sa=" << sa;
  }
}

void run_equivalence_suite(Isa isa) {
  if (!mdp::kernel::isa_available(isa)) {
    GTEST_SKIP() << mdp::kernel::to_string(isa)
                 << " not available on this build/CPU";
  }
  // 37 states -> a state-action count that is not a multiple of 4 or 8,
  // so both vector widths exercise their scalar remainder.
  const mdp::Model model = ragged_model(37);
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  ASSERT_TRUE(compiled.has_ell());
  const std::size_t num_sa = compiled.num_state_actions();

  // Variant A (RVI): no seed, unit scale.
  expect_backup_equivalence(compiled, isa, nullptr, 1.0);
  // Variant B (discounted VI / PI greedy): seeded, scaled.
  std::vector<double> seed(num_sa);
  for (std::size_t sa = 0; sa < num_sa; ++sa) {
    seed[sa] = 0.125 * static_cast<double>(sa % 11) - 0.5;
  }
  expect_backup_equivalence(compiled, isa, seed.data(), 0.95);
  expect_backup_equivalence(compiled, isa, seed.data(), 1.0);
  // Damped variant: scale = compiled tau.
  expect_backup_equivalence(compiled, isa, nullptr, compiled.compiled_tau());

  // Empty range: touches nothing.
  std::vector<double> q(num_sa, 7.0);
  const std::vector<double> bias = ramp_bias(compiled.num_states());
  mdp::kernel::backup_expected(compiled, nullptr, 1.0, bias.data(), 5, 5,
                               q.data(), isa);
  for (const double value : q) {
    EXPECT_EQ(value, 7.0);
  }
}

TEST(Kernel, ParseRequestVocabulary) {
  EXPECT_EQ(mdp::kernel::parse_request("auto"), Request::kAuto);
  EXPECT_EQ(mdp::kernel::parse_request("scalar"), Request::kScalar);
  EXPECT_EQ(mdp::kernel::parse_request("avx2"), Request::kAvx2);
  EXPECT_EQ(mdp::kernel::parse_request("avx512"), Request::kAvx512);
  EXPECT_FALSE(mdp::kernel::parse_request("sse2").has_value());
  EXPECT_FALSE(mdp::kernel::parse_request("").has_value());
  EXPECT_FALSE(mdp::kernel::parse_request("AVX2").has_value());

  EXPECT_EQ(mdp::kernel::to_string(Isa::kScalar), "scalar");
  EXPECT_EQ(mdp::kernel::to_string(Isa::kAvx2), "avx2");
  EXPECT_EQ(mdp::kernel::to_string(Isa::kAvx512), "avx512");
  EXPECT_EQ(mdp::kernel::to_string(Request::kAuto), "auto");
}

TEST(Kernel, ResolveClampsToAvailability) {
  EXPECT_TRUE(mdp::kernel::isa_available(Isa::kScalar));
  EXPECT_EQ(mdp::kernel::resolve(Request::kScalar), Isa::kScalar);

  const Isa best = mdp::kernel::resolve(Request::kAuto);
  EXPECT_TRUE(mdp::kernel::isa_available(best));
  if (mdp::kernel::isa_available(Isa::kAvx512)) {
    // Auto calibrates between the vector ISAs (either is bit-identical);
    // it must still never fall back to scalar when vectors are usable,
    // and an explicit request is honored as given.
    EXPECT_NE(best, Isa::kScalar);
    EXPECT_EQ(mdp::kernel::resolve(Request::kAvx512), Isa::kAvx512);
  } else if (mdp::kernel::isa_available(Isa::kAvx2)) {
    EXPECT_EQ(best, Isa::kAvx2);
    // An unavailable avx512 request degrades to the best available.
    EXPECT_EQ(mdp::kernel::resolve(Request::kAvx512), Isa::kAvx2);
  } else {
    EXPECT_EQ(best, Isa::kScalar);
    EXPECT_EQ(mdp::kernel::resolve(Request::kAvx2), Isa::kScalar);
  }

  // set_requested drives the zero-argument resolve.
  {
    const ScopedKernelRequest scoped(Request::kScalar);
    EXPECT_EQ(mdp::kernel::requested(), Request::kScalar);
    EXPECT_EQ(mdp::kernel::resolve(), Isa::kScalar);
  }
}

TEST(Kernel, Avx2MatchesScalarBitExact) { run_equivalence_suite(Isa::kAvx2); }

TEST(Kernel, Avx512MatchesScalarBitExact) {
  run_equivalence_suite(Isa::kAvx512);
}

TEST(Kernel, DampedScaleMatchesPrecompiledDampedColumn) {
  const mdp::Model model = ragged_model(23);
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(model);
  const double tau = compiled.compiled_tau();
  const std::size_t num_sa = compiled.num_state_actions();
  const std::vector<double> bias = ramp_bias(compiled.num_states());

  // fl(tau * p) is exactly the precompiled damped_prob entry, so the
  // scale=tau kernel must reproduce a sweep over that column bit-for-bit.
  std::vector<double> q(num_sa);
  mdp::kernel::backup_expected(compiled, nullptr, tau, bias.data(), 0, num_sa,
                               q.data(), Isa::kScalar);
  for (std::size_t sa = 0; sa < num_sa; ++sa) {
    double expected = 0.0;
    for (std::size_t k = compiled.outcome_begin(sa);
         k < compiled.outcome_end(sa); ++k) {
      expected += compiled.damped_prob()[k] * bias[compiled.next()[k]];
    }
    EXPECT_EQ(q[sa], expected) << "sa=" << sa;
  }
}

TEST(Kernel, NonEllModelFallsBackToScalar) {
  // One action wider than kMaxEllWidth disables the ELL mirror; vector
  // requests must still produce the scalar answer (silent fallback).
  const mdp::StateId num_states = 40;
  mdp::ModelBuilder builder(num_states);
  for (mdp::StateId s = 0; s < num_states; ++s) {
    builder.begin_action(s, 0);
    const std::size_t width =
        s == 0 ? mdp::CompiledModel::kMaxEllWidth + 4 : 2;
    for (std::size_t j = 0; j < width; ++j) {
      builder.add_outcome(static_cast<mdp::StateId>((s + j + 1) % num_states),
                          1.0 / static_cast<double>(width));
    }
  }
  const mdp::CompiledModel compiled =
      mdp::CompiledModel::compile(builder.build());
  ASSERT_FALSE(compiled.has_ell());

  const std::size_t num_sa = compiled.num_state_actions();
  const std::vector<double> bias = ramp_bias(compiled.num_states());
  std::vector<double> q_scalar(num_sa);
  std::vector<double> q_vector(num_sa);
  mdp::kernel::backup_expected(compiled, nullptr, 1.0, bias.data(), 0, num_sa,
                               q_scalar.data(), Isa::kScalar);
  mdp::kernel::backup_expected(compiled, nullptr, 1.0, bias.data(), 0, num_sa,
                               q_vector.data(), Isa::kAvx2);
  for (std::size_t sa = 0; sa < num_sa; ++sa) {
    EXPECT_EQ(q_scalar[sa], q_vector[sa]);
  }
}

// ---- fused RVI sweep -----------------------------------------------------

/// A deterministic uniform two-action model (the greedy attack-model shape
/// the vector fused sweep specializes for), with three outcomes per action
/// and a state count that is not a multiple of either vector block size.
mdp::Model uniform_two_action_model(mdp::StateId num_states) {
  mdp::ModelBuilder builder(num_states);
  std::uint64_t seed = 0xda942042e4dd58b5ULL;
  const auto next_unit = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(seed >> 11) / 9007199254740992.0;
  };
  for (mdp::StateId s = 0; s < num_states; ++s) {
    for (std::size_t a = 0; a < 2; ++a) {
      builder.begin_action(s, static_cast<mdp::ActionLabel>(a));
      double remaining = 1.0;
      for (std::size_t j = 0; j < 3; ++j) {
        const double p =
            j == 2 ? remaining : remaining * (0.2 + 0.5 * next_unit());
        remaining -= p;
        const mdp::StateId next =
            static_cast<mdp::StateId>((s * 13 + a * 7 + j * 3 + 1) %
                                      num_states);
        builder.add_outcome(next, p, next_unit(), next_unit());
      }
    }
  }
  return builder.build();
}

/// Full-range and split-range fused sweeps under `isa` against the scalar
/// reference: bias, policy, and span must agree bit-for-bit (== on doubles).
void expect_rvi_sweep_equivalence(const mdp::CompiledModel& compiled,
                                  Isa isa) {
  const mdp::StateId n = static_cast<mdp::StateId>(compiled.num_states());
  const std::vector<double> bias = ramp_bias(compiled.num_states());
  const double* rewards = compiled.expected_reward();
  const double tau = 0.875;     // exact dyadic, away from 1
  const double ref = 0.03125;   // exact dyadic reference residual
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<double> out_scalar(n, -7.0);
  std::vector<double> out_vector(n, -8.0);
  std::vector<std::uint32_t> pol_scalar(n, 99u);
  std::vector<std::uint32_t> pol_vector(n, 88u);
  double min_scalar = inf, max_scalar = -inf;
  double min_vector = inf, max_vector = -inf;
  mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref, 0,
                         n, out_scalar.data(), pol_scalar.data(), &min_scalar,
                         &max_scalar, Isa::kScalar);
  mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref, 0,
                         n, out_vector.data(), pol_vector.data(), &min_vector,
                         &max_vector, isa);
  for (mdp::StateId s = 0; s < n; ++s) {
    EXPECT_EQ(out_scalar[s], out_vector[s]) << "state=" << s;
    EXPECT_EQ(pol_scalar[s], pol_vector[s]) << "state=" << s;
  }
  EXPECT_EQ(min_scalar, min_vector);
  EXPECT_EQ(max_scalar, max_vector);

  // Split ranges (chunk boundary off any lane multiple) with per-chunk span
  // accumulators, as the parallel solver path issues them.
  std::vector<double> out_split(n, -9.0);
  std::vector<std::uint32_t> pol_split(n, 77u);
  const mdp::StateId cut = n / 3 + 1;
  double min_a = inf, max_a = -inf, min_b = inf, max_b = -inf;
  mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref, 0,
                         cut, out_split.data(), pol_split.data(), &min_a,
                         &max_a, isa);
  mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref,
                         cut, n, out_split.data(), pol_split.data(), &min_b,
                         &max_b, isa);
  for (mdp::StateId s = 0; s < n; ++s) {
    EXPECT_EQ(out_scalar[s], out_split[s]) << "split state=" << s;
    EXPECT_EQ(pol_scalar[s], pol_split[s]) << "split state=" << s;
  }
  EXPECT_EQ(min_scalar, std::min(min_a, min_b));
  EXPECT_EQ(max_scalar, std::max(max_a, max_b));
}

void run_rvi_sweep_suite(Isa isa) {
  if (!mdp::kernel::isa_available(isa)) {
    GTEST_SKIP() << mdp::kernel::to_string(isa)
                 << " not available on this build/CPU";
  }
  // The specialized shape: uniform two actions, ELL width 3.
  {
    const mdp::CompiledModel compiled =
        mdp::CompiledModel::compile(uniform_two_action_model(137));
    ASSERT_TRUE(compiled.has_ell());
    ASSERT_EQ(compiled.uniform_actions(), 2u);
    expect_rvi_sweep_equivalence(compiled, isa);
  }
  // Ragged action menus: the dispatcher must fall back to scalar and the
  // answer is (trivially) bit-identical. This guards the gate condition.
  {
    const mdp::CompiledModel compiled =
        mdp::CompiledModel::compile(ragged_model(53));
    ASSERT_NE(compiled.uniform_actions(), 2u);
    expect_rvi_sweep_equivalence(compiled, isa);
  }
  // A real attack model (the production shape, remainder included).
  {
    const bu::AttackParams params = [] {
      bu::AttackParams p;
      p.alpha = 0.3;
      p.beta = 0.25;
      p.gamma = 0.45;
      p.setting = bu::Setting::kNoStickyGate;
      p.ad = 6;
      return p;
    }();
    const bu::AttackModel attack =
        bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
    const mdp::CompiledModel compiled =
        mdp::CompiledModel::compile(attack.model);
    expect_rvi_sweep_equivalence(compiled, isa);
  }
}

TEST(Kernel, RviSweepAvx2MatchesScalarBitExact) {
  run_rvi_sweep_suite(Isa::kAvx2);
}

TEST(Kernel, RviSweepAvx512MatchesScalarBitExact) {
  run_rvi_sweep_suite(Isa::kAvx512);
}

TEST(Kernel, RviSweepMatchesBackupCombineComposition) {
  // The fused sweep is defined as backup_expected (no seed, scale 1)
  // followed by rvi_combine; the composition must agree bit-for-bit, on
  // every ISA, including policy and span side outputs.
  const mdp::CompiledModel compiled =
      mdp::CompiledModel::compile(uniform_two_action_model(61));
  const mdp::StateId n = static_cast<mdp::StateId>(compiled.num_states());
  const std::size_t num_sa = compiled.num_state_actions();
  const std::vector<double> bias = ramp_bias(compiled.num_states());
  const double* rewards = compiled.expected_reward();
  const double tau = 0.96875;
  const double ref = -1.5;
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<double> q_all(num_sa);
  mdp::kernel::backup_expected(compiled, nullptr, 1.0, bias.data(), 0, num_sa,
                               q_all.data(), Isa::kScalar);
  std::vector<double> out_split(n);
  std::vector<std::uint32_t> pol_split(n);
  double min_split = inf, max_split = -inf;
  mdp::kernel::rvi_combine(compiled, rewards, tau, bias.data(), q_all.data(),
                           ref, 0, n, out_split.data(),
                           pol_split.data(), &min_split, &max_split,
                           Isa::kScalar);

  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!mdp::kernel::isa_available(isa)) {
      continue;
    }
    std::vector<double> out_fused(n, -4.0);
    std::vector<std::uint32_t> pol_fused(n, 55u);
    double min_fused = inf, max_fused = -inf;
    mdp::kernel::rvi_sweep(compiled, rewards, tau, bias.data(), ref,
                           0, n, out_fused.data(), pol_fused.data(),
                           &min_fused, &max_fused, isa);
    for (mdp::StateId s = 0; s < n; ++s) {
      EXPECT_EQ(out_split[s], out_fused[s])
          << mdp::kernel::to_string(isa) << " state=" << s;
      EXPECT_EQ(pol_split[s], pol_fused[s])
          << mdp::kernel::to_string(isa) << " state=" << s;
    }
    EXPECT_EQ(min_split, min_fused) << mdp::kernel::to_string(isa);
    EXPECT_EQ(max_split, max_fused) << mdp::kernel::to_string(isa);
  }
}

// ---- solver-level bit-identity -------------------------------------------

bu::AttackModel small_attack_model() {
  bu::AttackParams params;
  params.alpha = 0.25;
  params.beta = 0.30;
  params.gamma = 0.45;
  params.setting = bu::Setting::kNoStickyGate;
  params.ad = 4;  // small grid keeps the test fast
  return bu::build_attack_model(params, bu::Utility::kRelativeRevenue);
}

TEST(Kernel, SolverJacobiBitIdenticalToScalarJacobi) {
  const Isa best = mdp::kernel::resolve(Request::kAuto);
  if (best == Isa::kScalar) {
    GTEST_SKIP() << "no vector ISA available";
  }
  const bu::AttackModel attack = small_attack_model();
  const mdp::CompiledModel compiled = mdp::CompiledModel::compile(attack.model);
  ASSERT_TRUE(compiled.has_ell());

  mdp::AverageRewardKnobs knobs;
  knobs.tolerance = 1e-9;

  // Reference: the scalar chunked-Jacobi discipline (threads >= 2).
  mdp::GainResult scalar_jacobi;
  {
    const ScopedKernelRequest scoped(Request::kScalar);
    mdp::AverageRewardKnobs jacobi = knobs;
    jacobi.threads = 2;
    scalar_jacobi = mdp::maximize_average_reward(compiled, jacobi);
  }

  // The kernel path is Jacobi at EVERY thread count, and bit-identical to
  // the scalar Jacobi sweep (same expression tree, lane-per-row).
  for (const int threads : {1, 2, 3}) {
    mdp::AverageRewardKnobs kernel_knobs = knobs;
    kernel_knobs.threads = threads;
    const mdp::GainResult vector_jacobi =
        mdp::maximize_average_reward(compiled, kernel_knobs);
    EXPECT_EQ(scalar_jacobi.gain, vector_jacobi.gain)
        << "threads=" << threads;
    ASSERT_EQ(scalar_jacobi.bias.size(), vector_jacobi.bias.size());
    for (std::size_t s = 0; s < scalar_jacobi.bias.size(); ++s) {
      EXPECT_EQ(scalar_jacobi.bias[s], vector_jacobi.bias[s])
          << "threads=" << threads << " state=" << s;
    }
    EXPECT_EQ(scalar_jacobi.policy, vector_jacobi.policy);
  }
}

// ---- warm starts ---------------------------------------------------------

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

// ---- NUMA smoke ----------------------------------------------------------

TEST(Numa, SmokeOnAnyTopology) {
  EXPECT_GE(util::numa::node_count(), 1);
  EXPECT_EQ(util::numa::multi_node(), util::numa::node_count() > 1);

  util::AlignedVector<double> buffer;
  util::numa::first_touch_fill(buffer, 1000, 2.5, nullptr, 8);
  ASSERT_EQ(buffer.size(), 1000u);
  for (const double value : buffer) {
    EXPECT_EQ(value, 2.5);
  }
  // Shrink + refill: contents identical regardless of pool/topology.
  util::numa::first_touch_fill(buffer, 10, -1.0, nullptr, 1);
  ASSERT_EQ(buffer.size(), 10u);
  for (const double value : buffer) {
    EXPECT_EQ(value, -1.0);
  }

  // interleave_pages never throws; on single-node machines it reports
  // false (placement is an optimization, not a requirement).
  std::vector<double> pages(4096, 0.0);
  const bool moved =
      util::numa::interleave_pages(pages.data(), pages.size() * 8);
  if (!util::numa::multi_node()) {
    EXPECT_FALSE(moved);
  }
}

}  // namespace
