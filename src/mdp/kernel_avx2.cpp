// AVX2 backup kernel: 4 rows per vector step over the ELL mirror.
//
// This translation unit is compiled with -mavx2 when the toolchain accepts
// it (see src/mdp/CMakeLists.txt); resolve() only routes here when the
// running CPU reports AVX2. On toolchains without the flag the stub at the
// bottom forwards to scalar and avx2_compiled() reports false.
#include "mdp/kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace bvc::mdp::kernel::detail {

bool avx2_compiled() noexcept { return true; }

void backup_avx2(const CompiledModel& model, const double* seed, double scale,
                 const double* bias, SaIndex sa_begin, SaIndex sa_end,
                 double* q_out) noexcept {
  constexpr SaIndex kLanes = 4;
  const std::size_t width = model.ell_width();
  const std::size_t stride = model.ell_stride();
  const double* ell_prob = model.ell_prob();
  const StateId* ell_next = model.ell_next();
  const __m256d vscale = _mm256_set1_pd(scale);

  SaIndex sa = sa_begin;
  // Two independent 4-row blocks per iteration: a single block's running
  // sum is a serial gather->mul->add chain that leaves the gather unit
  // idle; interleaving two chains keeps it fed without changing any
  // lane's accumulation order.
  for (; sa + 2 * kLanes <= sa_end; sa += 2 * kLanes) {
    __m256d q0 = seed != nullptr ? _mm256_loadu_pd(seed + sa)
                                 : _mm256_setzero_pd();
    __m256d q1 = seed != nullptr ? _mm256_loadu_pd(seed + sa + kLanes)
                                 : _mm256_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      const StateId* row_next = ell_next + j * stride + sa;
      const double* row_prob = ell_prob + j * stride + sa;
      const __m128i idx0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_next));
      const __m128i idx1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_next + kLanes));
      const __m256d b0 = _mm256_i32gather_pd(bias, idx0, 8);
      const __m256d b1 = _mm256_i32gather_pd(bias, idx1, 8);
      const __m256d p0 = _mm256_mul_pd(vscale, _mm256_loadu_pd(row_prob));
      const __m256d p1 =
          _mm256_mul_pd(vscale, _mm256_loadu_pd(row_prob + kLanes));
      // mul then add, never FMA: each term must round exactly like the
      // scalar (scale * p) * b before joining the lane's running sum.
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(p0, b0));
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(p1, b1));
    }
    _mm256_storeu_pd(q_out + sa, q0);
    _mm256_storeu_pd(q_out + sa + kLanes, q1);
  }
  // Single full blocks, then the scalar remainder. Full 4-row blocks only
  // while the whole block fits in [sa_begin, sa_end): chunked callers own
  // disjoint sa ranges, so no vector store may cross sa_end. Loads are
  // safe at any sa < sa_end because the ELL stride is padded to 8
  // elements.
  for (; sa + kLanes <= sa_end; sa += kLanes) {
    __m256d q = seed != nullptr ? _mm256_loadu_pd(seed + sa)
                                : _mm256_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      const __m128i idx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(ell_next + j * stride + sa));
      const __m256d b = _mm256_i32gather_pd(bias, idx, 8);
      const __m256d p =
          _mm256_mul_pd(vscale, _mm256_loadu_pd(ell_prob + j * stride + sa));
      // mul then add, never FMA: each term must round exactly like the
      // scalar (scale * p) * b before joining the lane's running sum.
      q = _mm256_add_pd(q, _mm256_mul_pd(p, b));
    }
    _mm256_storeu_pd(q_out + sa, q);
  }
  if (sa < sa_end) {
    backup_scalar(model, seed, scale, bias, sa, sa_end, q_out);
  }
}

void rvi_combine_avx2(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in, const double* q_all,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  // Dispatcher precondition: uniform 2-action menu, greedy mode. Four
  // states per step; see the AVX-512 combine for the lane/rounding notes.
  constexpr StateId kLanes = 4;
  // unpack{lo,hi} + this 4x64 permute deinterleave [a0 a1 a0 a1 ...] into
  // the action-0 and action-1 columns.
  constexpr int kDeinterleave = _MM_SHUFFLE(3, 1, 2, 0);
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vdamp = _mm256_set1_pd(1.0 - tau);
  const __m256d vref = _mm256_set1_pd(reference_residual);
  __m256d vmin = _mm256_set1_pd(*span_min_io);
  __m256d vmax = _mm256_set1_pd(*span_max_io);

  StateId s = s_begin;
  for (; s + kLanes <= s_end; s += kLanes) {
    const std::size_t sa = 2 * static_cast<std::size_t>(s);
    const __m256d qlo = _mm256_loadu_pd(q_all + sa);
    const __m256d qhi = _mm256_loadu_pd(q_all + sa + kLanes);
    const __m256d rlo = _mm256_loadu_pd(rewards + sa);
    const __m256d rhi = _mm256_loadu_pd(rewards + sa + kLanes);
    const __m256d q0 = _mm256_permute4x64_pd(_mm256_unpacklo_pd(qlo, qhi),
                                             kDeinterleave);
    const __m256d q1 = _mm256_permute4x64_pd(_mm256_unpackhi_pd(qlo, qhi),
                                             kDeinterleave);
    const __m256d r0 = _mm256_permute4x64_pd(_mm256_unpacklo_pd(rlo, rhi),
                                             kDeinterleave);
    const __m256d r1 = _mm256_permute4x64_pd(_mm256_unpackhi_pd(rlo, rhi),
                                             kDeinterleave);
    const __m256d b = _mm256_loadu_pd(bias_in + s);
    const __m256d damped = _mm256_mul_pd(vdamp, b);
    const __m256d v0 = _mm256_add_pd(
        _mm256_mul_pd(vtau, _mm256_add_pd(r0, q0)), damped);
    const __m256d v1 = _mm256_add_pd(
        _mm256_mul_pd(vtau, _mm256_add_pd(r1, q1)), damped);
    // Strict greater-than, exactly the scalar `if (q > best)`: action 1
    // wins only when strictly better, ties keep action 0.
    const __m256d take1 = _mm256_cmp_pd(v1, v0, _CMP_GT_OQ);
    const __m256d best = _mm256_blendv_pd(v0, v1, take1);
    if (policy_out != nullptr) {
      const int bits = _mm256_movemask_pd(take1);
      for (StateId lane = 0; lane < kLanes; ++lane) {
        policy_out[s + lane] = static_cast<std::uint32_t>((bits >> lane) & 1);
      }
    }
    const __m256d residual = _mm256_sub_pd(best, b);
    vmin = _mm256_min_pd(vmin, residual);
    vmax = _mm256_max_pd(vmax, residual);
    _mm256_storeu_pd(bias_out + s, _mm256_sub_pd(best, vref));
  }
  // min/max are exact, so the horizontal reduction order is irrelevant.
  alignas(32) double lanes_min[kLanes];
  alignas(32) double lanes_max[kLanes];
  _mm256_store_pd(lanes_min, vmin);
  _mm256_store_pd(lanes_max, vmax);
  for (StateId lane = 0; lane < kLanes; ++lane) {
    *span_min_io = std::min(*span_min_io, lanes_min[lane]);
    *span_max_io = std::max(*span_max_io, lanes_max[lane]);
  }
  if (s < s_end) {
    rvi_combine_scalar(model, rewards, tau, bias_in, q_all,
                       reference_residual, s, s_end, bias_out, policy_out,
                       span_min_io, span_max_io);
  }
}

namespace {

// Width-specialized fused-sweep body; see the AVX-512 twin for why the
// small common widths get straight-line instantiations (kWidthSpec 0 is
// the runtime-width fallback).
template <int kWidthSpec>
void rvi_sweep_avx2_impl(const CompiledModel& model, const double* rewards,
                         double tau, const double* bias_in,
                         double reference_residual, StateId s_begin,
                         StateId s_end, double* bias_out,
                         std::uint32_t* policy_out, double* span_min_io,
                         double* span_max_io) noexcept {
  // Dispatcher precondition: ELL mirror present, uniform 2-action menu,
  // greedy mode. Eight states (16 flat actions) per outer step: four
  // 4-lane gather chains accumulate the expected-next values in registers
  // and the combine consumes them before they ever touch memory. See the
  // AVX-512 fused sweep for the unroll and rounding rationale.
  constexpr StateId kBlock = 4;  // states per combine vector
  constexpr StateId kStep = 8;   // states per unrolled outer iteration
  constexpr int kDeinterleave = _MM_SHUFFLE(3, 1, 2, 0);
  const std::size_t width =
      kWidthSpec > 0 ? static_cast<std::size_t>(kWidthSpec)
                     : model.ell_width();
  const std::size_t stride = model.ell_stride();
  const double* ell_prob = model.ell_prob();
  const StateId* ell_next = model.ell_next();
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vdamp = _mm256_set1_pd(1.0 - tau);
  const __m256d vref = _mm256_set1_pd(reference_residual);
  __m256d vmin = _mm256_set1_pd(*span_min_io);
  __m256d vmax = _mm256_set1_pd(*span_max_io);

  StateId s = s_begin;
  for (; s + kStep <= s_end; s += kStep) {
    const std::size_t sa = 2 * static_cast<std::size_t>(s);
    __m256d q0 = _mm256_setzero_pd();
    __m256d q1 = _mm256_setzero_pd();
    __m256d q2 = _mm256_setzero_pd();
    __m256d q3 = _mm256_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      const StateId* row_next = ell_next + j * stride + sa;
      const double* row_prob = ell_prob + j * stride + sa;
      const __m256d b0 = _mm256_i32gather_pd(
          bias_in,
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_next)), 8);
      const __m256d b1 = _mm256_i32gather_pd(
          bias_in,
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_next + 4)), 8);
      const __m256d b2 = _mm256_i32gather_pd(
          bias_in,
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_next + 8)), 8);
      const __m256d b3 = _mm256_i32gather_pd(
          bias_in,
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_next + 12)),
          8);
      // At scale 1 the backup term is fl(p * b) (fl(1.0 * p) == p), with
      // mul and add kept separate exactly like backup_avx2.
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(_mm256_loadu_pd(row_prob), b0));
      q1 = _mm256_add_pd(q1,
                         _mm256_mul_pd(_mm256_loadu_pd(row_prob + 4), b1));
      q2 = _mm256_add_pd(q2,
                         _mm256_mul_pd(_mm256_loadu_pd(row_prob + 8), b2));
      q3 = _mm256_add_pd(q3,
                         _mm256_mul_pd(_mm256_loadu_pd(row_prob + 12), b3));
    }
    for (int half = 0; half < 2; ++half) {
      const __m256d qlo = half == 0 ? q0 : q2;
      const __m256d qhi = half == 0 ? q1 : q3;
      const StateId so = s + half * kBlock;
      const std::size_t sao = sa + half * 2 * kBlock;
      const __m256d rlo = _mm256_loadu_pd(rewards + sao);
      const __m256d rhi = _mm256_loadu_pd(rewards + sao + kBlock);
      const __m256d qa = _mm256_permute4x64_pd(_mm256_unpacklo_pd(qlo, qhi),
                                               kDeinterleave);
      const __m256d qb = _mm256_permute4x64_pd(_mm256_unpackhi_pd(qlo, qhi),
                                               kDeinterleave);
      const __m256d ra = _mm256_permute4x64_pd(_mm256_unpacklo_pd(rlo, rhi),
                                               kDeinterleave);
      const __m256d rb = _mm256_permute4x64_pd(_mm256_unpackhi_pd(rlo, rhi),
                                               kDeinterleave);
      const __m256d b = _mm256_loadu_pd(bias_in + so);
      const __m256d damped = _mm256_mul_pd(vdamp, b);
      const __m256d v0 = _mm256_add_pd(
          _mm256_mul_pd(vtau, _mm256_add_pd(ra, qa)), damped);
      const __m256d v1 = _mm256_add_pd(
          _mm256_mul_pd(vtau, _mm256_add_pd(rb, qb)), damped);
      // Strict greater-than, exactly the scalar `if (q > best)`: ties
      // keep action 0.
      const __m256d take1 = _mm256_cmp_pd(v1, v0, _CMP_GT_OQ);
      const __m256d best = _mm256_blendv_pd(v0, v1, take1);
      if (policy_out != nullptr) {
        const int bits = _mm256_movemask_pd(take1);
        for (StateId lane = 0; lane < kBlock; ++lane) {
          policy_out[so + lane] =
              static_cast<std::uint32_t>((bits >> lane) & 1);
        }
      }
      const __m256d residual = _mm256_sub_pd(best, b);
      vmin = _mm256_min_pd(vmin, residual);
      vmax = _mm256_max_pd(vmax, residual);
      _mm256_storeu_pd(bias_out + so, _mm256_sub_pd(best, vref));
    }
  }
  // min/max are exact, so the horizontal reduction order is irrelevant.
  alignas(32) double lanes_min[kBlock];
  alignas(32) double lanes_max[kBlock];
  _mm256_store_pd(lanes_min, vmin);
  _mm256_store_pd(lanes_max, vmax);
  for (StateId lane = 0; lane < kBlock; ++lane) {
    *span_min_io = std::min(*span_min_io, lanes_min[lane]);
    *span_max_io = std::max(*span_max_io, lanes_max[lane]);
  }
  if (s < s_end) {
    rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s,
                     s_end, bias_out, policy_out, span_min_io, span_max_io);
  }
}

}  // namespace

void rvi_sweep_avx2(const CompiledModel& model, const double* rewards,
                    double tau, const double* bias_in,
                    double reference_residual, StateId s_begin, StateId s_end,
                    double* bias_out, std::uint32_t* policy_out,
                    double* span_min_io, double* span_max_io) noexcept {
  switch (model.ell_width()) {
    case 1:
      rvi_sweep_avx2_impl<1>(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
      return;
    case 2:
      rvi_sweep_avx2_impl<2>(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
      return;
    case 3:
      rvi_sweep_avx2_impl<3>(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
      return;
    case 4:
      rvi_sweep_avx2_impl<4>(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
      return;
    default:
      rvi_sweep_avx2_impl<0>(model, rewards, tau, bias_in, reference_residual,
                             s_begin, s_end, bias_out, policy_out,
                             span_min_io, span_max_io);
      return;
  }
}

}  // namespace bvc::mdp::kernel::detail

#else  // !defined(__AVX2__)

namespace bvc::mdp::kernel::detail {

bool avx2_compiled() noexcept { return false; }

void backup_avx2(const CompiledModel& model, const double* seed, double scale,
                 const double* bias, SaIndex sa_begin, SaIndex sa_end,
                 double* q_out) noexcept {
  backup_scalar(model, seed, scale, bias, sa_begin, sa_end, q_out);
}

void rvi_combine_avx2(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in, const double* q_all,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  rvi_combine_scalar(model, rewards, tau, bias_in, q_all, reference_residual,
                     s_begin, s_end, bias_out, policy_out, span_min_io,
                     span_max_io);
}

void rvi_sweep_avx2(const CompiledModel& model, const double* rewards,
                    double tau, const double* bias_in,
                    double reference_residual, StateId s_begin, StateId s_end,
                    double* bias_out, std::uint32_t* policy_out,
                    double* span_min_io, double* span_max_io) noexcept {
  rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s_begin,
                   s_end, bias_out, policy_out, span_min_io, span_max_io);
}

}  // namespace bvc::mdp::kernel::detail

#endif
