// AVX-512F backup kernel: 8 rows per vector step over the ELL mirror.
//
// Needs only the F (foundation) subset — gathers, mul, add — so -mavx512f
// suffices. Compiled with that flag when the toolchain accepts it (see
// src/mdp/CMakeLists.txt); resolve() only routes here when the running CPU
// reports AVX-512F. Otherwise the stub below forwards to scalar and
// avx512_compiled() reports false.
#include "mdp/kernel.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

namespace bvc::mdp::kernel::detail {

bool avx512_compiled() noexcept { return true; }

void backup_avx512(const CompiledModel& model, const double* seed,
                   double scale, const double* bias, SaIndex sa_begin,
                   SaIndex sa_end, double* q_out) noexcept {
  constexpr SaIndex kLanes = 8;
  const std::size_t width = model.ell_width();
  const std::size_t stride = model.ell_stride();
  const double* ell_prob = model.ell_prob();
  const StateId* ell_next = model.ell_next();
  const __m512d vscale = _mm512_set1_pd(scale);

  SaIndex sa = sa_begin;
  // Two independent 8-row blocks per iteration: each lane's running sum is
  // a serial gather->mul->add dependency chain, so a single block leaves
  // the gather unit idle most of the time. Interleaving two blocks' chains
  // roughly doubles the gathers in flight without touching any lane's
  // accumulation order (each row still sums its outcomes in j order).
  for (; sa + 2 * kLanes <= sa_end; sa += 2 * kLanes) {
    __m512d q0 = seed != nullptr ? _mm512_loadu_pd(seed + sa)
                                 : _mm512_setzero_pd();
    __m512d q1 = seed != nullptr ? _mm512_loadu_pd(seed + sa + kLanes)
                                 : _mm512_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      const StateId* row_next = ell_next + j * stride + sa;
      const double* row_prob = ell_prob + j * stride + sa;
      const __m256i idx0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next));
      const __m256i idx1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row_next + kLanes));
      const __m512d b0 = _mm512_i32gather_pd(idx0, bias, 8);
      const __m512d b1 = _mm512_i32gather_pd(idx1, bias, 8);
      const __m512d p0 = _mm512_mul_pd(vscale, _mm512_loadu_pd(row_prob));
      const __m512d p1 =
          _mm512_mul_pd(vscale, _mm512_loadu_pd(row_prob + kLanes));
      // mul then add, never FMA: each term must round exactly like the
      // scalar (scale * p) * b before joining the lane's running sum.
      q0 = _mm512_add_pd(q0, _mm512_mul_pd(p0, b0));
      q1 = _mm512_add_pd(q1, _mm512_mul_pd(p1, b1));
    }
    _mm512_storeu_pd(q_out + sa, q0);
    _mm512_storeu_pd(q_out + sa + kLanes, q1);
  }
  // Single full blocks, then the scalar remainder. Blocks never extend
  // past sa_end — see the AVX2 kernel for the chunk-boundary rationale.
  // The ELL stride is padded to 8 elements, so these loads are in-bounds
  // for any sa < sa_end.
  for (; sa + kLanes <= sa_end; sa += kLanes) {
    __m512d q = seed != nullptr ? _mm512_loadu_pd(seed + sa)
                                : _mm512_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ell_next + j * stride + sa));
      const __m512d b = _mm512_i32gather_pd(idx, bias, 8);
      const __m512d p =
          _mm512_mul_pd(vscale, _mm512_loadu_pd(ell_prob + j * stride + sa));
      q = _mm512_add_pd(q, _mm512_mul_pd(p, b));
    }
    _mm512_storeu_pd(q_out + sa, q);
  }
  if (sa < sa_end) {
    backup_scalar(model, seed, scale, bias, sa, sa_end, q_out);
  }
}

void rvi_combine_avx512(const CompiledModel& model, const double* rewards,
                        double tau, const double* bias_in, const double* q_all,
                        double reference_residual, StateId s_begin,
                        StateId s_end, double* bias_out,
                        std::uint32_t* policy_out, double* span_min_io,
                        double* span_max_io) noexcept {
  // Dispatcher precondition: uniform 2-action menu, greedy mode. Eight
  // states per step: the two action columns are deinterleaved from the
  // contiguous q/rewards streams (sa = 2s + a), so every floating-point
  // op is the same elementwise add/mul/sub/min/max the scalar loop
  // performs — no reassociation, no FMA (-ffp-contract=off).
  constexpr StateId kLanes = 8;
  const __m512d vtau = _mm512_set1_pd(tau);
  // fl(1 - tau) once, then fl(that * bias) per lane — the scalar damped
  // term's exact roundings.
  const __m512d vdamp = _mm512_set1_pd(1.0 - tau);
  const __m512d vref = _mm512_set1_pd(reference_residual);
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  __m512d vmin = _mm512_set1_pd(*span_min_io);
  __m512d vmax = _mm512_set1_pd(*span_max_io);
  const __m512i action_one = _mm512_set1_epi64(1);

  StateId s = s_begin;
  for (; s + kLanes <= s_end; s += kLanes) {
    const std::size_t sa = 2 * static_cast<std::size_t>(s);
    const __m512d qlo = _mm512_loadu_pd(q_all + sa);
    const __m512d qhi = _mm512_loadu_pd(q_all + sa + kLanes);
    const __m512d rlo = _mm512_loadu_pd(rewards + sa);
    const __m512d rhi = _mm512_loadu_pd(rewards + sa + kLanes);
    const __m512d q0 = _mm512_permutex2var_pd(qlo, even, qhi);
    const __m512d q1 = _mm512_permutex2var_pd(qlo, odd, qhi);
    const __m512d r0 = _mm512_permutex2var_pd(rlo, even, rhi);
    const __m512d r1 = _mm512_permutex2var_pd(rlo, odd, rhi);
    const __m512d b = _mm512_loadu_pd(bias_in + s);
    const __m512d damped = _mm512_mul_pd(vdamp, b);
    const __m512d v0 = _mm512_add_pd(
        _mm512_mul_pd(vtau, _mm512_add_pd(r0, q0)), damped);
    const __m512d v1 = _mm512_add_pd(
        _mm512_mul_pd(vtau, _mm512_add_pd(r1, q1)), damped);
    // Strict greater-than, exactly the scalar `if (q > best)`: action 1
    // wins only when strictly better, ties keep action 0.
    const __mmask8 take1 = _mm512_cmp_pd_mask(v1, v0, _CMP_GT_OQ);
    const __m512d best = _mm512_mask_blend_pd(take1, v0, v1);
    if (policy_out != nullptr) {
      // 64-bit mask-move then narrow: the 256-bit masked forms need
      // AVX512VL, which -mavx512f does not carry.
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(policy_out + s),
          _mm512_cvtepi64_epi32(_mm512_maskz_mov_epi64(take1, action_one)));
    }
    const __m512d residual = _mm512_sub_pd(best, b);
    vmin = _mm512_min_pd(vmin, residual);
    vmax = _mm512_max_pd(vmax, residual);
    _mm512_storeu_pd(bias_out + s, _mm512_sub_pd(best, vref));
  }
  // min/max are exact, so the horizontal reduction order is irrelevant.
  *span_min_io = std::min(*span_min_io, _mm512_reduce_min_pd(vmin));
  *span_max_io = std::max(*span_max_io, _mm512_reduce_max_pd(vmax));
  if (s < s_end) {
    rvi_combine_scalar(model, rewards, tau, bias_in, q_all,
                       reference_residual, s, s_end, bias_out, policy_out,
                       span_min_io, span_max_io);
  }
}

namespace {

// The fused-sweep body, specialized on the ELL width for the common small
// widths (kWidthSpec 0 keeps it a runtime loop). With the width a compile
// constant the j loop flattens into straight-line code — all twelve
// gathers of a superblock visible to the scheduler at once — which is
// worth a few percent on a kernel this latency-sensitive. Specialization
// changes instruction scheduling only, never lane arithmetic.
template <int kWidthSpec>
void rvi_sweep_avx512_impl(const CompiledModel& model, const double* rewards,
                           double tau, const double* bias_in,
                           double reference_residual, StateId s_begin,
                           StateId s_end, double* bias_out,
                           std::uint32_t* policy_out, double* span_min_io,
                           double* span_max_io) noexcept {
  // Dispatcher precondition: ELL mirror present, uniform 2-action menu,
  // greedy mode. Sixteen states (32 flat actions) per outer step: four
  // 8-lane gather chains accumulate the expected-next values in registers
  // — the unroll keeps enough gathers in flight to cover their latency —
  // and the combine consumes them before they ever touch memory. Every
  // lane evaluates the exact scalar expression tree (separate mul/add,
  // -ffp-contract=off), so the result is bit-identical to the split
  // backup_expected + rvi_combine pair.
  constexpr StateId kBlock = 8;   // states per combine vector
  constexpr StateId kStep = 16;   // states per unrolled outer iteration
  const std::size_t width =
      kWidthSpec > 0 ? static_cast<std::size_t>(kWidthSpec)
                     : model.ell_width();
  const std::size_t stride = model.ell_stride();
  const double* ell_prob = model.ell_prob();
  const StateId* ell_next = model.ell_next();
  const __m512d vtau = _mm512_set1_pd(tau);
  const __m512d vdamp = _mm512_set1_pd(1.0 - tau);
  const __m512d vref = _mm512_set1_pd(reference_residual);
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512i action_one = _mm512_set1_epi64(1);
  __m512d vmin = _mm512_set1_pd(*span_min_io);
  __m512d vmax = _mm512_set1_pd(*span_max_io);

  StateId s = s_begin;
  for (; s + kStep <= s_end; s += kStep) {
    const std::size_t sa = 2 * static_cast<std::size_t>(s);
    __m512d q0 = _mm512_setzero_pd();
    __m512d q1 = _mm512_setzero_pd();
    __m512d q2 = _mm512_setzero_pd();
    __m512d q3 = _mm512_setzero_pd();
    for (std::size_t j = 0; j < width; ++j) {
      const StateId* row_next = ell_next + j * stride + sa;
      const double* row_prob = ell_prob + j * stride + sa;
      const __m512d b0 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next)),
          bias_in, 8);
      const __m512d b1 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next + 8)),
          bias_in, 8);
      const __m512d b2 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next + 16)),
          bias_in, 8);
      const __m512d b3 = _mm512_i32gather_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_next + 24)),
          bias_in, 8);
      // At scale 1 the backup term is fl(p * b) (fl(1.0 * p) == p), with
      // mul and add kept separate exactly like backup_avx512.
      q0 = _mm512_add_pd(q0, _mm512_mul_pd(_mm512_loadu_pd(row_prob), b0));
      q1 = _mm512_add_pd(q1,
                         _mm512_mul_pd(_mm512_loadu_pd(row_prob + 8), b1));
      q2 = _mm512_add_pd(q2,
                         _mm512_mul_pd(_mm512_loadu_pd(row_prob + 16), b2));
      q3 = _mm512_add_pd(q3,
                         _mm512_mul_pd(_mm512_loadu_pd(row_prob + 24), b3));
    }
    for (int half = 0; half < 2; ++half) {
      const __m512d qlo = half == 0 ? q0 : q2;
      const __m512d qhi = half == 0 ? q1 : q3;
      const StateId so = s + half * kBlock;
      const std::size_t sao = sa + half * 2 * kBlock;
      const __m512d rlo = _mm512_loadu_pd(rewards + sao);
      const __m512d rhi = _mm512_loadu_pd(rewards + sao + kBlock);
      const __m512d qa = _mm512_permutex2var_pd(qlo, even, qhi);
      const __m512d qb = _mm512_permutex2var_pd(qlo, odd, qhi);
      const __m512d ra = _mm512_permutex2var_pd(rlo, even, rhi);
      const __m512d rb = _mm512_permutex2var_pd(rlo, odd, rhi);
      const __m512d b = _mm512_loadu_pd(bias_in + so);
      const __m512d damped = _mm512_mul_pd(vdamp, b);
      const __m512d v0 = _mm512_add_pd(
          _mm512_mul_pd(vtau, _mm512_add_pd(ra, qa)), damped);
      const __m512d v1 = _mm512_add_pd(
          _mm512_mul_pd(vtau, _mm512_add_pd(rb, qb)), damped);
      // Strict greater-than, exactly the scalar `if (q > best)`: ties
      // keep action 0.
      const __mmask8 take1 = _mm512_cmp_pd_mask(v1, v0, _CMP_GT_OQ);
      const __m512d best = _mm512_mask_blend_pd(take1, v0, v1);
      if (policy_out != nullptr) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(policy_out + so),
            _mm512_cvtepi64_epi32(_mm512_maskz_mov_epi64(take1, action_one)));
      }
      const __m512d residual = _mm512_sub_pd(best, b);
      vmin = _mm512_min_pd(vmin, residual);
      vmax = _mm512_max_pd(vmax, residual);
      _mm512_storeu_pd(bias_out + so, _mm512_sub_pd(best, vref));
    }
  }
  *span_min_io = std::min(*span_min_io, _mm512_reduce_min_pd(vmin));
  *span_max_io = std::max(*span_max_io, _mm512_reduce_max_pd(vmax));
  if (s < s_end) {
    rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s,
                     s_end, bias_out, policy_out, span_min_io, span_max_io);
  }
}

}  // namespace

void rvi_sweep_avx512(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  switch (model.ell_width()) {
    case 1:
      rvi_sweep_avx512_impl<1>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    case 2:
      rvi_sweep_avx512_impl<2>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    case 3:
      rvi_sweep_avx512_impl<3>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    case 4:
      rvi_sweep_avx512_impl<4>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
    default:
      rvi_sweep_avx512_impl<0>(model, rewards, tau, bias_in,
                               reference_residual, s_begin, s_end, bias_out,
                               policy_out, span_min_io, span_max_io);
      return;
  }
}

}  // namespace bvc::mdp::kernel::detail

#else  // !defined(__AVX512F__)

namespace bvc::mdp::kernel::detail {

bool avx512_compiled() noexcept { return false; }

void backup_avx512(const CompiledModel& model, const double* seed,
                   double scale, const double* bias, SaIndex sa_begin,
                   SaIndex sa_end, double* q_out) noexcept {
  backup_scalar(model, seed, scale, bias, sa_begin, sa_end, q_out);
}

void rvi_combine_avx512(const CompiledModel& model, const double* rewards,
                        double tau, const double* bias_in, const double* q_all,
                        double reference_residual, StateId s_begin,
                        StateId s_end, double* bias_out,
                        std::uint32_t* policy_out, double* span_min_io,
                        double* span_max_io) noexcept {
  rvi_combine_scalar(model, rewards, tau, bias_in, q_all, reference_residual,
                     s_begin, s_end, bias_out, policy_out, span_min_io,
                     span_max_io);
}

void rvi_sweep_avx512(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept {
  rvi_sweep_scalar(model, rewards, tau, bias_in, reference_residual, s_begin,
                   s_end, bias_out, policy_out, span_min_io, span_max_io);
}

}  // namespace bvc::mdp::kernel::detail

#endif
