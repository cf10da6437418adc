// Vectorized expected-value backup kernels with runtime ISA dispatch.
//
// The one primitive every solver sweep reduces to is, per flat action sa,
//
//   q_out[sa] = (seed ? seed[sa] : 0.0)
//             + sum_j fl( fl(scale * p_j) * bias[next_j] )      (j in row order)
//
// where (p_j, next_j) are action sa's outcome rows and fl() is one double
// rounding. Each solver is that primitive plus a cheap per-state combine:
//
//   * RVI (average_reward):  seed = null, scale = 1     (rewards + tau
//     transform are applied in the combine, exactly as the scalar sweep);
//   * discounted VI:         seed = expected_reward, scale = discount;
//   * policy-iteration greedy pass: seed = sa_rewards, scale = 1;
//   * the fixed-tau damped bench variant: seed = null, scale = tau
//     (fl(tau * p) is bit-equal to the precompiled damped_prob column).
//
// Bit-identity policy: the vector kernels evaluate the EXACT same
// expression tree as the scalar CSR loop — per row, terms are accumulated
// in outcome order with separate multiply and add (never FMA, which fuses
// the rounding), and each SIMD lane owns one whole row (the ELL mirror is
// column-major, so lane l of a vector step is outcome j of row sa+l).
// Vectorization therefore reorders nothing within a row and sums nothing
// across rows, and q_out is bit-identical to the scalar kernel for every
// ISA. The one exception is the sign of zero: ELL padding accumulates
// exact +/-0.0 terms, which can flip a zero result's sign (+0.0 == -0.0,
// so compare with ==, not memcmp). Solvers that adopt the kernel switch
// from Gauss-Seidel to Jacobi sweeps where they had a serial in-place
// path, which follows a different (equally valid) trajectory to the same
// fixed point — that is a sweep-discipline change, not a kernel rounding
// change, and it is why the fast path is tolerance-gated against the
// threads == 1 reference (and bit-identical against the Jacobi path).
//
// Dispatch: the process-wide request (BVC_KERNEL env var, overridden by
// the --kernel flag via set_requested) is clamped to what the build
// carries AND the CPU supports (util::cpu_features) — avx512 degrades to
// avx2 degrades to scalar. When the request is auto and both vector ISAs
// are usable, resolve() picks between them by a one-shot per-process
// micro-calibration (gather throughput decides this kernel, and 8-lane
// zmm gathers are slower per lane than 4-lane ymm ones on Skylake-class
// parts, so "widest available" is the wrong rule); explicit requests are
// honored as given. resolve() records the chosen ISA in the
// mdp.kernel.isa gauge; benches also stamp it into the run manifest.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "mdp/compiled_model.hpp"

namespace bvc::mdp::kernel {

/// An ISA the backup primitive can execute with. Values are stable (the
/// mdp.kernel.isa gauge exports them): 0 scalar, 1 avx2, 2 avx512.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// What the user asked for; kAuto picks the best available ISA.
enum class Request : int { kAuto = -1, kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Parses "auto" | "scalar" | "avx2" | "avx512" (the --kernel / BVC_KERNEL
/// vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<Request> parse_request(
    std::string_view name) noexcept;

[[nodiscard]] std::string_view to_string(Isa isa) noexcept;
[[nodiscard]] std::string_view to_string(Request request) noexcept;

/// The process-wide kernel request. Initialized once from the BVC_KERNEL
/// environment variable (unset or invalid -> kAuto, invalid warns on
/// stderr); set_requested overrides it (the --kernel flag plumbing).
[[nodiscard]] Request requested() noexcept;
void set_requested(Request request) noexcept;

/// True iff this build contains the ISA's code path AND the running CPU
/// can execute it. kScalar is always available.
[[nodiscard]] bool isa_available(Isa isa) noexcept;

/// `request` clamped to availability (avx512 -> avx2 -> scalar); records
/// the result in the mdp.kernel.isa gauge when metrics are enabled. The
/// zero-argument form resolves the process-wide requested().
[[nodiscard]] Isa resolve(Request request) noexcept;
[[nodiscard]] Isa resolve() noexcept;

/// The backup primitive (file comment) over flat actions
/// [sa_begin, sa_end). `seed` is null or num_state_actions() doubles;
/// `bias` has num_states() doubles; `q_out` has capacity for indices
/// [sa_begin, sa_end). Vector ISAs require model.has_ell() (callers gate
/// on it; a non-ELL model silently runs the scalar path). Thread-safe for
/// disjoint [sa_begin, sa_end) ranges over shared inputs.
void backup_expected(const CompiledModel& model, const double* seed,
                     double scale, const double* bias, SaIndex sa_begin,
                     SaIndex sa_end, double* q_out, Isa isa) noexcept;

/// The RVI Jacobi combine step over states [s_begin, s_end): consumes the
/// expected-next column `q_all` that backup_expected produced (seed null,
/// scale 1) and finishes the sweep. Per state s,
///
///   value(a)    = fl( fl(tau * fl(rewards[sa] + q_all[sa]))
///                     + fl((1 - tau) * bias_in[s]) )          sa = base + a
///   best        = max_a value(a)   (argmax ties keep the LOWER action,
///                                   matching the scalar `if (q > best)`)
///   bias_out[s] = fl(best - reference_residual)
///   policy_out[s] = argmax          (skipped when policy_out is null)
///   *span_min_io / *span_max_io accumulate fl(best - bias_in[s])
///
/// Every operation above is an elementwise add/mul/sub/min/max — no
/// accumulation crosses states — so the vector path (taken when the model's
/// action menu is uniform with 2 actions, the shape of all the paper's
/// attack models) is bit-identical to the scalar loop. Thread-safe for
/// disjoint state ranges; span pointers must be distinct per caller/chunk.
void rvi_combine(const CompiledModel& model, const double* rewards, double tau,
                 const double* bias_in, const double* q_all,
                 double reference_residual, StateId s_begin, StateId s_end,
                 double* bias_out, std::uint32_t* policy_out,
                 double* span_min_io, double* span_max_io, Isa isa) noexcept;

/// The fused RVI Jacobi sweep over states [s_begin, s_end): backup_expected
/// (seed null, scale 1) and rvi_combine in a single traversal, with each
/// state's expected-next values held in registers instead of round-tripping
/// through a q column. Exactly the composition the two primitives document
/// — same expression tree per lane, same argmax tie rule, same span
/// accumulation — so the result is bit-identical to running them
/// separately (modulo the sign of exact zeros, as ever). This is the RVI
/// fast path: the sweep is single-core bandwidth-bound on real models, and
/// eliminating the q column's store+reload (16 bytes per state-action per
/// sweep) is worth more than any amount of instruction tuning. The vector
/// path engages when the model has an ELL mirror and the action menu is
/// uniform with 2 actions; everything else runs the scalar loop.
/// Thread-safe for disjoint state ranges; span pointers must be distinct
/// per caller/chunk.
void rvi_sweep(const CompiledModel& model, const double* rewards, double tau,
               const double* bias_in, double reference_residual,
               StateId s_begin, StateId s_end, double* bias_out,
               std::uint32_t* policy_out,
               double* span_min_io, double* span_max_io, Isa isa) noexcept;

namespace detail {
// Per-ISA implementations. The avx2/avx512 symbols exist in every build;
// when their translation unit was compiled without the ISA (non-x86
// toolchain) they forward to scalar and *_compiled() reports false, so
// isa_available() keeps resolve() away from them.
void backup_scalar(const CompiledModel& model, const double* seed,
                   double scale, const double* bias, SaIndex sa_begin,
                   SaIndex sa_end, double* q_out) noexcept;
void backup_avx2(const CompiledModel& model, const double* seed, double scale,
                 const double* bias, SaIndex sa_begin, SaIndex sa_end,
                 double* q_out) noexcept;
void backup_avx512(const CompiledModel& model, const double* seed,
                   double scale, const double* bias, SaIndex sa_begin,
                   SaIndex sa_end, double* q_out) noexcept;
void rvi_combine_scalar(const CompiledModel& model, const double* rewards,
                        double tau, const double* bias_in, const double* q_all,
                        double reference_residual, StateId s_begin,
                        StateId s_end, double* bias_out,
                        std::uint32_t* policy_out, double* span_min_io,
                        double* span_max_io) noexcept;
// The vector combines handle only the uniform-2-action shape (the
// dispatcher routes everything else to scalar).
void rvi_combine_avx2(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in, const double* q_all,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept;
void rvi_combine_avx512(const CompiledModel& model, const double* rewards,
                        double tau, const double* bias_in, const double* q_all,
                        double reference_residual, StateId s_begin,
                        StateId s_end, double* bias_out,
                        std::uint32_t* policy_out, double* span_min_io,
                        double* span_max_io) noexcept;
void rvi_sweep_scalar(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept;
void rvi_sweep_avx2(const CompiledModel& model, const double* rewards,
                    double tau, const double* bias_in,
                    double reference_residual, StateId s_begin, StateId s_end,
                    double* bias_out, std::uint32_t* policy_out,
                    double* span_min_io, double* span_max_io) noexcept;
void rvi_sweep_avx512(const CompiledModel& model, const double* rewards,
                      double tau, const double* bias_in,
                      double reference_residual, StateId s_begin,
                      StateId s_end, double* bias_out,
                      std::uint32_t* policy_out, double* span_min_io,
                      double* span_max_io) noexcept;
[[nodiscard]] bool avx2_compiled() noexcept;
[[nodiscard]] bool avx512_compiled() noexcept;
}  // namespace detail

}  // namespace bvc::mdp::kernel
