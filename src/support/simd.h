// SIMD layer for the Monte-Carlo fading kernels.
//
// Every fading figure bottoms out in the same three array passes per block
// of realizations (sim/eval_plan.h): sample a Rayleigh power gain per
// (link, realization), transform the gains in place to inverse rates
// 1/(B·log2(1+SNR·g)), and the hit pass (per-user / per-holder min over the
// link spans, then one threshold compare per request row for Eq. 4/5). This
// header wraps the first two passes, whose transcendentals are where
// backends differ, behind one table of entry points (`Ops`) with two
// interchangeable backends. Both passes work on a link-major, lane-blocked
// layout: element [l * lanes + j] belongs to link l and lane (realization
// key) j, so a block of realizations lands directly in the layout the hit
// pass reads, and lanes = 1 is one realization's per-link array. The hit
// pass is GCC vector code inside EvalPlan, instantiated at the baseline ISA
// and under AVX2 and picked by active_backend():
//
//   * kScalar  — plain loops over std::log/std::log2; always available, the
//     semantic reference, and the fallback on CPUs without AVX2;
//   * kAvx2    — 4-wide AVX2(+FMA) x86-64 kernels (simd_avx2.cc), compiled
//     via function-level target attributes so the rest of the library keeps
//     its baseline ISA; selected at runtime only when cpuid reports AVX2.
//     When lanes is a multiple of 4 they vectorize across 4 lanes of one
//     link, otherwise across 4 links of one lane.
//
// x86-64 builds compile the AVX2 backend; other hosts compile only the
// scalar one. Runtime dispatch: ops() returns
// the best available backend's table, decided once per process from CPU
// features; force_backend() overrides it (tests, A/B benchmarks).
//
// Numerical contract (locked by tests/simd_test.cc):
//
//   * rayleigh_gains derives a uniform u(key, l) in (0, 1] *bitwise
//     identically* on every backend and for every lane count — the integer
//     path is mix64(keys[j] + (l+1)·kGamma) with the top 52 bits mapped
//     through the exponent trick u = 2 - (1.m); only the final -ln(u) is
//     backend math. Each element's arithmetic does not depend on its lane
//     position, so a blocked call equals per-key lanes = 1 calls bit for
//     bit on each backend (and so does inv_rate_from_gains). Gains
//     therefore differ across backends by transcendental rounding only:
//     the vector ln/log2 are argument-reduced polynomial kernels accurate
//     to <= kMaxUlpError ULP of the correctly-rounded result (libm's own
//     std::log/std::log2 are faithfully rounded, so backend-vs-scalar
//     element differences are bounded by kMaxUlpError + 1 ULP).
//   * inv_rate_from_gains: the AVX2 backend contracts 1+snr·g into an FMA,
//     so y itself may differ from the scalar two-rounding result by 1 ULP;
//     log2 amplifies that when y is near 1 (log2(y) -> 0). The guarantee is
//     therefore relative, not ULP-tight: |Δinv/inv| <= kMaxRelError, which
//     the seeded-scenario tests gate alongside the end-to-end summaries.
//
// The fading hit *decision* consumes only mins and comparisons against
// per-row thresholds, so given identical inverse-rate arrays it is
// bit-exact on every backend; end-to-end fading summaries across backends
// are tolerance-equal (the ULP wiggle on the transform), which
// tests/simd_test.cc gates over seeded scenarios. The scalar backend
// (force_backend(Backend::kScalar)) draws the same counter stream and is
// the cross-machine reference: runs that need full bit-identity across
// machines force it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace trimcaching::support::simd {

/// Counter stride of the per-link uniform derivation (shared with Rng::at's
/// index mixing so the scheme reads as one derivation family).
inline constexpr std::uint64_t kGamma = 0x94d049bb133111ebull;

/// Documented accuracy bound of the vector ln/log2 kernels, in ULP of the
/// correctly-rounded result (tests measure well under this).
inline constexpr double kMaxUlpError = 4.0;

/// Relative-error bound on inv_rate_from_gains across backends (ULP bounds
/// don't compose through the y ≈ 1 amplification of log2 — see the header
/// contract above).
inline constexpr double kMaxRelError = 1e-12;

enum class Backend {
  kScalar = 0,  ///< std::log/std::log2 loops; always available
  kAvx2 = 1,    ///< 4-wide x86-64 AVX2+FMA
};

/// Stable display name ("scalar", "avx2").
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// Whether `backend` was compiled in AND the running CPU supports it.
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// The backend ops() dispatches to: the forced override if set, otherwise
/// the best available backend (decided once from CPU features).
[[nodiscard]] Backend active_backend() noexcept;

/// Test/bench override of the dispatch decision. Throws std::invalid_argument
/// if the backend is unavailable. Not thread-safe: call only from a single
/// thread with no concurrent kernel running.
void force_backend(Backend backend);

/// Drops the force_backend override (back to auto-detection).
void clear_forced_backend() noexcept;

/// Entry points of one backend, over n links x `lanes` (>= 1) lanes in the
/// link-major layout [l * lanes + j]. All functions tolerate n == 0 and make
/// no alignment assumptions.
struct Ops {
  /// gains[l * lanes + j] = -ln(u(keys[j], l)) with u(key, l) in (0, 1]
  /// derived counter-based as u = 2 - bit_cast<double>((mix64(key +
  /// (l+1)·kGamma) >> 12) | 1.0's exponent) — i.e. i.i.d. Exp(1) Rayleigh
  /// power gains, one realization per key, independent of call order and
  /// lane position. The integer/u path is bit-identical on every backend;
  /// only the ln rounding differs (see header contract).
  void (*rayleigh_gains)(const std::uint64_t* keys, std::size_t lanes,
                         std::size_t n, double* gains);

  /// inv[l * lanes + j] = 1 / (bw[l] * log2(1 + snr[l] * gains[l * lanes + j])).
  /// Zero-bandwidth or zero-SNR links fall out as +inf (1/0). inv may be
  /// gains itself (an in-place transform), but no other overlap.
  void (*inv_rate_from_gains)(const double* bw, const double* snr,
                              const double* gains, std::size_t lanes,
                              std::size_t n, double* inv);
};

/// The active backend's entry points (runtime dispatch, resolved per call so
/// force_backend takes effect immediately).
[[nodiscard]] const Ops& ops() noexcept;

/// A specific backend's entry points. Throws std::invalid_argument when the
/// backend is unavailable.
[[nodiscard]] const Ops& ops(Backend backend);

}  // namespace trimcaching::support::simd
