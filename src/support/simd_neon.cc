// AArch64 NEON backend of the SIMD layer (simd.h): 2-wide double kernels.
// NEON is baseline on AArch64, so no runtime feature check or target
// attributes are needed — the whole file is compile-gated instead.
//
// The integer counter path runs scalar per lane (it is exactly simd.cc's
// derivation, and 64-bit NEON multiplies would have to be emulated anyway);
// the transcendental math is vectorized with the same argument reduction and
// atanh-series polynomial as the AVX2 backend, so the two vector backends
// share one accuracy analysis (<= simd.h kMaxUlpError ULP).
#include "src/support/simd.h"

#if defined(TRIMCACHING_SIMD) && defined(__aarch64__)

#include <arm_neon.h>

#include <bit>
#include <cstring>

#include "src/support/rng.h"

namespace trimcaching::support::simd {

namespace {

constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kInvLn2 = 1.44269504088896340736;
constexpr double kSqrt2 = 1.41421356237309514547;

// Shared reduction: x = m * 2^e, m in [sqrt2/2, sqrt2); returns ln(m) and e.
inline void reduce_ln(float64x2_t x, float64x2_t& ln_m, float64x2_t& e) {
  const uint64x2_t bits = vreinterpretq_u64_f64(x);
  const uint64x2_t expi = vshrq_n_u64(bits, 52);  // biased exponent (sign 0)
  e = vsubq_f64(vcvtq_f64_u64(expi), vdupq_n_f64(1023.0));
  float64x2_t m = vreinterpretq_f64_u64(
      vorrq_u64(vandq_u64(bits, vdupq_n_u64(0x000FFFFFFFFFFFFFull)),
                vdupq_n_u64(0x3FF0000000000000ull)));  // m in [1, 2)
  const uint64x2_t gt = vcgtq_f64(m, vdupq_n_f64(kSqrt2));
  m = vbslq_f64(gt, vmulq_f64(m, vdupq_n_f64(0.5)), m);
  e = vaddq_f64(e, vbslq_f64(gt, vdupq_n_f64(1.0), vdupq_n_f64(0.0)));

  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t s = vdivq_f64(vsubq_f64(m, one), vaddq_f64(m, one));
  const float64x2_t z = vmulq_f64(s, s);
  float64x2_t p = vdupq_n_f64(1.0 / 21.0);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 19.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 17.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 15.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 13.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 11.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 9.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 7.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 5.0), p, z);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 3.0), p, z);
  p = vfmaq_f64(one, p, z);
  ln_m = vmulq_f64(vaddq_f64(s, s), p);
}

/// ln(x) for normal positive x.
inline float64x2_t ln_pd(float64x2_t x) {
  float64x2_t ln_m, e;
  reduce_ln(x, ln_m, e);
  return vaddq_f64(vfmaq_f64(ln_m, e, vdupq_n_f64(kLn2Lo)),
                   vmulq_f64(e, vdupq_n_f64(kLn2Hi)));
}

/// log2(x) for x >= 1.
inline float64x2_t log2_pd(float64x2_t x) {
  float64x2_t ln_m, e;
  reduce_ln(x, ln_m, e);
  return vfmaq_f64(e, ln_m, vdupq_n_f64(kInvLn2));
}

inline double uniform_from_counter(std::uint64_t key, std::uint64_t counter) {
  const std::uint64_t bits = mix64(key + (counter + 1) * kGamma);
  return 2.0 - std::bit_cast<double>((bits >> 12) | 0x3FF0000000000000ull);
}

void neon_rayleigh_gains(std::uint64_t key, std::size_t n, double* gains) {
  std::size_t l = 0;
  for (; l + 2 <= n; l += 2) {
    const double u[2] = {uniform_from_counter(key, l),
                         uniform_from_counter(key, l + 1)};
    const float64x2_t ln_u = ln_pd(vld1q_f64(u));
    vst1q_f64(gains + l, vnegq_f64(ln_u));
  }
  if (l < n) {  // odd tail: same vector math, lane 0 only
    const double u[2] = {uniform_from_counter(key, l), 1.0};
    gains[l] = -vgetq_lane_f64(ln_pd(vld1q_f64(u)), 0);
  }
}

void neon_inv_rate_from_gains(const double* bw, const double* snr,
                              const double* gains, std::size_t n, double* inv) {
  const float64x2_t one = vdupq_n_f64(1.0);
  std::size_t l = 0;
  for (; l + 2 <= n; l += 2) {
    const float64x2_t y = vfmaq_f64(one, vld1q_f64(snr + l), vld1q_f64(gains + l));
    const float64x2_t rate = vmulq_f64(vld1q_f64(bw + l), log2_pd(y));
    vst1q_f64(inv + l, vdivq_f64(one, rate));
  }
  if (l < n) {
    double ts[2] = {snr[l], 0.0};
    double tg[2] = {gains[l], 0.0};
    double tb[2] = {bw[l], 1.0};
    const float64x2_t y = vfmaq_f64(one, vld1q_f64(ts), vld1q_f64(tg));
    const float64x2_t rate = vmulq_f64(vld1q_f64(tb), log2_pd(y));
    inv[l] = vgetq_lane_f64(vdivq_f64(one, rate), 0);
  }
}

constexpr Ops kNeonOps{neon_rayleigh_gains, neon_inv_rate_from_gains};

}  // namespace

const Ops& neon_ops() noexcept { return kNeonOps; }

}  // namespace trimcaching::support::simd

#endif  // TRIMCACHING_SIMD && __aarch64__
