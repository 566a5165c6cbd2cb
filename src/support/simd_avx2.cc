// AVX2(+FMA) backend of the SIMD layer (simd.h): 4-wide double kernels for
// the fading hot path, across 4 lanes of one link when the lane count is a
// multiple of 4 (EvalPlan's 16-realization blocks) and across 4 links of
// one lane otherwise. Every element takes the same vector op sequence in
// either layout, so the two agree bit for bit. Compiled via function-level
// target attributes so the library's baseline ISA is untouched; simd.cc only
// dispatches here after a cpuid check, so none of these functions executes
// on a non-AVX2 machine.
//
// Numerics: the integer counter -> uniform path is exactly simd.cc's scalar
// derivation (64-bit multiplies emulated with 32x32 pieces — AVX2 has no
// vpmullq). ln/log2 use the standard argument reduction x = m * 2^e with
// m in [sqrt(2)/2, sqrt(2)) and the atanh series
// ln(m) = 2s(1 + z/3 + ... + z^10/21), s = (m-1)/(m+1), z = s^2 — truncation
// below 1e-18 relative, total error well inside simd.h's kMaxUlpError.
#include "src/support/simd.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>

namespace trimcaching::support::simd {

namespace {

#define TRIMCACHING_AVX2 __attribute__((target("avx2,fma")))

constexpr std::uint64_t kMixC1 = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kMixC2 = 0x94d049bb133111ebull;
// ln2 split: hi has 20 trailing zero bits, so e * ln2_hi is exact for the
// exponent range of doubles.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kInvLn2 = 1.44269504088896340736;
constexpr double kSqrt2 = 1.41421356237309514547;  // sqrt(2) rounded down
constexpr double kTwo52 = 4503599627370496.0;      // 2^52

// 64x64 -> low 64 multiply out of 32x32 pieces (Agner Fog's construction).
TRIMCACHING_AVX2 inline __m256i mullo64(__m256i a, __m256i b) {
  const __m256i bswap = _mm256_shuffle_epi32(b, 0xB1);   // per-64 hi<->lo
  const __m256i prodlh = _mm256_mullo_epi32(a, bswap);   // aL*bH, aH*bL
  const __m256i zero = _mm256_setzero_si256();
  const __m256i sums = _mm256_hadd_epi32(prodlh, zero);  // cross sums packed low
  const __m256i cross = _mm256_shuffle_epi32(sums, 0x73);  // into each hi 32
  const __m256i prodll = _mm256_mul_epu32(a, b);           // aL*bL full 64
  return _mm256_add_epi64(prodll, cross);
}

TRIMCACHING_AVX2 inline __m256i mix64_v(__m256i z) {
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  z = mullo64(z, _mm256_set1_epi64x(static_cast<long long>(kMixC1)));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
  z = mullo64(z, _mm256_set1_epi64x(static_cast<long long>(kMixC2)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

// Shared reduction of ln: x = m * 2^e with m in [sqrt2/2, sqrt2), returns
// ln(m) via the atanh series and e as a double.
TRIMCACHING_AVX2 inline void reduce_ln(__m256d x, __m256d& ln_m, __m256d& e) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i expi = _mm256_srli_epi64(bits, 52);  // biased exponent (sign 0)
  // int -> double via the 2^52 exponent trick; fold the bias subtraction in.
  const __m256d biased = _mm256_castsi256_pd(
      _mm256_or_si256(expi, _mm256_set1_epi64x(0x4330000000000000ll)));
  e = _mm256_sub_pd(biased, _mm256_set1_pd(kTwo52 + 1023.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll)),
      _mm256_set1_epi64x(0x3FF0000000000000ll)));  // m in [1, 2)
  const __m256d gt = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), gt);
  e = _mm256_add_pd(e, _mm256_and_pd(gt, _mm256_set1_pd(1.0)));

  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d z = _mm256_mul_pd(s, s);
  __m256d p = _mm256_set1_pd(1.0 / 21.0);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 19.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 17.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 15.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 13.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 11.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 9.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 7.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 5.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 3.0));
  p = _mm256_fmadd_pd(p, z, one);
  ln_m = _mm256_mul_pd(_mm256_add_pd(s, s), p);
}

/// ln(x) for normal positive x (the fading inputs: no zero/denormal/inf).
TRIMCACHING_AVX2 inline __m256d ln_pd(__m256d x) {
  __m256d ln_m, e;
  reduce_ln(x, ln_m, e);
  // e*ln2_hi is exact; the low part rides in with ln(m).
  return _mm256_add_pd(
      _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Lo), ln_m),
      _mm256_mul_pd(e, _mm256_set1_pd(kLn2Hi)));
}

/// log2(x) for x >= 1 (the transform's 1 + snr*gain): e >= 0, no
/// cancellation between e and ln(m)/ln2.
TRIMCACHING_AVX2 inline __m256d log2_pd(__m256d x) {
  __m256d ln_m, e;
  reduce_ln(x, ln_m, e);
  return _mm256_fmadd_pd(ln_m, _mm256_set1_pd(kInvLn2), e);
}

// Four gains from four counters key + (l+1)*kGamma: bits = mix64(counter),
// u = 2 - bit_cast<double>((bits >> 12) | 1.0exp), gain = -ln(u).
TRIMCACHING_AVX2 inline __m256d gains_group(__m256i counters) {
  const __m256i bits = mix64_v(counters);
  const __m256i ubits = _mm256_or_si256(_mm256_srli_epi64(bits, 12),
                                        _mm256_set1_epi64x(0x3FF0000000000000ll));
  const __m256d u =
      _mm256_sub_pd(_mm256_set1_pd(2.0), _mm256_castsi256_pd(ubits));
  const __m256d ln_u = ln_pd(u);
  return _mm256_sub_pd(_mm256_setzero_pd(), ln_u);
}

// A group of 4 elements `stride` apart, the first `count` of them real:
// one vector load/store, or a zero-padded gather/scatter through a buffer.
TRIMCACHING_AVX2 inline __m256d load_group(const double* src, std::size_t stride,
                                           std::size_t count) {
  if (stride == 1 && count == 4) return _mm256_loadu_pd(src);
  alignas(32) double tmp[4] = {0, 0, 0, 0};
  for (std::size_t t = 0; t < count; ++t) tmp[t] = src[t * stride];
  return _mm256_load_pd(tmp);
}

TRIMCACHING_AVX2 inline void store_group(double* dst, std::size_t stride,
                                         std::size_t count, __m256d v) {
  if (stride == 1 && count == 4) {
    _mm256_storeu_pd(dst, v);
    return;
  }
  alignas(32) double tmp[4];
  _mm256_store_pd(tmp, v);
  for (std::size_t t = 0; t < count; ++t) dst[t * stride] = tmp[t];
}

TRIMCACHING_AVX2 void avx2_rayleigh_gains(const std::uint64_t* keys,
                                          std::size_t lanes, std::size_t n,
                                          double* gains) {
  const __m256i gamma = _mm256_set1_epi64x(static_cast<long long>(kGamma));
  if (lanes % 4 == 0) {
    // Across 4 lanes of one link: counters keys[j..j+4) + (l+1)·kGamma.
    __m256i offset = gamma;
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t j = 0; j < lanes; j += 4) {
        const __m256i counters = _mm256_add_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j)), offset);
        _mm256_storeu_pd(gains + l * lanes + j, gains_group(counters));
      }
      offset = _mm256_add_epi64(offset, gamma);
    }
    return;
  }
  // Across 4 links of one lane: counters key + (l+1..l+4)·kGamma.
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kGamma));
  for (std::size_t j = 0; j < lanes; ++j) {
    const std::uint64_t key = keys[j];
    __m256i counters = _mm256_set_epi64x(
        static_cast<long long>(key + 4 * kGamma), static_cast<long long>(key + 3 * kGamma),
        static_cast<long long>(key + 2 * kGamma), static_cast<long long>(key + 1 * kGamma));
    for (std::size_t l = 0; l < n; l += 4) {
      store_group(gains + l * lanes + j, lanes, std::min<std::size_t>(4, n - l),
                  gains_group(counters));
      counters = _mm256_add_epi64(counters, step);
    }
  }
}

TRIMCACHING_AVX2 inline __m256d inv_rate_group(__m256d bw, __m256d snr,
                                               __m256d gains) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d y = _mm256_fmadd_pd(snr, gains, one);
  return _mm256_div_pd(one, _mm256_mul_pd(bw, log2_pd(y)));
}

TRIMCACHING_AVX2 void avx2_inv_rate_from_gains(const double* bw, const double* snr,
                                               const double* gains, std::size_t lanes,
                                               std::size_t n, double* inv) {
  if (lanes % 4 == 0) {
    // Across 4 lanes of one link, the link's bandwidth and SNR broadcast.
    for (std::size_t l = 0; l < n; ++l) {
      const __m256d bw_l = _mm256_set1_pd(bw[l]);
      const __m256d snr_l = _mm256_set1_pd(snr[l]);
      for (std::size_t i = l * lanes; i < (l + 1) * lanes; i += 4) {
        _mm256_storeu_pd(inv + i, inv_rate_group(bw_l, snr_l, _mm256_loadu_pd(gains + i)));
      }
    }
    return;
  }
  // Across 4 links of one lane; zero padding past n gives 1/0 lanes that
  // are never stored.
  for (std::size_t j = 0; j < lanes; ++j) {
    for (std::size_t l = 0; l < n; l += 4) {
      const std::size_t count = std::min<std::size_t>(4, n - l);
      const std::size_t i = l * lanes + j;
      store_group(inv + i, lanes, count,
                  inv_rate_group(load_group(bw + l, 1, count),
                                 load_group(snr + l, 1, count),
                                 load_group(gains + i, lanes, count)));
    }
  }
}

#undef TRIMCACHING_AVX2

constexpr Ops kAvx2Ops{avx2_rayleigh_gains, avx2_inv_rate_from_gains};

}  // namespace

const Ops& avx2_ops() noexcept { return kAvx2Ops; }

}  // namespace trimcaching::support::simd

#endif  // __x86_64__
