// Scalar backend + runtime dispatch of the SIMD layer (simd.h).
//
// The scalar entry points below are the semantic reference: the vector
// backends must reproduce their integer/uniform derivation bit for bit and
// their transcendentals within simd.h's documented ULP bound. Dispatch picks
// the widest compiled-in backend the running CPU supports, once per process;
// force_backend() overrides for tests and A/B benchmarks.
#include "src/support/simd.h"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/support/rng.h"

namespace trimcaching::support::simd {

namespace {

// ------------------------------------------------------------ scalar backend

// The shared integer -> (0,1] uniform derivation. The top 52 mantissa bits of
// the mixed counter become the fraction of a double in [1,2); u = 2 - that
// value lands in (0,1], so -ln(u) is a finite Exp(1) draw (u == 1 -> 0).
inline double uniform_from_counter(std::uint64_t key, std::uint64_t counter) {
  const std::uint64_t bits = mix64(key + (counter + 1) * kGamma);
  const double w = std::bit_cast<double>((bits >> 12) | 0x3FF0000000000000ull);
  return 2.0 - w;
}

void scalar_rayleigh_gains(std::uint64_t key, std::size_t n, double* gains) {
  for (std::size_t l = 0; l < n; ++l) {
    gains[l] = -std::log(uniform_from_counter(key, l));
  }
}

void scalar_inv_rate_from_gains(const double* bw, const double* snr,
                                const double* gains, std::size_t n, double* inv) {
  for (std::size_t l = 0; l < n; ++l) {
    inv[l] = 1.0 / (bw[l] * std::log2(1.0 + snr[l] * gains[l]));
  }
}

constexpr Ops kScalarOps{scalar_rayleigh_gains, scalar_inv_rate_from_gains};

// ---------------------------------------------------------------- dispatch

Backend detect_best() noexcept {
#if defined(TRIMCACHING_SIMD) && (defined(__x86_64__) || defined(_M_X64))
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend::kAvx2;
  }
#endif
#if defined(TRIMCACHING_SIMD) && defined(__aarch64__)
  return Backend::kNeon;  // NEON is baseline on AArch64
#endif
  return Backend::kScalar;
}

// kScalar doubles as "no override": forcing scalar and auto-detecting scalar
// dispatch identically, so the conflation is harmless.
Backend g_forced = Backend::kScalar;
bool g_force_active = false;

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kNeon: return "neon";
  }
  return "unknown";
}

bool backend_available(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(TRIMCACHING_SIMD) && (defined(__x86_64__) || defined(_M_X64))
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(TRIMCACHING_SIMD) && defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::size_t lane_width(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return 1;
    case Backend::kAvx2: return 4;
    case Backend::kNeon: return 2;
  }
  return 1;
}

Backend active_backend() noexcept {
  if (g_force_active) return g_forced;
  static const Backend best = detect_best();
  return best;
}

void force_backend(Backend backend) {
  if (!backend_available(backend)) {
    throw std::invalid_argument(std::string("simd::force_backend: backend '") +
                                backend_name(backend) +
                                "' is not available on this build/CPU");
  }
  g_forced = backend;
  g_force_active = true;
}

void clear_forced_backend() noexcept { g_force_active = false; }

#if defined(TRIMCACHING_SIMD) && (defined(__x86_64__) || defined(_M_X64))
const Ops& avx2_ops() noexcept;  // simd_avx2.cc
#endif
#if defined(TRIMCACHING_SIMD) && defined(__aarch64__)
const Ops& neon_ops() noexcept;  // simd_neon.cc
#endif

const Ops& ops(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return kScalarOps;
    case Backend::kAvx2:
#if defined(TRIMCACHING_SIMD) && (defined(__x86_64__) || defined(_M_X64))
      if (backend_available(Backend::kAvx2)) return avx2_ops();
#endif
      break;
    case Backend::kNeon:
#if defined(TRIMCACHING_SIMD) && defined(__aarch64__)
      return neon_ops();
#endif
      break;
  }
  throw std::invalid_argument(std::string("simd::ops: backend '") +
                              backend_name(backend) +
                              "' is not available on this build/CPU");
}

const Ops& ops() noexcept { return ops(active_backend()); }

}  // namespace trimcaching::support::simd
