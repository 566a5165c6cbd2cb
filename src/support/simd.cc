// Scalar backend + runtime dispatch of the SIMD layer (simd.h).
//
// The scalar entry points below are the semantic reference: the AVX2 backend
// must reproduce their integer/uniform derivation bit for bit and their
// transcendentals within simd.h's documented ULP bound. Dispatch picks
// AVX2 when the build is x86-64 and the running CPU supports it, once per
// process; force_backend() overrides for tests and A/B benchmarks.
#include "src/support/simd.h"

#include <bit>
#include <cmath>
#include <optional>
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

std::optional<Backend> g_forced;  // force_backend's override, if any

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "unknown";
}

bool backend_available(Backend backend) noexcept {
#if defined(__x86_64__)
  if (backend == Backend::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
  return backend == Backend::kScalar;
}

Backend active_backend() noexcept {
  if (g_forced) return *g_forced;
  static const Backend best =
      backend_available(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
  return best;
}

#if defined(__x86_64__)
const Ops& avx2_ops() noexcept;  // simd_avx2.cc
#endif

const Ops& ops(Backend backend) {
  if (!backend_available(backend)) {
    throw std::invalid_argument(std::string("simd: backend '") +
                                backend_name(backend) +
                                "' is not available on this build/CPU");
  }
#if defined(__x86_64__)
  if (backend == Backend::kAvx2) return avx2_ops();
#endif
  return kScalarOps;
}

void force_backend(Backend backend) {
  static_cast<void>(ops(backend));  // throws when unavailable
  g_forced = backend;
}

void clear_forced_backend() noexcept { g_forced.reset(); }

const Ops& ops() noexcept { return ops(active_backend()); }

}  // namespace trimcaching::support::simd
