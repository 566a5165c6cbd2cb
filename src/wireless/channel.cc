#include "src/wireless/channel.h"

#include <cmath>
#include <stdexcept>

#include "src/support/simd.h"

namespace trimcaching::wireless {

void ChannelParams::validate() const {
  if (gamma0 <= 0) throw std::invalid_argument("ChannelParams: gamma0 must be > 0");
  if (alpha0 <= 0) throw std::invalid_argument("ChannelParams: alpha0 must be > 0");
  if (noise_psd_w_hz <= 0) {
    throw std::invalid_argument("ChannelParams: noise PSD must be > 0");
  }
  if (noise_figure_db < 0) {
    throw std::invalid_argument("ChannelParams: noise figure must be >= 0 dB");
  }
  if (min_distance_m <= 0) {
    throw std::invalid_argument("ChannelParams: min distance must be > 0");
  }
}

double ChannelParams::effective_noise_psd() const noexcept {
  return noise_psd_w_hz * std::pow(10.0, noise_figure_db / 10.0);
}

double path_gain(const ChannelParams& params, double distance_m) {
  const double d = std::max(distance_m, params.min_distance_m);
  return params.gamma0 * std::pow(d, -params.alpha0);
}

double shannon_rate(const ChannelParams& params, double bandwidth_hz,
                    double tx_power_w, double distance_m, double fading_gain) {
  if (bandwidth_hz <= 0 || tx_power_w <= 0) return 0.0;
  if (fading_gain < 0) throw std::invalid_argument("shannon_rate: negative fading gain");
  const double rx_power = tx_power_w * path_gain(params, distance_m) * fading_gain;
  const double noise = params.effective_noise_psd() * bandwidth_hz;
  const double snr = rx_power / noise;
  return bandwidth_hz * std::log2(1.0 + snr);
}

double sample_rayleigh_power_gain(support::Rng& rng) { return rng.exponential(1.0); }

void sample_rayleigh_power_gains(std::uint64_t key, std::size_t n, double* gains) {
  support::simd::ops().rayleigh_gains(&key, 1, n, gains);
}

}  // namespace trimcaching::wireless
