// Shared wall-clock helper for the solve, maintenance and bench timing
// across core/, sim/ and bench/ — one steady_clock idiom instead of
// per-file copies.
#pragma once

#include <chrono>

namespace trimcaching::support {

using WallClock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] inline double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace trimcaching::support
