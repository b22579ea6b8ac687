// PCM endurance / system lifetime model — Equation (1) of the paper:
//
//     SystemLifeTime = CellEndurance * S / B
//
// with S the crossbar size (bytes) and B the write traffic (bytes/s) of the
// kernel, assuming writes localized uniformly across the crossbar. Figure 5
// sweeps CellEndurance over 10..40 million writes and compares the naive
// mapping against TDO-CIM's fusion-aware "smart" mapping.
#pragma once

#include <cstdint>

#include "support/units.hpp"

namespace tdo::pcm {

/// Aggregate write-traffic observation for one kernel execution.
struct WriteTraffic {
  std::uint64_t bytes_written = 0;       // total bytes programmed to crossbar
  support::Duration execution_time;      // kernel wall time

  /// Write bandwidth B in bytes/second.
  [[nodiscard]] double bytes_per_second() const {
    const double secs = execution_time.seconds();
    if (secs <= 0.0) return 0.0;
    return static_cast<double>(bytes_written) / secs;
  }
};

/// Expected system lifetime in years, Eq. (1).
[[nodiscard]] double system_lifetime_years(std::uint64_t cell_endurance_writes,
                                           std::uint64_t crossbar_bytes,
                                           const WriteTraffic& traffic);

/// Lifetime multiplier bought by avoided crossbar writes (Eq. (1) is linear
/// in the inverse write traffic): a kernel that would have programmed
/// `bytes_written + bytes_saved` but, thanks to stationary-tile reuse (the
/// runtime's weight-residency cache), programmed only `bytes_written`, lives
/// (written + saved) / written times longer. Infinity when every write was
/// avoided; 1.0 when nothing was saved.
[[nodiscard]] double lifetime_extension(std::uint64_t bytes_written,
                                        std::uint64_t bytes_saved);

inline constexpr double kSecondsPerYear = 365.25 * 24.0 * 3600.0;

}  // namespace tdo::pcm
