#include "pcm/endurance.hpp"

#include <limits>

namespace tdo::pcm {

double system_lifetime_years(std::uint64_t cell_endurance_writes,
                             std::uint64_t crossbar_bytes,
                             const WriteTraffic& traffic) {
  const double bw = traffic.bytes_per_second();
  if (bw <= 0.0) return 0.0;
  const double seconds = static_cast<double>(cell_endurance_writes) *
                         static_cast<double>(crossbar_bytes) / bw;
  return seconds / kSecondsPerYear;
}

double lifetime_extension(std::uint64_t bytes_written,
                          std::uint64_t bytes_saved) {
  if (bytes_written == 0) {
    return bytes_saved > 0 ? std::numeric_limits<double>::infinity() : 1.0;
  }
  return static_cast<double>(bytes_written + bytes_saved) /
         static_cast<double>(bytes_written);
}

}  // namespace tdo::pcm
