#include "pcm/cell.hpp"

#include <cassert>

namespace tdo::pcm {

void PcmCell::program(std::uint8_t level) {
  assert(level < levels());
  level_ = level;
  ++writes_;
}

double PcmCell::conductance(support::Rng* rng) const {
  const CellParams& p = *params();
  const double span = p.g_max_siemens - p.g_min_siemens;
  const double ideal =
      p.g_min_siemens + span * static_cast<double>(level_) /
                            static_cast<double>(levels() - 1);
  if (rng != nullptr && p.read_noise_sigma > 0.0) {
    return ideal * (1.0 + rng->normal(0.0, p.read_noise_sigma));
  }
  return ideal;
}

}  // namespace tdo::pcm
