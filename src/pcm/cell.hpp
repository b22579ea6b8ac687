// Multi-level phase-change memory cell (paper Section II-A, Figure 1).
//
// A cell stores a 4-bit level in its conductance state (IBM 4-bit PCM, Table
// I). Programming applies RESET (amorphize) then iterative SET pulses;
// every programming operation wears the cell, which is the quantity the
// paper's endurance-aware compiler transformations minimize.
#pragma once

#include <cstdint>

#include "support/rng.hpp"

namespace tdo::pcm {

/// Device-physics parameters for one PCM cell.
struct CellParams {
  std::uint8_t bits = 4;                 // levels = 2^bits
  double g_min_siemens = 0.1e-6;         // fully amorphous conductance
  double g_max_siemens = 20e-6;          // fully crystalline conductance
  double read_noise_sigma = 0.0;         // relative sigma on conductance reads
  std::uint64_t endurance_writes = 10'000'000;  // cell wears out after this
};

/// One memristive device. Value semantics; a crossbar owns a dense grid.
class PcmCell {
 public:
  PcmCell() = default;
  explicit PcmCell(const CellParams& params) : params_{&params} {}

  /// Number of distinct programmable levels.
  [[nodiscard]] std::uint32_t levels() const { return 1u << params()->bits; }

  /// Programs the cell to `level` (0 = high-resistance amorphous). Counts a
  /// write cycle even when the target equals the current level: the
  /// program-and-verify sequence always applies a RESET pulse first.
  void program(std::uint8_t level);

  /// Stored level (digital view used by the functional datapath).
  [[nodiscard]] std::uint8_t level() const { return level_; }

  /// Analog conductance, linearly interpolated across levels; applies read
  /// noise when the cell parameters request it.
  [[nodiscard]] double conductance(support::Rng* rng = nullptr) const;

  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] bool worn_out() const {
    return writes_ >= params()->endurance_writes;
  }

 private:
  [[nodiscard]] const CellParams* params() const {
    static constexpr CellParams kDefault{};
    return params_ != nullptr ? params_ : &kDefault;
  }

  const CellParams* params_ = nullptr;  // shared, owned by the crossbar
  std::uint8_t level_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace tdo::pcm
