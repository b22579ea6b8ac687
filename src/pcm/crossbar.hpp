// PCM crossbar array (paper Section II-B, Figure 2c).
//
// Logical geometry: `rows x cols` 8-bit weights. Each 8-bit weight occupies
// two adjacent 4-bit physical columns (MSB nibble, LSB nibble), matching the
// "IBM PCM 2x(256x256 @4-bit)" configuration in Table I.
//
// Signed arithmetic uses offset-binary encoding with digital correction:
// weights and inputs are stored/applied as unsigned (value + 128); the
// digital logic block removes the offset terms using the active-row weight
// sums and the per-GEMV input sum. This is a standard crossbar technique and
// keeps conductances non-negative while recovering the exact signed
// fixed-point dot product.
//
// The simulator keeps two views of the array in step. The cells carry the
// physical state (nibble levels and wear counts, Figure 5). A row-major
// signed weight plane carries the functional state: by the offset-binary
// identity sum (in_u - 128)(w_u - 128) = sum in * w, the noise-free GEMV is
// exactly a signed int8 dot product over contiguous plane rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcm/cell.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace tdo::pcm {

struct CrossbarParams {
  std::uint32_t rows = 256;
  std::uint32_t cols = 256;  // logical 8-bit columns
  CellParams cell;
};

/// Result of one analog matrix-vector evaluation: raw signed 32-bit dot
/// products per logical column (already offset-corrected and nibble-combined).
struct GemvResult {
  std::vector<std::int32_t> acc;
};

class Crossbar {
 public:
  explicit Crossbar(CrossbarParams params);

  [[nodiscard]] std::uint32_t rows() const { return params_.rows; }
  [[nodiscard]] std::uint32_t cols() const { return params_.cols; }
  /// Crossbar capacity in 8-bit weights (the "S" of the paper's Eq. 1 when
  /// multiplied by 2 physical 4-bit devices... S is counted in bytes here).
  [[nodiscard]] std::uint64_t capacity_weights() const {
    return static_cast<std::uint64_t>(params_.rows) * params_.cols;
  }

  /// Programs one row of signed 8-bit weights. `weights.size()` must be
  /// <= cols(); remaining columns are programmed to zero only when
  /// `clear_tail` is set. Returns the number of cell writes performed.
  std::uint64_t write_row(std::uint32_t row, std::span<const std::int8_t> weights,
                          bool clear_tail = false);

  /// Evaluates I = v . G over `active_rows` rows starting at physical row
  /// `row0` with signed 8-bit inputs (the row decoder activates an arbitrary
  /// contiguous row window, so several stationary tiles can coexist in
  /// disjoint row ranges). The computation is exact in fixed point (see
  /// header comment); read noise, if enabled in CellParams, perturbs the
  /// analog accumulation.
  [[nodiscard]] GemvResult gemv(std::span<const std::int8_t> inputs,
                                std::uint32_t active_rows,
                                std::uint32_t active_cols,
                                support::Rng* rng = nullptr,
                                std::uint32_t row0 = 0) const;

  /// Digital view of a stored weight, decoded from the two nibble cells (for
  /// tests and for result verification).
  [[nodiscard]] std::int8_t weight_at(std::uint32_t row, std::uint32_t col) const;

  // --- wear accounting (drives Figure 5) ---
  [[nodiscard]] std::uint64_t total_cell_writes() const { return total_cell_writes_; }
  [[nodiscard]] std::uint64_t max_cell_writes() const;
  [[nodiscard]] std::uint64_t worn_cells() const;
  [[nodiscard]] const CrossbarParams& params() const { return params_; }

 private:
  // Physical layout: per logical column c, MSB cells at 2c, LSB at 2c+1.
  [[nodiscard]] PcmCell& cell(std::uint32_t row, std::uint32_t phys_col) {
    return cells_[static_cast<std::size_t>(row) * phys_cols_ + phys_col];
  }
  [[nodiscard]] const PcmCell& cell(std::uint32_t row, std::uint32_t phys_col) const {
    return cells_[static_cast<std::size_t>(row) * phys_cols_ + phys_col];
  }

  CrossbarParams params_;
  std::uint32_t phys_cols_;
  std::vector<PcmCell> cells_;
  /// Signed weight plane, rows x cols row-major; never-programmed weights
  /// read -128, the value of two level-0 cells.
  std::vector<std::int8_t> weights_;
  std::uint64_t total_cell_writes_ = 0;
};

}  // namespace tdo::pcm
