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
// The simulator keeps only what that arithmetic and the wear model need: by
// the offset-binary identity sum (in_u - 128)(w_u - 128) = sum in * w, the
// GEMV is exactly a signed dot product over the stored weights, and
// programming a weight always pulses both of its nibble cells, so one write
// count per weight is the wear of both (Figure 5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tdo::pcm {

struct CrossbarParams {
  std::uint32_t rows = 256;
  std::uint32_t cols = 256;  // logical 8-bit columns
  /// A cell wears out once it has been programmed this many times (>= 1).
  std::uint64_t endurance_writes = 10'000'000;
};

class Crossbar {
 public:
  explicit Crossbar(CrossbarParams params);

  [[nodiscard]] std::uint32_t rows() const { return params_.rows; }
  [[nodiscard]] std::uint32_t cols() const { return params_.cols; }
  /// Crossbar capacity in 8-bit weights (the "S" of the paper's Eq. 1,
  /// counted in bytes).
  [[nodiscard]] std::uint64_t capacity_weights() const {
    return static_cast<std::uint64_t>(params_.rows) * params_.cols;
  }

  /// Programs one row of signed 8-bit weights. `weights.size()` must be
  /// <= cols(); remaining columns are programmed to zero only when
  /// `clear_tail` is set. Returns the number of cell writes performed (two
  /// nibble cells per weight).
  std::uint64_t write_row(std::uint32_t row, std::span<const std::int8_t> weights,
                          bool clear_tail = false);

  /// Evaluates I = v . G over `active_rows` rows starting at physical row
  /// `row0` with signed 8-bit inputs (the row decoder activates an arbitrary
  /// contiguous row window, so several stationary tiles can coexist in
  /// disjoint row ranges) and writes the exact signed dot product of each of
  /// the first `out.size()` columns into `out` (see header comment).
  void gemv(std::span<const std::int8_t> inputs, std::uint32_t active_rows,
            std::uint32_t row0, std::span<std::int32_t> out);

  /// Stored weight; never-programmed weights read -128, the value of two
  /// level-0 cells.
  [[nodiscard]] std::int8_t weight_at(std::uint32_t row, std::uint32_t col) const {
    return static_cast<std::int8_t>(plane_[index(row, col)]);
  }

  // --- wear accounting (drives Figure 5) ---
  [[nodiscard]] std::uint64_t total_cell_writes() const { return 2 * total_writes_; }
  [[nodiscard]] std::uint64_t max_cell_writes() const { return max_writes_; }
  [[nodiscard]] std::uint64_t worn_cells() const { return 2 * worn_weights_; }
  [[nodiscard]] const CrossbarParams& params() const { return params_; }

 private:
  /// Column-major: each column's weights are contiguous, so a GEMV column is
  /// one dot product over adjacent int16 values.
  [[nodiscard]] std::size_t index(std::uint32_t row, std::uint32_t col) const {
    return static_cast<std::size_t>(col) * params_.rows + row;
  }

  CrossbarParams params_;
  /// Weight plane. int16 holds int8 values so the dot product multiplies
  /// 16-bit lanes into 32-bit sums without widening the stored operand.
  std::vector<std::int16_t> plane_;
  /// Times each weight was programmed, row-major (write_row's order).
  std::vector<std::uint64_t> writes_;
  /// The GEMV inputs widened to the plane's element type.
  std::vector<std::int16_t> inputs_;
  std::uint64_t total_writes_ = 0;
  std::uint64_t max_writes_ = 0;
  std::uint64_t worn_weights_ = 0;
};

}  // namespace tdo::pcm
