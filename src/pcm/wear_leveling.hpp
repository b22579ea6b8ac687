// Start-gap wear leveling (Qureshi et al., MICRO'09 — the paper's ref [9]).
//
// The paper's compile-time endurance optimizations are orthogonal to
// architectural wear leveling; this extension implements the classic
// start-gap scheme at crossbar-row granularity so the two can be composed
// and compared (the wear-leveling ablation in bench_paper): one spare row
// rotates through the array, and after every `gap_move_interval` row writes
// the gap advances by one position, slowly rotating the logical-to-physical
// row mapping and spreading hot rows across the device.
#pragma once

#include <cstdint>

namespace tdo::pcm {

class StartGapRemapper {
 public:
  /// `rows` logical rows are spread over `rows + 1` physical rows (one gap).
  /// The gap moves one slot every `gap_move_interval` recorded writes.
  explicit StartGapRemapper(std::uint32_t rows,
                            std::uint32_t gap_move_interval = 64);

  /// Physical row currently backing `logical_row`.
  [[nodiscard]] std::uint32_t physical_row(std::uint32_t logical_row) const;

  /// Records one logical row write; may advance the gap. Returns true when
  /// the gap moved (the caller must then migrate the displaced row's
  /// contents, which costs one extra row write).
  bool record_write();

  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::uint32_t gap_position() const { return gap_; }
  [[nodiscard]] std::uint32_t start() const { return start_; }
  [[nodiscard]] std::uint64_t gap_moves() const { return gap_moves_; }

 private:
  std::uint32_t rows_;
  std::uint32_t interval_;
  std::uint32_t gap_;      // physical index of the unused row
  std::uint32_t start_;    // rotation offset of the mapping
  std::uint32_t writes_since_move_ = 0;
  std::uint64_t gap_moves_ = 0;
};

}  // namespace tdo::pcm
