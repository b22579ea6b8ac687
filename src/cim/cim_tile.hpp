// CIM tile: crossbar + row/column/output buffers + digital logic block
// (paper Section II-B, Figure 2b).
//
// The buffers are the digital staging interface between DMA and the analog
// array; every byte moved through them is charged at the Table I buffer
// energy. The digital logic performs the nibble weighted sum (inside
// Crossbar::gemv), the offset corrections, and the scalar post-processing
// (dequantize, alpha/beta) — each counted as "extra ALU operations".
#pragma once

#include <cstdint>
#include <span>

#include "pcm/adc.hpp"
#include "pcm/crossbar.hpp"
#include "pcm/energy_model.hpp"
#include "support/fixed_point.hpp"
#include "support/stats.hpp"

namespace tdo::cim {

struct TileParams {
  pcm::CrossbarParams crossbar;
  pcm::AdcParams adc;
};

/// Execution statistics of the tile, consumed by the accelerator's energy
/// accounting and by the Figure-6 "MACs per cim-write" metric.
struct TileStats {
  std::uint64_t weight_writes8 = 0;   // 8-bit weights programmed
  std::uint64_t rows_programmed = 0;  // row-parallel write steps
  std::uint64_t gemv_ops = 0;
  std::uint64_t mac8_ops = 0;
  std::uint64_t extra_alu_ops = 0;
  std::uint64_t buffer_byte_accesses = 0;
};

class CimTile {
 public:
  explicit CimTile(TileParams params);

  [[nodiscard]] std::uint32_t rows() const { return crossbar_.rows(); }
  [[nodiscard]] std::uint32_t cols() const { return crossbar_.cols(); }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return crossbar_.capacity_weights();  // one byte per 8-bit weight
  }

  /// Programs one crossbar row from already-quantized weights via the column
  /// buffers. Returns number of 8-bit weights written.
  std::uint64_t program_row(std::uint32_t row, std::span<const std::int8_t> weights);

  /// One GEMV: latches quantized inputs into the row buffer, evaluates the
  /// crossbar over rows [row0, row0 + active_rows), runs the ADC
  /// conversions, and writes the signed fixed-point accumulations of the
  /// first `out.size()` columns into `out`. `row0` selects the crossbar row
  /// window holding the stationary tile (several tiles can be resident in
  /// disjoint rows).
  void gemv(std::span<const std::int8_t> inputs, std::uint32_t active_rows,
            std::uint32_t row0, std::span<std::int32_t> out);

  /// Digital-logic post-processing of one GEMV's outputs:
  /// out[j] = alpha * (acc[j] * scale) + beta * previous[j]. Charged as ALU
  /// ops.
  void postprocess(std::span<const std::int32_t> acc, double scale, float alpha,
                   float beta, std::span<const float> previous,
                   std::span<float> out);

  /// Count extra digital-ALU work done on behalf of the micro-engine.
  void charge_alu_ops(std::uint64_t n) { stats_.extra_alu_ops += n; }
  void charge_buffer_bytes(std::uint64_t n) { stats_.buffer_byte_accesses += n; }

  [[nodiscard]] const TileStats& stats() const { return stats_; }
  [[nodiscard]] const pcm::Crossbar& crossbar() const { return crossbar_; }
  [[nodiscard]] pcm::Crossbar& crossbar() { return crossbar_; }
  [[nodiscard]] const pcm::AdcArray& adc() const { return adc_; }

 private:
  TileParams params_;
  pcm::Crossbar crossbar_;
  pcm::AdcArray adc_;
  TileStats stats_;
};

}  // namespace tdo::cim
