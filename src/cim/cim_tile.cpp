#include "cim/cim_tile.hpp"

namespace tdo::cim {

CimTile::CimTile(TileParams params)
    : params_{params},
      crossbar_{params.crossbar},
      adc_{params.adc, params.crossbar.cols * 2} {}

std::uint64_t CimTile::program_row(std::uint32_t row,
                                   std::span<const std::int8_t> weights) {
  // Column buffers stage the weights (one byte each in, Section II-B:
  // "during write operation, the column buffers contain the data that has to
  // be written on the crossbar").
  stats_.buffer_byte_accesses += weights.size();
  (void)crossbar_.write_row(row, weights);
  stats_.weight_writes8 += weights.size();
  stats_.rows_programmed += 1;
  return weights.size();
}

void CimTile::gemv(std::span<const std::int8_t> inputs, std::uint32_t active_rows,
                   std::uint32_t row0, std::span<std::int32_t> out) {
  // Row buffers latch the inputs (one byte per active row).
  stats_.buffer_byte_accesses += active_rows;
  crossbar_.gemv(inputs, active_rows, row0, out);
  // Each logical column needs two nibble-column conversions through the
  // shared ADCs; the conversions leave the signed sums unchanged.
  adc_.convert(out);
  const std::uint64_t active_cols = out.size();
  // Results land in the output buffers (4 bytes each).
  stats_.buffer_byte_accesses += active_cols * 4;
  stats_.gemv_ops += 1;
  stats_.mac8_ops += active_rows * active_cols;
  // Offset-correction arithmetic done digitally per column (2 mul-add).
  stats_.extra_alu_ops += active_cols * 2;
}

void CimTile::postprocess(std::span<const std::int32_t> acc, double scale,
                          float alpha, float beta, std::span<const float> previous,
                          std::span<float> out) {
  stats_.extra_alu_ops += 3 * acc.size();  // dequant-mul, alpha-mul, beta-fma
  for (std::size_t j = 0; j < acc.size(); ++j) {
    const double dequant = static_cast<double>(acc[j]) * scale;
    out[j] = static_cast<float>(static_cast<double>(alpha) * dequant +
                                static_cast<double>(beta) * previous[j]);
  }
}

}  // namespace tdo::cim
