#include "pcm/crossbar.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "support/fixed_point.hpp"

namespace tdo::pcm {

namespace {
/// Unsigned offset-binary image of a signed 8-bit value.
[[nodiscard]] constexpr std::uint8_t to_offset(std::int8_t v) {
  return static_cast<std::uint8_t>(static_cast<int>(v) + 128);
}
[[nodiscard]] constexpr std::int8_t from_offset(std::uint8_t u) {
  return static_cast<std::int8_t>(static_cast<int>(u) - 128);
}
}  // namespace

Crossbar::Crossbar(CrossbarParams params)
    : params_{params}, phys_cols_{params.cols * 2} {
  // |in * w| <= 128 * 128, so an int32 column sum is exact up to this depth.
  assert(params_.rows <= std::numeric_limits<std::int32_t>::max() / (128 * 128));
  cells_.assign(static_cast<std::size_t>(params_.rows) * phys_cols_,
                PcmCell{params_.cell});
  weights_.assign(static_cast<std::size_t>(params_.rows) * params_.cols,
                  std::int8_t{-128});
}

std::uint64_t Crossbar::write_row(std::uint32_t row,
                                  std::span<const std::int8_t> weights,
                                  bool clear_tail) {
  assert(row < params_.rows);
  assert(weights.size() <= params_.cols);
  const std::uint32_t end =
      clear_tail ? params_.cols : static_cast<std::uint32_t>(weights.size());
  std::int8_t* plane = &weights_[static_cast<std::size_t>(row) * params_.cols];
  for (std::uint32_t c = 0; c < end; ++c) {
    const std::int8_t w = c < weights.size() ? weights[c] : std::int8_t{0};
    const std::uint8_t u = to_offset(w);
    cell(row, 2 * c).program(static_cast<std::uint8_t>(u >> 4));
    cell(row, 2 * c + 1).program(static_cast<std::uint8_t>(u & 0xF));
    plane[c] = w;
  }
  const std::uint64_t writes = 2ull * end;
  total_cell_writes_ += writes;
  return writes;
}

GemvResult Crossbar::gemv(std::span<const std::int8_t> inputs,
                          std::uint32_t active_rows, std::uint32_t active_cols,
                          support::Rng* rng, std::uint32_t row0) const {
  assert(row0 + active_rows <= params_.rows);
  assert(active_cols <= params_.cols);
  assert(inputs.size() >= active_rows);

  GemvResult result;
  result.acc.assign(active_cols, 0);
  const auto plane_row = [&](std::uint32_t r) {
    return &weights_[static_cast<std::size_t>(row0 + r) * params_.cols];
  };

  if (rng == nullptr || params_.cell.read_noise_sigma <= 0.0) {
    // Exact digital-equivalent evaluation: the nibble weighted sum
    // (Section II-B) with the offset terms already cancelled (see header).
    std::int32_t* acc = result.acc.data();
    for (std::uint32_t r = 0; r < active_rows; ++r) {
      const std::int32_t in = inputs[r];
      const std::int8_t* w = plane_row(r);
      for (std::uint32_t c = 0; c < active_cols; ++c) acc[c] += in * w[c];
    }
    return result;
  }

  // Analog path: currents through noisy conductances, converted back to
  // level units before the weighted sum, mimicking per-column ADCs.
  // Input offset sum, computed by the digital logic at the row buffers.
  std::int64_t input_sum_u = 0;
  for (std::uint32_t r = 0; r < active_rows; ++r) {
    input_sum_u += to_offset(inputs[r]);
  }
  const double g_min = params_.cell.g_min_siemens;
  const double g_span = params_.cell.g_max_siemens - g_min;
  const double level_max = 15.0;

  for (std::uint32_t c = 0; c < active_cols; ++c) {
    double msb_current = 0.0;
    double lsb_current = 0.0;
    for (std::uint32_t r = 0; r < active_rows; ++r) {
      const auto in_u = static_cast<double>(to_offset(inputs[r]));
      msb_current += in_u * (cell(row0 + r, 2 * c).conductance(rng) - g_min);
      lsb_current += in_u * (cell(row0 + r, 2 * c + 1).conductance(rng) - g_min);
    }
    const double to_levels = level_max / g_span;
    const std::int64_t acc_u =
        16 * static_cast<std::int64_t>(std::llround(msb_current * to_levels)) +
        static_cast<std::int64_t>(std::llround(lsb_current * to_levels));
    // Offset correction: sum (in_u - 128)(w_u - 128)
    //   = sum in_u*w_u - 128*sum(in_u) - 128*sum(w_u over active rows) + 128^2*n.
    // The active-row weight sum is the "mask register" role of the row
    // buffers (Section II-B).
    std::int64_t weight_sum_u = 0;
    for (std::uint32_t r = 0; r < active_rows; ++r) {
      weight_sum_u += to_offset(plane_row(r)[c]);
    }
    const std::int64_t n = active_rows;
    const std::int64_t corrected =
        acc_u - 128 * input_sum_u - 128 * weight_sum_u + 128LL * 128LL * n;
    result.acc[c] = static_cast<std::int32_t>(corrected);
  }
  return result;
}

std::int8_t Crossbar::weight_at(std::uint32_t row, std::uint32_t col) const {
  const std::uint8_t u = static_cast<std::uint8_t>(
      (cell(row, 2 * col).level() << 4) | cell(row, 2 * col + 1).level());
  return from_offset(u);
}

std::uint64_t Crossbar::max_cell_writes() const {
  std::uint64_t max_writes = 0;
  for (const PcmCell& c : cells_) max_writes = std::max(max_writes, c.writes());
  return max_writes;
}

std::uint64_t Crossbar::worn_cells() const {
  return static_cast<std::uint64_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [](const PcmCell& c) { return c.worn_out(); }));
}

}  // namespace tdo::pcm
