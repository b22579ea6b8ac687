#include "pcm/crossbar.hpp"

#include <cassert>
#include <limits>

namespace tdo::pcm {

Crossbar::Crossbar(CrossbarParams params)
    : params_{params},
      plane_(static_cast<std::size_t>(params.rows) * params.cols, std::int16_t{-128}),
      writes_(plane_.size(), 0),
      inputs_(params.rows, 0) {
  // |in * w| <= 128 * 128, so an int32 column sum is exact up to this depth.
  assert(params_.rows <= std::numeric_limits<std::int32_t>::max() / (128 * 128));
  assert(params_.endurance_writes >= 1);
}

std::uint64_t Crossbar::write_row(std::uint32_t row,
                                  std::span<const std::int8_t> weights,
                                  bool clear_tail) {
  assert(row < params_.rows);
  assert(weights.size() <= params_.cols);
  const std::uint32_t end =
      clear_tail ? params_.cols : static_cast<std::uint32_t>(weights.size());
  std::uint64_t* writes = &writes_[static_cast<std::size_t>(row) * params_.cols];
  for (std::uint32_t c = 0; c < end; ++c) {
    plane_[index(row, c)] = c < weights.size() ? weights[c] : std::int8_t{0};
    const std::uint64_t n = ++writes[c];
    if (n > max_writes_) max_writes_ = n;
    if (n == params_.endurance_writes) ++worn_weights_;
  }
  total_writes_ += end;
  return 2ull * end;
}

void Crossbar::gemv(std::span<const std::int8_t> inputs, std::uint32_t active_rows,
                    std::uint32_t row0, std::span<std::int32_t> out) {
  assert(row0 + active_rows <= params_.rows);
  assert(out.size() <= params_.cols);
  assert(inputs.size() >= active_rows);
  std::int16_t* in = inputs_.data();
  for (std::uint32_t r = 0; r < active_rows; ++r) in[r] = inputs[r];
  for (std::size_t c = 0; c < out.size(); ++c) {
    const std::int16_t* w =
        plane_.data() + index(row0, static_cast<std::uint32_t>(c));
    std::int32_t acc = 0;
    for (std::uint32_t r = 0; r < active_rows; ++r) acc += in[r] * w[r];
    out[c] = acc;
  }
}

}  // namespace tdo::pcm
