#include "pcm/adc.hpp"

namespace tdo::pcm {

void AdcArray::convert(std::span<std::int32_t> raw) {
  conversions_ += raw.size();
  if (!params_.saturate) return;
  const std::int64_t max_code = (std::int64_t{1} << params_.bits) - 1;
  for (std::int32_t& v : raw) {
    if (v > max_code) {
      ++saturations_;
      v = static_cast<std::int32_t>(max_code);
    } else if (v < 0) {
      ++saturations_;
      v = 0;
    }
  }
}

}  // namespace tdo::pcm
