// Symmetric linear quantization helpers used by the CIM datapath.
//
// The accelerator stores weights as 8-bit values split across two 4-bit PCM
// columns and digitizes activations to 8 bits at the row buffers (Section
// II-B / IV-a of the paper). These helpers centralize the scale math so the
// crossbar model, the runtime and the error-bound tests agree exactly.
#pragma once

#include <algorithm>
#include <cstdint>

namespace tdo::support {

/// Symmetric int8 quantization parameters: real = scale * q, q in [-127,127].
struct QuantScale {
  double scale = 1.0;

  [[nodiscard]] static QuantScale for_max_abs(double max_abs) {
    // Guard against all-zero tensors: any scale works, 1.0 keeps math exact.
    if (max_abs <= 0.0) return {1.0};
    return {max_abs / 127.0};
  }

  /// Clamps, then rounds half to even: adding and subtracting 1.5 * 2^52
  /// leaves no fraction bits for |x| < 2^51, so under the default rounding
  /// mode it equals std::nearbyint on [-127, 127] without a libm call.
  [[nodiscard]] std::int8_t quantize(double real) const {
    constexpr double kRoundingBias = 6755399441055744.0;  // 1.5 * 2^52
    const double x = std::clamp(real / scale, -127.0, 127.0);
    return static_cast<std::int8_t>((x + kRoundingBias) - kRoundingBias);
  }

  [[nodiscard]] double dequantize(std::int64_t q) const {
    return static_cast<double>(q) * scale;
  }
};

/// Analytic worst-case absolute error of a quantized dot product of length n:
/// |sum a_i b_i - s_a s_b sum qa_i qb_i| <= n * (|a|max * eb + |b|max * ea + ea*eb)
/// with ea = s_a/2, eb = s_b/2 the max rounding errors.
[[nodiscard]] inline double dot_quant_error_bound(double max_abs_a, double max_abs_b,
                                                  std::size_t n) {
  const double sa = QuantScale::for_max_abs(max_abs_a).scale;
  const double sb = QuantScale::for_max_abs(max_abs_b).scale;
  const double ea = sa * 0.5;
  const double eb = sb * 0.5;
  return static_cast<double>(n) * (max_abs_a * eb + max_abs_b * ea + ea * eb);
}

}  // namespace tdo::support
