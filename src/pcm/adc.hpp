// ADC + sample-and-hold sharing model (paper Section II-B, Figure 2b).
//
// "To further improve the energy efficiency, ADCs are shared amongst
// multiple columns which are reused using sample and holds (S&H)."
// The functional value path is exact (see crossbar.hpp); this model adds
// (a) conversion counting for the mixed-signal energy lump, and
// (b) optional range saturation for non-ideal ADC studies.
#pragma once

#include <cstdint>
#include <span>

namespace tdo::pcm {

struct AdcParams {
  std::uint32_t bits = 12;              // per-nibble-column conversion width
  std::uint32_t columns_per_adc = 8;    // S&H sharing factor
  bool saturate = false;                // clamp out-of-range conversions
};

class AdcArray {
 public:
  explicit AdcArray(AdcParams params, std::uint32_t total_phys_columns)
      : params_{params}, total_phys_columns_{total_phys_columns} {}

  [[nodiscard]] const AdcParams& params() const { return params_; }

  /// Number of ADC instances needed for the configured sharing factor.
  [[nodiscard]] std::uint32_t adc_count() const {
    return (total_phys_columns_ + params_.columns_per_adc - 1) /
           params_.columns_per_adc;
  }

  /// Number of sequential conversion waves to digitize all columns once
  /// (each ADC serves its shared columns one after another via the S&H).
  [[nodiscard]] std::uint32_t conversion_waves() const {
    return params_.columns_per_adc;
  }

  /// Converts one GEMV's raw column accumulations in place and counts one
  /// conversion per column. Values within [0, 2^bits) pass through;
  /// out-of-range values clamp when `saturate` is set (they never occur with
  /// the default 12-bit width and 256 active rows).
  void convert(std::span<std::int32_t> raw);

  [[nodiscard]] std::uint64_t conversions() const { return conversions_; }
  [[nodiscard]] std::uint64_t saturations() const { return saturations_; }

 private:
  AdcParams params_;
  std::uint32_t total_phys_columns_;
  std::uint64_t conversions_ = 0;
  std::uint64_t saturations_ = 0;
};

}  // namespace tdo::pcm
