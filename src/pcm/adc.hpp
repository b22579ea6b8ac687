// ADC + sample-and-hold sharing model (paper Section II-B, Figure 2b).
//
// "To further improve the energy efficiency, ADCs are shared amongst
// multiple columns which are reused using sample and holds (S&H)."
// The functional value path is exact (see crossbar.hpp): the column sums
// are offset-corrected signed integers, and the ADCs pass them through
// unchanged. This model counts conversions for the mixed-signal energy lump.
#pragma once

#include <cstdint>
#include <span>

namespace tdo::pcm {

struct AdcParams {
  std::uint32_t columns_per_adc = 8;  // S&H sharing factor
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

  /// Digitizes one GEMV's column accumulations: one conversion per column.
  void convert(std::span<const std::int32_t> raw) { conversions_ += raw.size(); }

  [[nodiscard]] std::uint64_t conversions() const { return conversions_; }

 private:
  AdcParams params_;
  std::uint32_t total_phys_columns_;
  std::uint64_t conversions_ = 0;
};

}  // namespace tdo::pcm
