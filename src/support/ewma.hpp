// Exponentially weighted moving average shared by the admission controller
// and the serving scheduler's shed estimators.
#pragma once

#include <cstdint>

namespace tdo::support {

/// The first observation seeds the value; each later one blends in as
/// (1 - alpha) * value + alpha * x, with alpha passed per observation so
/// irregular windows can weight a sample by its span. Written exactly so on
/// purpose: value + alpha * (x - value) rounds differently.
struct Ewma {
  double value = 0.0;
  std::uint64_t count = 0;  ///< observations folded in so far

  [[nodiscard]] bool seeded() const { return count != 0; }

  void observe(double x, double alpha) {
    value = count == 0 ? x : (1.0 - alpha) * value + alpha * x;
    count += 1;
  }
};

}  // namespace tdo::support
