#include "support/units.hpp"

#include <array>
#include <cstdio>

namespace tdo::support {
namespace {

/// Renders `value` with the largest prefix that keeps the mantissa >= 1.
std::string with_si_prefix(double value, double unit_exponent,
                           const char* base_unit) {
  // value is expressed in units of 10^unit_exponent of the base unit.
  struct Prefix {
    double exponent;
    const char* name;
  };
  static constexpr std::array<Prefix, 9> kPrefixes = {{{-15, "f"},
                                                       {-12, "p"},
                                                       {-9, "n"},
                                                       {-6, "u"},
                                                       {-3, "m"},
                                                       {0, ""},
                                                       {3, "k"},
                                                       {6, "M"},
                                                       {9, "G"}}};
  const double absolute = std::abs(value) * std::pow(10.0, unit_exponent);
  const Prefix* best = &kPrefixes.front();
  for (const auto& p : kPrefixes) {
    if (absolute >= std::pow(10.0, p.exponent)) best = &p;
  }
  const double scaled =
      (value == 0.0) ? 0.0 : value * std::pow(10.0, unit_exponent - best->exponent);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g %s%s", scaled, best->name, base_unit);
  return buf;
}

}  // namespace

std::string Energy::to_string() const { return with_si_prefix(pj_, -12, "J"); }
std::string Duration::to_string() const { return with_si_prefix(ps_, -12, "s"); }
std::string Frequency::to_string() const { return with_si_prefix(hz_, 0, "Hz"); }

std::ostream& operator<<(std::ostream& os, Energy e) { return os << e.to_string(); }
std::ostream& operator<<(std::ostream& os, Duration d) { return os << d.to_string(); }

}  // namespace tdo::support
