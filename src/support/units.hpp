// Unit-safe quantities used across the simulator and energy models.
//
// The C++ Core Guidelines (P.1 "Express ideas directly in code") motivate
// strong types here: energies, durations and frequencies are never plain
// doubles in public interfaces, so a picojoule can not silently be added to a
// picosecond.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <ostream>
#include <string>

namespace tdo::support {

/// An amount of energy. Internally stored in picojoules (double), which keeps
/// every quantity in this project (femtojoules .. millijoules) well inside
/// the double mantissa.
class Energy {
 public:
  constexpr Energy() = default;

  [[nodiscard]] static constexpr Energy from_fj(double fj) { return Energy{fj * 1e-3}; }
  [[nodiscard]] static constexpr Energy from_pj(double pj) { return Energy{pj}; }
  [[nodiscard]] static constexpr Energy from_nj(double nj) { return Energy{nj * 1e3}; }
  [[nodiscard]] static constexpr Energy from_uj(double uj) { return Energy{uj * 1e6}; }
  [[nodiscard]] static constexpr Energy from_mj(double mj) { return Energy{mj * 1e9}; }
  [[nodiscard]] static constexpr Energy from_joule(double j) { return Energy{j * 1e12}; }
  [[nodiscard]] static constexpr Energy zero() { return Energy{}; }

  [[nodiscard]] constexpr double femtojoules() const { return pj_ * 1e3; }
  [[nodiscard]] constexpr double picojoules() const { return pj_; }
  [[nodiscard]] constexpr double nanojoules() const { return pj_ * 1e-3; }
  [[nodiscard]] constexpr double microjoules() const { return pj_ * 1e-6; }
  [[nodiscard]] constexpr double millijoules() const { return pj_ * 1e-9; }
  [[nodiscard]] constexpr double joules() const { return pj_ * 1e-12; }

  constexpr Energy& operator+=(Energy other) {
    pj_ += other.pj_;
    return *this;
  }
  constexpr Energy& operator-=(Energy other) {
    pj_ -= other.pj_;
    return *this;
  }
  constexpr Energy& operator*=(double k) {
    pj_ *= k;
    return *this;
  }

  friend constexpr Energy operator+(Energy a, Energy b) { return Energy{a.pj_ + b.pj_}; }
  friend constexpr Energy operator-(Energy a, Energy b) { return Energy{a.pj_ - b.pj_}; }
  friend constexpr Energy operator*(Energy a, double k) { return Energy{a.pj_ * k}; }
  friend constexpr Energy operator*(double k, Energy a) { return Energy{a.pj_ * k}; }
  friend constexpr Energy operator/(Energy a, double k) { return Energy{a.pj_ / k}; }
  /// Dimensionless ratio of two energies (e.g. host / accelerator).
  friend constexpr double operator/(Energy a, Energy b) { return a.pj_ / b.pj_; }
  friend constexpr auto operator<=>(Energy a, Energy b) = default;

  /// Human-readable rendering with an auto-selected SI prefix.
  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Energy(double pj) : pj_{pj} {}
  double pj_ = 0.0;
};

/// A span of simulated time. Stored in picoseconds (double); the event queue
/// uses integral ticks (1 tick == 1 ps) derived from this.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration from_ps(double ps) { return Duration{ps}; }
  [[nodiscard]] static constexpr Duration from_ns(double ns) { return Duration{ns * 1e3}; }
  [[nodiscard]] static constexpr Duration from_us(double us) { return Duration{us * 1e6}; }
  [[nodiscard]] static constexpr Duration from_ms(double ms) { return Duration{ms * 1e9}; }
  [[nodiscard]] static constexpr Duration from_sec(double s) { return Duration{s * 1e12}; }
  [[nodiscard]] static constexpr Duration zero() { return Duration{}; }

  [[nodiscard]] constexpr double picoseconds() const { return ps_; }
  [[nodiscard]] constexpr double nanoseconds() const { return ps_ * 1e-3; }
  [[nodiscard]] constexpr double microseconds() const { return ps_ * 1e-6; }
  [[nodiscard]] constexpr double milliseconds() const { return ps_ * 1e-9; }
  [[nodiscard]] constexpr double seconds() const { return ps_ * 1e-12; }
  [[nodiscard]] constexpr std::uint64_t ticks() const {
    return static_cast<std::uint64_t>(ps_ + 0.5);
  }

  constexpr Duration& operator+=(Duration other) {
    ps_ += other.ps_;
    return *this;
  }
  constexpr Duration& operator-=(Duration other) {
    ps_ -= other.ps_;
    return *this;
  }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ps_ + b.ps_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ps_ - b.ps_}; }
  friend constexpr Duration operator*(Duration a, double k) { return Duration{a.ps_ * k}; }
  friend constexpr Duration operator*(double k, Duration a) { return Duration{a.ps_ * k}; }
  friend constexpr Duration operator/(Duration a, double k) { return Duration{a.ps_ / k}; }
  friend constexpr double operator/(Duration a, Duration b) { return a.ps_ / b.ps_; }
  friend constexpr auto operator<=>(Duration a, Duration b) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Duration(double ps) : ps_{ps} {}
  double ps_ = 0.0;
};

/// Clock frequency; converts between cycles and Duration.
class Frequency {
 public:
  constexpr Frequency() = default;

  [[nodiscard]] static constexpr Frequency from_hz(double hz) { return Frequency{hz}; }
  [[nodiscard]] static constexpr Frequency from_mhz(double mhz) { return Frequency{mhz * 1e6}; }
  [[nodiscard]] static constexpr Frequency from_ghz(double ghz) { return Frequency{ghz * 1e9}; }

  [[nodiscard]] constexpr double hertz() const { return hz_; }
  [[nodiscard]] constexpr double megahertz() const { return hz_ * 1e-6; }
  [[nodiscard]] constexpr double gigahertz() const { return hz_ * 1e-9; }

  [[nodiscard]] constexpr Duration period() const { return Duration::from_sec(1.0 / hz_); }
  [[nodiscard]] constexpr Duration cycles(double n) const {
    return Duration::from_sec(n / hz_);
  }
  /// Number of (fractional) cycles elapsed during `d`.
  [[nodiscard]] constexpr double cycles_in(Duration d) const { return d.seconds() * hz_; }

  friend constexpr auto operator<=>(Frequency a, Frequency b) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Frequency(double hz) : hz_{hz} {}
  double hz_ = 0.0;
};

/// Energy-delay product; the paper's Figure 6 (right) metric.
[[nodiscard]] constexpr double energy_delay_product(Energy e, Duration d) {
  return e.joules() * d.seconds();
}

std::ostream& operator<<(std::ostream& os, Energy e);
std::ostream& operator<<(std::ostream& os, Duration d);

namespace literals {
constexpr Energy operator""_fJ(long double v) { return Energy::from_fj(static_cast<double>(v)); }
constexpr Energy operator""_pJ(long double v) { return Energy::from_pj(static_cast<double>(v)); }
constexpr Energy operator""_nJ(long double v) { return Energy::from_nj(static_cast<double>(v)); }
constexpr Energy operator""_uJ(long double v) { return Energy::from_uj(static_cast<double>(v)); }
constexpr Energy operator""_mJ(long double v) { return Energy::from_mj(static_cast<double>(v)); }
constexpr Energy operator""_fJ(unsigned long long v) { return Energy::from_fj(static_cast<double>(v)); }
constexpr Energy operator""_pJ(unsigned long long v) { return Energy::from_pj(static_cast<double>(v)); }
constexpr Energy operator""_nJ(unsigned long long v) { return Energy::from_nj(static_cast<double>(v)); }
constexpr Energy operator""_uJ(unsigned long long v) { return Energy::from_uj(static_cast<double>(v)); }
constexpr Energy operator""_mJ(unsigned long long v) { return Energy::from_mj(static_cast<double>(v)); }
constexpr Duration operator""_ps(long double v) { return Duration::from_ps(static_cast<double>(v)); }
constexpr Duration operator""_ns(long double v) { return Duration::from_ns(static_cast<double>(v)); }
constexpr Duration operator""_us(long double v) { return Duration::from_us(static_cast<double>(v)); }
constexpr Duration operator""_ms(long double v) { return Duration::from_ms(static_cast<double>(v)); }
constexpr Duration operator""_ps(unsigned long long v) { return Duration::from_ps(static_cast<double>(v)); }
constexpr Duration operator""_ns(unsigned long long v) { return Duration::from_ns(static_cast<double>(v)); }
constexpr Duration operator""_us(unsigned long long v) { return Duration::from_us(static_cast<double>(v)); }
constexpr Duration operator""_ms(unsigned long long v) { return Duration::from_ms(static_cast<double>(v)); }
constexpr Frequency operator""_MHz(long double v) { return Frequency::from_mhz(static_cast<double>(v)); }
constexpr Frequency operator""_GHz(long double v) { return Frequency::from_ghz(static_cast<double>(v)); }
constexpr Frequency operator""_MHz(unsigned long long v) { return Frequency::from_mhz(static_cast<double>(v)); }
constexpr Frequency operator""_GHz(unsigned long long v) { return Frequency::from_ghz(static_cast<double>(v)); }
}  // namespace literals

}  // namespace tdo::support
