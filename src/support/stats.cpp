#include "support/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/threading.hpp"

namespace tdo::support {

namespace {
/// Buckets: [0, 32) exact, then one group of 32 linear sub-buckets per
/// octave up to 2^63.
constexpr std::size_t kHistogramSlots = 32 + (64 - 5) * 32;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistogramSlots, 0) {}

std::size_t LatencyHistogram::bucket_index(std::uint64_t ps) {
  if (ps < kSubBuckets) return static_cast<std::size_t>(ps);
  // Highest set bit selects the octave; the next kSubBucketBits bits select
  // the linear sub-bucket within it.
  const int msb = 63 - std::countl_zero(ps);
  const int shift = msb - static_cast<int>(kSubBucketBits);
  const std::uint64_t sub = (ps >> shift) - kSubBuckets;  // in [0, 32)
  const std::uint64_t group = static_cast<std::uint64_t>(msb) - kSubBucketBits;
  return static_cast<std::size_t>(kSubBuckets + group * kSubBuckets + sub);
}

std::uint64_t LatencyHistogram::bucket_value(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::uint64_t group = (index - kSubBuckets) / kSubBuckets;
  const std::uint64_t sub = (index - kSubBuckets) % kSubBuckets;
  const int shift = static_cast<int>(group);
  const std::uint64_t lo = (kSubBuckets + sub) << shift;
  const std::uint64_t width = 1ull << shift;
  return lo + width / 2;  // midpoint of [lo, lo + width)
}

void LatencyHistogram::add(Duration d) {
  const std::uint64_t ps = d.ticks();
  buckets_[bucket_index(ps)] += 1;
  if (count_ == 0 || ps < min_ps_) min_ps_ = ps;
  if (count_ == 0 || ps > max_ps_) max_ps_ = ps;
  count_ += 1;
  sum_ps_ += static_cast<double>(ps);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ps_ < min_ps_) min_ps_ = other.min_ps_;
    if (count_ == 0 || other.max_ps_ > max_ps_) max_ps_ = other.max_ps_;
  }
  count_ += other.count_;
  sum_ps_ += other.sum_ps_;
}

void LatencyHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ps_ = 0.0;
  min_ps_ = 0;
  max_ps_ = 0;
}

Duration LatencyHistogram::min() const {
  return Duration::from_ps(static_cast<double>(min_ps_));
}

Duration LatencyHistogram::max() const {
  return Duration::from_ps(static_cast<double>(max_ps_));
}

Duration LatencyHistogram::mean() const {
  if (count_ == 0) return Duration::zero();
  return Duration::from_ps(sum_ps_ / static_cast<double>(count_));
}

Duration LatencyHistogram::quantile(double p) const {
  if (count_ == 0) return Duration::zero();
  p = std::clamp(p, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Clamp the representative into the recorded range so e.g. p100 of a
      // single sample returns exactly that sample.
      const std::uint64_t v =
          std::clamp(bucket_value(i), min_ps_, max_ps_);
      return Duration::from_ps(static_cast<double>(v));
    }
  }
  return Duration::from_ps(static_cast<double>(max_ps_));
}

StatsSnapshot StatsSnapshot::delta_since(const StatsSnapshot& earlier) const {
  StatsSnapshot out;
  for (const auto& [name, value] : counters) {
    const auto it = earlier.counters.find(name);
    const std::uint64_t before = it == earlier.counters.end() ? 0 : it->second;
    out.counters[name] = value - before;
  }
  for (const auto& [name, value] : energies_pj) {
    const auto it = earlier.energies_pj.find(name);
    const double before = it == earlier.energies_pj.end() ? 0.0 : it->second;
    out.energies_pj[name] = value - before;
  }
  return out;
}

std::uint64_t StatsSnapshot::counter_or(const std::string& name,
                                        std::uint64_t fallback) const {
  const auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

Energy StatsSnapshot::energy_or(const std::string& name, Energy fallback) const {
  const auto it = energies_pj.find(name);
  return it == energies_pj.end() ? fallback : Energy::from_pj(it->second);
}

std::uint64_t StatsSnapshot::sum_ending_with(std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters) {
    if (name.ends_with(suffix)) total += value;
  }
  return total;
}

std::uint64_t StatsRegistry::Entry::value() const {
  return counter != nullptr ? counter->value() : sharded->value();
}

void StatsRegistry::register_counter(std::string name, const Counter* counter) {
  const std::lock_guard<std::mutex> lock{mutex_};
  counters_.push_back(Entry{std::move(name), counter, nullptr});
}

void StatsRegistry::register_counter(std::string name,
                                     const ShardedCounter* counter) {
  const std::lock_guard<std::mutex> lock{mutex_};
  counters_.push_back(Entry{std::move(name), nullptr, counter});
}

Energy StatsRegistry::EnergyEntry::value() const {
  return accumulator != nullptr
             ? accumulator->total()
             : per_count * static_cast<double>(count->value());
}

void StatsRegistry::register_energy(std::string name,
                                    const EnergyAccumulator* energy) {
  const std::lock_guard<std::mutex> lock{mutex_};
  energies_.push_back(EnergyEntry{std::move(name), energy, nullptr, {}});
}

void StatsRegistry::register_energy(std::string name, const Counter* count,
                                    Energy per_count) {
  const std::lock_guard<std::mutex> lock{mutex_};
  energies_.push_back(EnergyEntry{std::move(name), nullptr, count, per_count});
}

void StatsRegistry::unregister_counter(const Counter* counter) {
  const std::lock_guard<std::mutex> lock{mutex_};
  counters_.erase(std::remove_if(counters_.begin(), counters_.end(),
                                 [counter](const Entry& entry) {
                                   return entry.counter == counter;
                                 }),
                  counters_.end());
}

void StatsRegistry::unregister_energy(const EnergyAccumulator* energy) {
  const std::lock_guard<std::mutex> lock{mutex_};
  energies_.erase(std::remove_if(energies_.begin(), energies_.end(),
                                 [energy](const EnergyEntry& entry) {
                                   return entry.accumulator == energy;
                                 }),
                  energies_.end());
}

void StatsRegistry::register_histogram(
    std::string name, const ShardedLatencyHistogram* histogram) {
  const std::lock_guard<std::mutex> lock{mutex_};
  histograms_.emplace_back(std::move(name), histogram);
}

void StatsRegistry::unregister_histogram(
    const ShardedLatencyHistogram* histogram) {
  const std::lock_guard<std::mutex> lock{mutex_};
  histograms_.erase(
      std::remove_if(histograms_.begin(), histograms_.end(),
                     [histogram](const auto& entry) {
                       return entry.second == histogram;
                     }),
      histograms_.end());
}

void StatsRegistry::unregister_counter(const ShardedCounter* counter) {
  const std::lock_guard<std::mutex> lock{mutex_};
  counters_.erase(std::remove_if(counters_.begin(), counters_.end(),
                                 [counter](const Entry& entry) {
                                   return entry.sharded == counter;
                                 }),
                  counters_.end());
}

StatsSnapshot StatsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  StatsSnapshot snap;
  for (const Entry& entry : counters_) snap.counters[entry.name] = entry.value();
  for (const EnergyEntry& entry : energies_) {
    snap.energies_pj[entry.name] = entry.value().picojoules();
  }
  for (const auto& [name, histogram] : histograms_) {
    const LatencyHistogram merged = histogram->merged();
    snap.counters[name + ".count"] = merged.count();
    snap.counters[name + ".sum_ps"] =
        static_cast<std::uint64_t>(merged.sum_ps());
    snap.counters[name + ".mean_ps"] =
        static_cast<std::uint64_t>(merged.mean().picoseconds());
    snap.counters[name + ".p50_ps"] =
        static_cast<std::uint64_t>(merged.quantile(0.50).picoseconds());
    snap.counters[name + ".p95_ps"] =
        static_cast<std::uint64_t>(merged.quantile(0.95).picoseconds());
    snap.counters[name + ".p99_ps"] =
        static_cast<std::uint64_t>(merged.quantile(0.99).picoseconds());
  }
  return snap;
}

}  // namespace tdo::support
