// Hierarchically-named statistics, mirroring gem5's stats system in miniature.
//
// Every simulated component owns counters registered into a StatsRegistry;
// the evaluation harness snapshots registries around ROI markers, exactly the
// way the paper profiles "dynamic instruction count and run-time ... in Gem5
// by inserting ROI markers" (Section IV-a).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/units.hpp"

namespace tdo::support {

/// HDR-style latency histogram over Duration samples (picosecond ticks).
///
/// Values are bucketed log-linearly: 32 linear sub-buckets per power-of-two
/// octave, so every recorded value is represented with <= 1/32 (~3.1%)
/// relative error while the whole 0 .. ~584-year range fits in a fixed
/// ~2000-slot array. Values below 32 ps land in exact unit buckets. This is
/// the serving layer's tail-latency primitive: p50/p95/p99 queries are
/// nearest-rank over the bucket counts, and per-accelerator (or per-tenant)
/// histograms merge by bucket-wise addition without losing resolution.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void add(Duration d);
  void merge(const LatencyHistogram& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Exact sum of recorded picoseconds (integer-valued while the total stays
  /// under 2^53, i.e. any realistic run) — the windowed-mean primitive the
  /// SLO monitor differences across metrics samples.
  [[nodiscard]] double sum_ps() const { return sum_ps_; }
  [[nodiscard]] Duration min() const;
  [[nodiscard]] Duration max() const;
  [[nodiscard]] Duration mean() const;
  /// Nearest-rank quantile, p in [0, 1]: the representative value (bucket
  /// midpoint; exact below 32 ps) of the bucket holding the ceil(p * count)-th
  /// smallest sample. Returns zero on an empty histogram.
  [[nodiscard]] Duration quantile(double p) const;

 private:
  /// 32 linear sub-buckets per octave.
  static constexpr std::uint64_t kSubBuckets = 32;
  static constexpr std::uint64_t kSubBucketBits = 5;

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t ps);
  /// Representative (midpoint) value of bucket `index`, in picoseconds.
  [[nodiscard]] static std::uint64_t bucket_value(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ps_ = 0.0;
  std::uint64_t min_ps_ = 0;
  std::uint64_t max_ps_ = 0;
};

/// Monotonically increasing event count (instructions, cache misses, writes).
///
/// add() is a relaxed atomic increment, so completion observers and stats
/// snapshots running on different threads never tear or drop counts. For
/// counters on genuinely contended hot paths prefer ShardedCounter
/// (support/threading.hpp), which avoids the shared cache line entirely.
///
/// add_local() is the single-writer form for the host model's per-access
/// counters: a relaxed load plus a relaxed store, with no read-modify-write.
/// It is exact as long as the owner serializes its writers (HostCpu and the
/// caches already must, since they also accumulate plain doubles), and a
/// snapshot on another thread still reads an untorn value.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other)
      : value_{other.value_.load(std::memory_order_relaxed)} {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void add_local(std::uint64_t n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated energy attributable to one component.
///
/// Single writer, like Counter::add_local(): add() is a relaxed load plus a
/// relaxed store of the picojoule total, so the owner serializes its
/// writers and a snapshot on another thread reads an untorn value.
class EnergyAccumulator {
 public:
  void add(Energy e) {
    Energy total = this->total();
    total += e;
    pj_.store(total.picojoules(), std::memory_order_relaxed);
  }
  void reset() { pj_.store(0.0, std::memory_order_relaxed); }
  [[nodiscard]] Energy total() const {
    return Energy::from_pj(pj_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<double> pj_{0.0};
};

/// A named snapshot of every counter/energy in a registry.
struct StatsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> energies_pj;

  /// Per-entry difference `this - earlier` (for ROI deltas).
  [[nodiscard]] StatsSnapshot delta_since(const StatsSnapshot& earlier) const;

  [[nodiscard]] std::uint64_t counter_or(const std::string& name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] Energy energy_or(const std::string& name,
                                 Energy fallback = Energy::zero()) const;
  /// Sum of every counter whose name ends with `suffix` — one figure across
  /// per-instance prefixes (`cim.copy_segments` + `cim1.copy_segments` ...).
  [[nodiscard]] std::uint64_t sum_ending_with(std::string_view suffix) const;
};

class ShardedCounter;           // support/threading.hpp
class ShardedLatencyHistogram;  // support/threading.hpp

/// Registry of named stats. Components register members at construction; the
/// registry does not own them, so registrants must outlive it or deregister.
///
/// Registration and snapshotting are guarded by a mutex so schedulers and
/// benches on different threads can (de)register and snapshot concurrently.
/// Counter reads themselves are atomic, and sharded counters are merged at
/// snapshot time, so snapshot() totals are exact even while submitter
/// threads are still incrementing.
class StatsRegistry {
 public:
  void register_counter(std::string name, const Counter* counter);
  /// Sharded (per-thread) counter; snapshot() sums its shards on read.
  void register_counter(std::string name, const ShardedCounter* counter);
  void register_energy(std::string name, const EnergyAccumulator* energy);
  /// Energy derived at read time: `per_count` times the counter's value.
  /// It equals adding `per_count` once per count while every partial sum is
  /// an integer number of picojoules below 2^53.
  void register_energy(std::string name, const Counter* count, Energy per_count);
  /// Latency histogram; snapshot() surfaces `<name>.count` plus
  /// mean/p50/p99 picosecond summaries derived at read time.
  void register_histogram(std::string name,
                          const ShardedLatencyHistogram* histogram);

  /// Deregisters every entry pointing at the given stat — registrants whose
  /// lifetime is shorter than the registry (e.g. a serving scheduler built
  /// on top of a long-lived runtime) must call these before dying, or a
  /// later snapshot() dereferences freed memory.
  void unregister_counter(const Counter* counter);
  void unregister_counter(const ShardedCounter* counter);
  void unregister_energy(const EnergyAccumulator* energy);
  void unregister_histogram(const ShardedLatencyHistogram* histogram);

  [[nodiscard]] StatsSnapshot snapshot() const;

 private:
  /// Exactly one of the pointers is set per entry.
  struct Entry {
    std::string name;
    const Counter* counter = nullptr;
    const ShardedCounter* sharded = nullptr;

    [[nodiscard]] std::uint64_t value() const;
  };

  /// Either an accumulator, or a counter scaled by `per_count`.
  struct EnergyEntry {
    std::string name;
    const EnergyAccumulator* accumulator = nullptr;
    const Counter* count = nullptr;
    Energy per_count;

    [[nodiscard]] Energy value() const;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> counters_;
  std::vector<EnergyEntry> energies_;
  std::vector<std::pair<std::string, const ShardedLatencyHistogram*>>
      histograms_;
};

}  // namespace tdo::support
