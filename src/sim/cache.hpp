// Set-associative write-back cache model (timing + traffic only).
//
// Matches the host configuration in Table I: split 32 KiB L1 I/D and a
// shared 2 MiB L2. Data values are not cached — the functional state lives in
// SimMemory — the model tracks hits, misses, write-backs and flushes so that
// host cycle counts reflect each kernel's memory-boundedness, which is what
// separates GEMV-like from GEMM-like kernels in Figure 6.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_memory.hpp"
#include "support/stats.hpp"

namespace tdo::sim {

struct CacheParams {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 4;
};

/// Result of a single lookup.
enum class CacheOutcome { kHit, kMiss };

/// One level of cache. Composable: the owner decides what to do on a miss.
class Cache {
 public:
  explicit Cache(CacheParams params);

  /// Looks up `addr`; on miss installs the line (write-allocate) and reports
  /// whether a dirty victim was evicted through `evicted_dirty`. The hit path
  /// is inline: it is the host model's per-load common case, and most hits
  /// land on the set's most recently used way, which needs no reordering.
  CacheOutcome access(PhysAddr addr, bool is_write, bool* evicted_dirty) {
    if (evicted_dirty != nullptr) *evicted_dirty = false;
    std::uint64_t* set = &keys_[set_index(addr) * params_.ways];
    const std::uint64_t want = live_key(tag_of(addr));
    std::uint32_t w = 0;
    while ((set[w] & ~kDirtyBit) != want) {
      if (++w == params_.ways) {
        fill(set, want, is_write, evicted_dirty);
        return CacheOutcome::kMiss;
      }
    }
    std::uint64_t key = set[w];
    if (is_write && (key & kDirtyBit) == 0) {
      key |= kDirtyBit;
      ++dirty_lines_;
    }
    // Rotate the hit key to the front: the ways ahead of it age by one.
    for (; w > 0; --w) set[w] = set[w - 1];
    set[0] = key;
    hits_.add_local();
    return CacheOutcome::kHit;
  }

  /// Invalidates the whole cache, counting dirty lines written back.
  /// Returns the number of dirty lines flushed. O(1): the dirty lines are
  /// counted as they turn dirty, and the keys are invalidated by ending
  /// their epoch.
  std::uint64_t flush_all();

  /// Invalidates any line overlapping [addr, addr+bytes); returns dirty count.
  std::uint64_t flush_range(PhysAddr addr, std::uint64_t bytes);

  [[nodiscard]] const CacheParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.value(); }
  [[nodiscard]] std::uint64_t writebacks() const { return writebacks_.value(); }

  void register_stats(support::StatsRegistry& registry) const;

 private:
  // A way is one packed key, `epoch:24 | tag:39 | dirty:1`. A key is valid
  // only while its epoch is the cache's current one, and its dirty bit means
  // nothing once it is invalid. Each set keeps its keys in recency order,
  // most recently used first, with every invalid key behind the valid ones:
  // the last key is then the victim, an invalid way if the set has one and
  // the least recently used way otherwise.
  static constexpr std::uint64_t kDirtyBit = 1;
  static constexpr unsigned kTagBits = 39;
  static constexpr unsigned kEpochShift = kTagBits + 1;
  static constexpr std::uint32_t kEpochLimit = std::uint32_t{1} << 24;
  static constexpr std::uint32_t kInvalidEpoch = 0;

  [[nodiscard]] std::uint64_t set_index(PhysAddr addr) const {
    return (addr >> line_shift_) & (num_sets_ - 1);
  }
  [[nodiscard]] std::uint64_t tag_of(PhysAddr addr) const {
    const std::uint64_t tag = addr >> (line_shift_ + set_shift_);
    assert(tag >> kTagBits == 0);
    return tag;
  }
  /// The clean key of `tag` in the current epoch.
  [[nodiscard]] std::uint64_t live_key(std::uint64_t tag) const {
    return (std::uint64_t{epoch_} << kEpochShift) | (tag << 1);
  }
  [[nodiscard]] bool valid(std::uint64_t key) const {
    return key >> kEpochShift == epoch_;
  }
  /// Miss in `set`: drops the last key and installs `key` at the front.
  void fill(std::uint64_t* set, std::uint64_t key, bool is_write,
            bool* evicted_dirty);

  CacheParams params_;
  std::uint32_t num_sets_;
  // log2(line_bytes) and log2(num_sets_): both are powers of two, so a
  // lookup indexes with shifts instead of dividing by runtime values.
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;
  std::vector<std::uint64_t> keys_;  // num_sets_ * ways, row-major by set
  std::uint32_t epoch_ = kInvalidEpoch + 1;
  std::uint64_t dirty_lines_ = 0;  // valid keys with the dirty bit set

  // Single-writer counters (Counter::add_local): lookups and flushes come
  // from the serialized host model and driver, never concurrently.
  support::Counter hits_;
  support::Counter misses_;
  support::Counter writebacks_;
  support::Counter flushes_;
};

/// Two-level hierarchy front-end used by the host CPU cost model: charges
/// per-level latencies and returns total stall cycles for an access.
class CacheHierarchy {
 public:
  struct Latencies {
    // Extra cycles beyond a pipelined L1 hit.
    std::uint32_t l2_hit_cycles = 8;
    std::uint32_t dram_cycles = 90;  // LPDDR3-933 round trip at 1.2 GHz
  };

  CacheHierarchy(CacheParams l1i, CacheParams l1d, CacheParams l2,
                 Latencies latencies);

  /// Data access; returns stall cycles.
  [[nodiscard]] std::uint64_t data_access(PhysAddr addr, bool is_write) {
    bool dirty_victim = false;
    if (l1d_.access(addr, is_write, &dirty_victim) == CacheOutcome::kHit) {
      return 0;
    }
    return l1d_miss(addr, dirty_victim);
  }

  /// Flush both data levels (driver coherence protocol, Section II-E).
  /// Returns total dirty lines written back to memory.
  std::uint64_t flush_data_caches();

  [[nodiscard]] Cache& l1d() { return l1d_; }
  [[nodiscard]] Cache& l1i() { return l1i_; }
  [[nodiscard]] Cache& l2() { return l2_; }
  [[nodiscard]] const Latencies& latencies() const { return latencies_; }

  [[nodiscard]] std::uint64_t dram_accesses() const { return dram_accesses_.value(); }

  void register_stats(support::StatsRegistry& registry) const;

 private:
  /// The rest of a data access that missed L1D; returns stall cycles.
  [[nodiscard]] std::uint64_t l1d_miss(PhysAddr addr, bool dirty_victim);

  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  Latencies latencies_;
  support::Counter dram_accesses_;
};

}  // namespace tdo::sim
