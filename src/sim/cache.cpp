#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tdo::sim {

Cache::Cache(CacheParams params) : params_{std::move(params)} {
  assert(std::has_single_bit(params_.line_bytes));
  assert(params_.size_bytes % (static_cast<std::uint64_t>(params_.line_bytes) *
                               params_.ways) ==
         0);
  num_sets_ = static_cast<std::uint32_t>(
      params_.size_bytes / (static_cast<std::uint64_t>(params_.line_bytes) *
                            params_.ways));
  assert(std::has_single_bit(num_sets_));
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(params_.line_bytes));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
  keys_.resize(static_cast<std::size_t>(num_sets_) * params_.ways);
}

void Cache::fill(std::uint64_t* set, std::uint64_t key, bool is_write,
                 bool* evicted_dirty) {
  misses_.add_local();
  const std::uint64_t victim = set[params_.ways - 1];
  if (valid(victim) && (victim & kDirtyBit) != 0) {
    --dirty_lines_;
    writebacks_.add_local();
    if (evicted_dirty != nullptr) *evicted_dirty = true;
  }
  for (std::uint32_t w = params_.ways - 1; w > 0; --w) set[w] = set[w - 1];
  if (is_write) {
    key |= kDirtyBit;
    ++dirty_lines_;
  }
  set[0] = key;
}

std::uint64_t Cache::flush_all() {
  const std::uint64_t dirty = dirty_lines_;
  dirty_lines_ = 0;
  // Ending the epoch invalidates every key. Only when the 24-bit counter
  // wraps could a stale key carry the new epoch, so then the keys are
  // cleared.
  if (++epoch_ == kEpochLimit) {
    std::fill(keys_.begin(), keys_.end(), std::uint64_t{0});
    epoch_ = kInvalidEpoch + 1;
  }
  flushes_.add_local();
  writebacks_.add_local(dirty);
  return dirty;
}

std::uint64_t Cache::flush_range(PhysAddr addr, std::uint64_t bytes) {
  std::uint64_t dirty = 0;
  const PhysAddr first_line = addr >> line_shift_;
  const PhysAddr last_line = (addr + bytes + params_.line_bytes - 1) >> line_shift_;
  for (PhysAddr lineno = first_line; lineno < last_line; ++lineno) {
    const PhysAddr line_addr = lineno << line_shift_;
    std::uint64_t* set = &keys_[set_index(line_addr) * params_.ways];
    std::uint64_t* end = set + params_.ways;
    const std::uint64_t want = live_key(tag_of(line_addr));
    std::uint64_t* way = std::find_if(set, end, [want](std::uint64_t key) {
      return (key & ~kDirtyBit) == want;
    });
    if (way == end) continue;
    if ((*way & kDirtyBit) != 0) ++dirty;
    // The invalidated key moves behind every valid one.
    std::copy(way + 1, end, way);
    end[-1] = 0;
  }
  dirty_lines_ -= dirty;
  flushes_.add_local();
  writebacks_.add_local(dirty);
  return dirty;
}

void Cache::register_stats(support::StatsRegistry& registry) const {
  registry.register_counter(params_.name + ".hits", &hits_);
  registry.register_counter(params_.name + ".misses", &misses_);
  registry.register_counter(params_.name + ".writebacks", &writebacks_);
  registry.register_counter(params_.name + ".flushes", &flushes_);
}

CacheHierarchy::CacheHierarchy(CacheParams l1i, CacheParams l1d, CacheParams l2,
                               Latencies latencies)
    : l1i_{std::move(l1i)}, l1d_{std::move(l1d)}, l2_{std::move(l2)},
      latencies_{latencies} {}

std::uint64_t CacheHierarchy::l1d_miss(PhysAddr addr, bool dirty_victim) {
  // L1 victim write-back installs into L2 (traffic only, no extra stall:
  // write-back buffers hide it from the load path).
  if (dirty_victim) {
    bool l2_victim = false;
    (void)l2_.access(addr, /*is_write=*/true, &l2_victim);
    if (l2_victim) dram_accesses_.add_local();
  }
  bool l2_dirty_victim = false;
  if (l2_.access(addr, /*is_write=*/false, &l2_dirty_victim) == CacheOutcome::kHit) {
    return latencies_.l2_hit_cycles;
  }
  if (l2_dirty_victim) dram_accesses_.add_local();
  dram_accesses_.add_local();
  return latencies_.l2_hit_cycles + latencies_.dram_cycles;
}

std::uint64_t CacheHierarchy::flush_data_caches() {
  return l1d_.flush_all() + l2_.flush_all();
}

void CacheHierarchy::register_stats(support::StatsRegistry& registry) const {
  l1i_.register_stats(registry);
  l1d_.register_stats(registry);
  l2_.register_stats(registry);
  registry.register_counter("mem.dram_accesses", &dram_accesses_);
}

}  // namespace tdo::sim
