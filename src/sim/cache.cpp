#include "sim/cache.hpp"

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
  lines_.resize(static_cast<std::size_t>(num_sets_) * params_.ways);
}

void Cache::fill(Line* set, std::uint64_t tag, bool is_write,
                 bool* evicted_dirty) {
  Line* victim = set;
  for (std::uint32_t w = 0; w < params_.ways; ++w) {
    Line& line = set[w];
    if (!valid(line)) {
      victim = &line;  // prefer an invalid way
    } else if (valid(*victim) && line.lru_stamp < victim->lru_stamp) {
      victim = &line;
    }
  }

  misses_.add_local();
  if (valid(*victim) && victim->dirty) {
    --dirty_lines_;
    writebacks_.add_local();
    if (evicted_dirty != nullptr) *evicted_dirty = true;
  }
  victim->epoch = epoch_;
  victim->dirty = is_write;
  if (is_write) ++dirty_lines_;
  victim->tag = tag;
  victim->lru_stamp = ++stamp_;
}

std::uint64_t Cache::flush_all() {
  const std::uint64_t dirty = dirty_lines_;
  dirty_lines_ = 0;
  // Ending the epoch invalidates every line. Only when the counter wraps
  // could a stale line carry the new epoch, so then the lines are cleared.
  if (++epoch_ == kInvalidEpoch) {
    for (Line& line : lines_) line.epoch = kInvalidEpoch;
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
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    Line* begin = &lines_[set * params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
      Line& line = begin[w];
      if (valid(line) && line.tag == tag) {
        if (line.dirty) ++dirty;
        line.epoch = kInvalidEpoch;
        line.dirty = false;
      }
    }
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
