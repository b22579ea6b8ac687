#include "runtime/residency.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "runtime/driver.hpp"

namespace tdo::rt {

ResidencyCache::ResidencyCache(ResidencyParams params, CimDriver& driver,
                               support::StatsRegistry& stats)
    : params_{std::move(params)}, driver_{driver} {
  const std::string& p = params_.name;
  const Counters& c = counters_;
  stats.register_counter(p + ".hits", &c.hits);
  stats.register_counter(p + ".misses", &c.misses);
  stats.register_counter(p + ".evictions", &c.evictions);
  stats.register_counter(p + ".invalidations", &c.invalidations);
  stats.register_counter(p + ".weight_writes_saved8", &c.weight_writes_saved8);
  stats.register_counter(p + ".prefetches", &c.prefetches);
  stats.register_counter(p + ".prefetch_hits", &c.prefetch_hits);
  stats.register_counter(p + ".migrations", &c.migrations);
}

std::uint32_t ResidencyCache::device_capacity_rows(int device) const {
  const auto index = static_cast<std::size_t>(device);
  if (index >= driver_.device_count()) return 0;
  const std::uint32_t crossbar_rows = driver_.device(index).tile().rows();
  if (params_.capacity_rows == 0) return crossbar_rows;
  return std::min(params_.capacity_rows, crossbar_rows);
}

std::optional<ResidencyCache::Placement> ResidencyCache::peek(
    const WeightKey& key) const {
  support::SpinGuard guard{lock_};
  for (const Entry& entry : entries_) {
    if (entry.key == key) return Placement{entry.device, entry.row0};
  }
  return std::nullopt;
}

bool ResidencyCache::allocate_rows(int device, std::uint32_t rows,
                                   std::uint32_t* row0) {
  const std::uint32_t capacity = device_capacity_rows(device);
  if (rows == 0 || rows > capacity) return false;
  for (;;) {
    // First-fit over the device's free row windows.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> used;  // [lo, hi)
    for (const Entry& entry : entries_) {
      if (entry.device != device) continue;
      used.emplace_back(entry.row0, entry.row0 + entry.key.rows);
    }
    std::sort(used.begin(), used.end());
    std::uint32_t cursor = 0;  // end of the occupied prefix scanned so far
    bool found = false;
    for (const auto& [lo, hi] : used) {
      if (lo > cursor && lo - cursor >= rows) {
        found = true;
        break;
      }
      cursor = std::max(cursor, hi);
    }
    if (found || (capacity >= cursor && capacity - cursor >= rows)) {
      *row0 = cursor;
      return true;
    }
    // No contiguous window: evict the device's least recently used entry
    // and retry. `rows <= capacity` guarantees termination.
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].device != device) continue;
      if (victim == entries_.size() || entries_[i].lru < entries_[victim].lru) {
        victim = i;
      }
    }
    if (victim == entries_.size()) return false;  // nothing left to evict
    counters_.evictions.add();
    if (obs::enabled()) {
      obs::Tracer::instance().instant(
          "residency", "evict", obs::Tracer::instance().last_tick(),
          {{"dev", static_cast<std::uint64_t>(device)},
           {"row", entries_[victim].row0}});
    }
    erase_entry(victim);
  }
}

void ResidencyCache::erase_entry(std::size_t index) {
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
}

ResidencyCache::Acquire ResidencyCache::acquire(const WeightKey& key,
                                                int device) {
  support::SpinGuard guard{lock_};
  ++clock_;
  if (params_.prefetch_on_miss) {
    if (last_acquired_ && !(*last_acquired_ == key)) {
      note_successor(*last_acquired_, key);
    }
    last_acquired_ = key;
  }
  for (Entry& entry : entries_) {
    if (entry.device == device && entry.key == key) {
      entry.lru = clock_;
      counters_.hits.add();
      if (obs::enabled()) {
        obs::Tracer::instance().instant(
            "residency", "hit", obs::Tracer::instance().last_tick(),
            {{"dev", static_cast<std::uint64_t>(device)}, {"row", entry.row0}});
      }
      if (entry.prefetched) {
        counters_.prefetch_hits.add();
        entry.prefetched = false;
      }
      counters_.weight_writes_saved8.add(static_cast<std::uint64_t>(key.rows) * key.cols);
      Acquire out{/*hit=*/true, /*cached=*/true, entry.row0};
      if (entry.migrated) {
        out.migrated = true;
        out.shadow_base = entry.shadow_rect.base;
        out.shadow_ld = entry.shadow_ld;
      }
      return out;
    }
  }
  counters_.misses.add();
  if (obs::enabled()) {
    obs::Tracer::instance().instant(
        "residency", "miss", obs::Tracer::instance().last_tick(),
        {{"dev", static_cast<std::uint64_t>(device)}});
  }
  std::uint32_t row0 = 0;
  if (!allocate_rows(device, key.rows, &row0)) {
    return Acquire{/*hit=*/false, /*cached=*/false, 0};
  }
  Entry entry;
  entry.key = key;
  entry.device = device;
  entry.row0 = row0;
  entry.lru = clock_;
  entries_.push_back(entry);
  if (obs::enabled()) {
    obs::Tracer::instance().instant(
        "residency", "program", obs::Tracer::instance().last_tick(),
        {{"dev", static_cast<std::uint64_t>(device)}, {"row", row0}});
  }
  return Acquire{/*hit=*/false, /*cached=*/true, row0};
}

void ResidencyCache::note_successor(const WeightKey& prev,
                                    const WeightKey& next) {
  for (Successor& edge : successors_) {
    if (edge.prev == prev) {
      edge.next = next;
      return;
    }
  }
  if (successors_.size() >= kMaxSuccessors) successors_.erase(successors_.begin());
  successors_.push_back(Successor{prev, next});
}

std::optional<WeightKey> ResidencyCache::predict_next(
    const WeightKey& current) const {
  if (!params_.prefetch_on_miss) return std::nullopt;
  support::SpinGuard guard{lock_};
  for (const Successor& edge : successors_) {
    if (edge.prev == current) return edge.next;
  }
  return std::nullopt;
}

bool ResidencyCache::prefill(const WeightKey& key, int device,
                             std::uint32_t* row0) {
  support::SpinGuard guard{lock_};
  for (const Entry& entry : entries_) {
    if (entry.key == key) return false;  // already resident somewhere
  }
  if (!allocate_rows(device, key.rows, row0)) return false;
  ++clock_;
  Entry entry;
  entry.key = key;
  entry.device = device;
  entry.row0 = *row0;
  entry.lru = clock_;
  entry.prefetched = true;
  entries_.push_back(entry);
  counters_.prefetches.add();
  if (obs::enabled()) {
    obs::Tracer::instance().instant(
        "residency", "prefetch", obs::Tracer::instance().last_tick(),
        {{"dev", static_cast<std::uint64_t>(device)}, {"row", *row0}});
  }
  return true;
}

bool ResidencyCache::reserve_rows(int device, std::uint32_t rows,
                                  std::uint32_t* row0) {
  support::SpinGuard guard{lock_};
  return allocate_rows(device, rows, row0);
}

bool ResidencyCache::rehome(const WeightKey& key, int from_device,
                            int to_device, std::uint32_t to_row0,
                            const Rect& shadow_rect, std::uint64_t shadow_ld) {
  support::SpinGuard guard{lock_};
  for (Entry& entry : entries_) {
    if (entry.device != from_device || !(entry.key == key)) continue;
    entry.device = to_device;
    entry.row0 = to_row0;
    entry.migrated = true;
    entry.shadow_rect = shadow_rect;
    entry.shadow_ld = shadow_ld;
    entry.lru = ++clock_;
    counters_.migrations.add();
    if (obs::enabled()) {
      obs::Tracer::instance().instant(
          "residency", "migrate", obs::Tracer::instance().last_tick(),
          {{"from", static_cast<std::uint64_t>(from_device)},
           {"to", static_cast<std::uint64_t>(to_device)},
           {"row", to_row0}});
    }
    return true;
  }
  return false;  // invalidated mid-migration: the next use reprograms
}

void ResidencyCache::on_programmed(int device, std::uint32_t row0,
                                   std::uint64_t rows) {
  support::SpinGuard guard{lock_};
  for (std::size_t i = entries_.size(); i-- > 0;) {
    const Entry& entry = entries_[i];
    if (entry.device != device) continue;
    const std::uint64_t lo = entry.row0;
    const std::uint64_t hi = lo + entry.key.rows;
    if (lo < row0 + rows && row0 < hi) {
      counters_.evictions.add();
      if (obs::enabled()) {
        obs::Tracer::instance().instant(
            "residency", "evict", obs::Tracer::instance().last_tick(),
            {{"dev", static_cast<std::uint64_t>(device)},
             {"row", entry.row0}});
      }
      erase_entry(i);
    }
  }
}

void ResidencyCache::invalidate_overlapping(const Rect& r) {
  if (r.empty()) return;
  support::SpinGuard guard{lock_};
  epoch_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].key.rect.overlaps(r)) {
      counters_.invalidations.add();
      erase_entry(i);
    }
  }
}

void ResidencyCache::invalidate_all() {
  support::SpinGuard guard{lock_};
  epoch_.fetch_add(1, std::memory_order_relaxed);
  counters_.invalidations.add(entries_.size());
  entries_.clear();
}

}  // namespace tdo::rt
