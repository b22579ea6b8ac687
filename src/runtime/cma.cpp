#include "runtime/cma.hpp"

namespace tdo::rt {

namespace {
[[nodiscard]] std::uint64_t round_to_pages(std::uint64_t bytes) {
  return (bytes + sim::kPageSize - 1) & ~(sim::kPageSize - 1);
}
}  // namespace

CmaAllocator::CmaAllocator(sim::CmaRegion region) : region_{region} {
  if (region_.size > 0) free_[region_.base] = region_.size;
}

support::StatusOr<sim::PhysAddr> CmaAllocator::allocate(std::uint64_t bytes) {
  if (bytes == 0) return support::invalid_argument("CMA allocation of 0 bytes");
  const std::uint64_t need = round_to_pages(bytes);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < need) continue;
    const sim::PhysAddr base = it->first;
    const std::uint64_t remaining = it->second - need;
    free_.erase(it);
    if (remaining > 0) free_[base + need] = remaining;
    allocated_[base] = need;
    return base;
  }
  return support::resource_exhausted("CMA region exhausted");
}

support::Status CmaAllocator::release(sim::PhysAddr base) {
  const auto it = allocated_.find(base);
  if (it == allocated_.end()) {
    return support::not_found("release of unknown CMA allocation");
  }
  std::uint64_t size = it->second;
  sim::PhysAddr start = base;
  allocated_.erase(it);

  // Coalesce with the next free block.
  const auto next = free_.lower_bound(start);
  if (next != free_.end() && start + size == next->first) {
    size += next->second;
    free_.erase(next);
  }
  // Coalesce with the previous free block.
  if (!free_.empty()) {
    auto prev = free_.lower_bound(start);
    if (prev != free_.begin()) {
      --prev;
      if (prev->first + prev->second == start) {
        start = prev->first;
        size += prev->second;
        free_.erase(prev);
      }
    }
  }
  free_[start] = size;
  return support::Status::ok();
}

std::uint64_t CmaAllocator::bytes_allocated() const {
  std::uint64_t total = 0;
  for (const auto& [_, size] : allocated_) total += size;
  return total;
}

}  // namespace tdo::rt
