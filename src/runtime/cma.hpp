// Contiguous Memory Allocator (paper Section II-E).
//
// "it implements the support for allocating and releasing the
// physically-contiguous pages in shared memory via the contiguous memory
// allocator (CMA) APIs exposed by the Linux kernel. The use of CMA offers two
// main benefits compared to the traditional malloc-based approach: 1) the
// size of the shared memory region is not limited by the page boundary; 2)
// there is no need for explicit memory management in the driver routines."
//
// First-fit free-list allocator over the physically contiguous region the
// MMU reserved at boot.
#pragma once

#include <cstdint>
#include <map>

#include "sim/mmu.hpp"
#include "support/status.hpp"

namespace tdo::rt {

class CmaAllocator {
 public:
  explicit CmaAllocator(sim::CmaRegion region);

  /// Allocates `bytes` (rounded up to page granularity) of physically
  /// contiguous memory; returns the base physical address.
  [[nodiscard]] support::StatusOr<sim::PhysAddr> allocate(std::uint64_t bytes);

  /// Releases an allocation previously returned by allocate().
  support::Status release(sim::PhysAddr base);

  [[nodiscard]] std::uint64_t bytes_allocated() const;
  [[nodiscard]] std::size_t allocation_count() const { return allocated_.size(); }
  [[nodiscard]] const sim::CmaRegion& region() const { return region_; }

 private:
  sim::CmaRegion region_;
  std::map<sim::PhysAddr, std::uint64_t> free_;       // base -> size
  std::map<sim::PhysAddr, std::uint64_t> allocated_;  // base -> size
};

}  // namespace tdo::rt
