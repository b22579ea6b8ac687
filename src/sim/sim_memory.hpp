// Flat simulated physical memory, allocated lazily in 4 KiB pages.
//
// Both the host (through the cache hierarchy) and the accelerator DMA
// (uncacheable) read and write the same SimMemory, which is what makes the
// shared-memory offload contract of the paper (Section II-E) observable in
// this reproduction: data written by the interpreted host program is the data
// the crossbar is programmed from.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>

#include "support/stats.hpp"

namespace tdo::sim {

using PhysAddr = std::uint64_t;

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr std::uint64_t kPageShift = 12;

[[nodiscard]] constexpr std::uint64_t page_of(PhysAddr a) { return a >> kPageShift; }
[[nodiscard]] constexpr std::uint64_t page_offset(PhysAddr a) {
  return a & (kPageSize - 1);
}
[[nodiscard]] constexpr PhysAddr page_base(PhysAddr a) {
  return a & ~(kPageSize - 1);
}

/// Backing store for physical memory. Pages materialize on first touch and
/// read as zero before that, like fresh anonymous mappings.
class SimMemory {
 public:
  explicit SimMemory(std::uint64_t size_bytes) : size_bytes_{size_bytes} {}

  [[nodiscard]] std::uint64_t size() const { return size_bytes_; }

  void read(PhysAddr addr, std::span<std::uint8_t> out) const;
  void write(PhysAddr addr, std::span<const std::uint8_t> in);

  /// Gathers `count` elements of `elem_bytes` from `addr`, `addr + stride`,
  /// ... into `out`, densely packed. Looks each page up once per run of
  /// elements that lie wholly inside it.
  void read_strided(PhysAddr addr, std::uint64_t stride, std::uint32_t elem_bytes,
                    std::uint32_t count, std::span<std::uint8_t> out) const;
  /// Scatters densely packed elements of `in` the same way.
  void write_strided(PhysAddr addr, std::uint64_t stride, std::uint32_t elem_bytes,
                     std::uint32_t count, std::span<const std::uint8_t> in);

  template <typename T>
  [[nodiscard]] T read_scalar(PhysAddr addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::array<std::uint8_t, sizeof(T)> buf;
    read(addr, buf);
    T value;
    std::memcpy(&value, buf.data(), sizeof(T));
    return value;
  }

  template <typename T>
  void write_scalar(PhysAddr addr, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::array<std::uint8_t, sizeof(T)> buf;
    std::memcpy(buf.data(), &value, sizeof(T));
    write(addr, buf);
  }

  /// Backing bytes of the page holding `addr`, materialized (zeroed) if
  /// untouched. Pages are never freed, so the pointer stays valid for the
  /// memory's lifetime; it addresses the page's first byte.
  [[nodiscard]] std::uint8_t* page_data(PhysAddr addr) {
    return page_for(addr).data();
  }

  /// Number of pages currently materialized (for footprint assertions).
  [[nodiscard]] std::size_t resident_pages() const { return pages_.size(); }

 private:
  using Page = std::array<std::uint8_t, kPageSize>;

  [[nodiscard]] Page& page_for(PhysAddr addr);
  [[nodiscard]] const Page* page_for_read(PhysAddr addr) const;

  std::uint64_t size_bytes_;
  // unordered_map of unique_ptr keeps page addresses stable across rehash.
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
};

}  // namespace tdo::sim
