#include "sim/sim_memory.hpp"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace tdo::sim {

SimMemory::Page& SimMemory::page_for(PhysAddr addr) {
  assert(addr < size_bytes_ && "physical address out of range");
  auto& slot = pages_[page_of(addr)];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(0);
  }
  return *slot;
}

const SimMemory::Page* SimMemory::page_for_read(PhysAddr addr) const {
  assert(addr < size_bytes_ && "physical address out of range");
  const auto it = pages_.find(page_of(addr));
  return it == pages_.end() ? nullptr : it->second.get();
}

void SimMemory::read(PhysAddr addr, std::span<std::uint8_t> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const PhysAddr current = addr + done;
    const std::size_t in_page =
        std::min<std::size_t>(out.size() - done, kPageSize - page_offset(current));
    if (const Page* page = page_for_read(current)) {
      std::memcpy(out.data() + done, page->data() + page_offset(current), in_page);
    } else {
      std::memset(out.data() + done, 0, in_page);
    }
    done += in_page;
  }
}

void SimMemory::write(PhysAddr addr, std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const PhysAddr current = addr + done;
    const std::size_t in_page =
        std::min<std::size_t>(in.size() - done, kPageSize - page_offset(current));
    Page& page = page_for(current);
    std::memcpy(page.data() + page_offset(current), in.data() + done, in_page);
    done += in_page;
  }
}

namespace {

/// Number of elements, starting with the one at `addr`, that lie wholly in
/// the page holding `addr` (0 when that element crosses the page's end).
[[nodiscard]] std::uint32_t run_in_page(PhysAddr addr, std::uint64_t stride,
                                        std::uint32_t elem_bytes,
                                        std::uint32_t count) {
  const std::uint64_t room = kPageSize - page_offset(addr);
  if (elem_bytes > room) return 0;
  if (stride == 0) return count;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(count, (room - elem_bytes) / stride + 1));
}

/// Copies `n` elements of `elem_bytes` between two strided layouts. A
/// four-byte element (every float operand) copies with a constant-size
/// memcpy.
void copy_elements(const std::uint8_t* from, std::uint64_t from_stride,
                   std::uint8_t* to, std::uint64_t to_stride,
                   std::uint32_t elem_bytes, std::uint32_t n) {
  const auto copy = [&](auto size) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::memcpy(to + i * to_stride, from + i * from_stride, size);
    }
  };
  if (elem_bytes == sizeof(float)) {
    copy(std::integral_constant<std::size_t, sizeof(float)>{});
  } else {
    copy(std::size_t{elem_bytes});
  }
}

}  // namespace

void SimMemory::read_strided(PhysAddr addr, std::uint64_t stride,
                             std::uint32_t elem_bytes, std::uint32_t count,
                             std::span<std::uint8_t> out) const {
  assert(out.size() >= static_cast<std::size_t>(elem_bytes) * count);
  std::uint32_t done = 0;
  while (done < count) {
    const PhysAddr current = addr + done * stride;
    std::uint8_t* dst = out.data() + static_cast<std::size_t>(done) * elem_bytes;
    const std::uint32_t n = run_in_page(current, stride, elem_bytes, count - done);
    if (n == 0) {  // the element straddles two pages
      read(current, std::span(dst, elem_bytes));
      ++done;
      continue;
    }
    if (const Page* page = page_for_read(current)) {
      copy_elements(page->data() + page_offset(current), stride, dst, elem_bytes,
                    elem_bytes, n);
    } else {
      std::memset(dst, 0, static_cast<std::size_t>(n) * elem_bytes);
    }
    done += n;
  }
}

void SimMemory::write_strided(PhysAddr addr, std::uint64_t stride,
                              std::uint32_t elem_bytes, std::uint32_t count,
                              std::span<const std::uint8_t> in) {
  assert(in.size() >= static_cast<std::size_t>(elem_bytes) * count);
  std::uint32_t done = 0;
  while (done < count) {
    const PhysAddr current = addr + done * stride;
    const std::uint8_t* src = in.data() + static_cast<std::size_t>(done) * elem_bytes;
    const std::uint32_t n = run_in_page(current, stride, elem_bytes, count - done);
    if (n == 0) {
      write(current, std::span(src, elem_bytes));
      ++done;
      continue;
    }
    copy_elements(src, elem_bytes, page_for(current).data() + page_offset(current),
                  stride, elem_bytes, n);
    done += n;
  }
}

}  // namespace tdo::sim
