#include "runtime/xfer.hpp"

#include <algorithm>
#include <array>

namespace tdo::rt {

namespace {

/// Chains longer than this fall back to the host path (a bound on the
/// descriptor table the device walks; severe fragmentation is better served
/// by the cache-warm host loop anyway).
constexpr std::size_t kMaxCopySegments = 64;

/// Floor division for the (possibly negative) numerators of the row-index
/// bounds below. Simulated physical addresses fit comfortably in int64.
[[nodiscard]] std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Does any row of `r` intersect the byte interval [lo, hi)?
[[nodiscard]] bool rect_hits_interval(const Rect& r, sim::PhysAddr lo,
                                      sim::PhysAddr hi) {
  if (lo >= hi) return false;
  const auto base = static_cast<std::int64_t>(r.base);
  const auto width = static_cast<std::int64_t>(r.width);
  const auto slo = static_cast<std::int64_t>(lo);
  const auto shi = static_cast<std::int64_t>(hi);
  if (r.rows == 1 || r.pitch == 0) {
    // Degenerate: all rows occupy [base, base + width).
    return base < shi && slo < base + width;
  }
  const auto pitch = static_cast<std::int64_t>(r.pitch);
  // Row i occupies [base + i*pitch, base + i*pitch + width). It intersects
  // [lo, hi) iff  base + i*pitch < hi  and  lo < base + i*pitch + width:
  //   i > (lo - base - width) / pitch   and   i < (hi - base) / pitch.
  const std::int64_t first = floor_div(slo - base - width, pitch) + 1;
  const std::int64_t last = floor_div(shi - base - 1, pitch);
  const std::int64_t lo_row = std::max<std::int64_t>(first, 0);
  const std::int64_t hi_row =
      std::min<std::int64_t>(last, static_cast<std::int64_t>(r.rows) - 1);
  return lo_row <= hi_row;
}

}  // namespace

bool Rect::overlaps(const Rect& other) const {
  if (empty() || other.empty()) return false;
  // Cheap bounding-range rejection first.
  if (base >= other.span_end() || other.base >= span_end()) return false;
  // Precise test: walk the rows of the shorter rectangle and solve for the
  // other's row indices analytically — O(min(rows)) instead of O(rows*rows).
  const Rect& walk = rows <= other.rows ? *this : other;
  const Rect& solve = rows <= other.rows ? other : *this;
  for (std::uint64_t r = 0; r < walk.rows; ++r) {
    const sim::PhysAddr lo = walk.base + r * walk.pitch;
    if (rect_hits_interval(solve, lo, lo + walk.width)) return true;
  }
  return false;
}

template <typename F>
void RectTracker::Set::for_each_granule_word(const Rect& r, F f) {
  std::uint64_t g = r.base >> kGranuleShift;
  std::uint64_t last = (r.span_end() - 1) >> kGranuleShift;
  if (last - g >= kGranules) {
    g = 0;
    last = kGranules - 1;
  }
  while (g <= last) {
    const std::uint64_t bit = g % kGranules;
    const std::uint64_t n = std::min(64 - bit % 64, last - g + 1);
    const std::uint64_t ones =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    f(bit / 64, ones << (bit % 64));
    g += n;
  }
}

void RectTracker::Set::mark(const Rect& r) {
  for_each_granule_word(r, [this](std::uint64_t word, std::uint64_t mask) {
    occupied_[word] |= mask;
  });
}

bool RectTracker::Set::may_overlap(const Rect& r) const {
  bool hit = false;
  for_each_granule_word(r, [&](std::uint64_t word, std::uint64_t mask) {
    hit = hit || (occupied_[word] & mask) != 0;
  });
  return hit;
}

void RectTracker::Set::add(const Rect& r, int device) {
  if (r.empty()) return;
  entries_.push_back(TrackedRect{r, device});
  mark(r);
}

bool RectTracker::Set::any_overlap(const Rect& r) const {
  if (r.empty() || !may_overlap(r)) return false;
  for (const TrackedRect& pending : entries_) {
    if (pending.rect.overlaps(r)) return true;
  }
  return false;
}

std::vector<TrackedRect> RectTracker::Set::overlapping(const Rect& r) const {
  std::vector<TrackedRect> out;
  if (r.empty() || !may_overlap(r)) return out;
  for (const TrackedRect& pending : entries_) {
    if (pending.rect.overlaps(r)) out.push_back(pending);
  }
  return out;
}

void RectTracker::Set::remove_device(int device) {
  std::erase_if(entries_,
                [device](const TrackedRect& t) { return t.device == device; });
  occupied_.fill(0);
  for (const TrackedRect& t : entries_) mark(t.rect);
}

void RectTracker::Set::clear() {
  // Every set bit lies in a word some pending rectangle marked.
  for (const TrackedRect& t : entries_) {
    for_each_granule_word(t.rect, [this](std::uint64_t word, std::uint64_t) {
      occupied_[word] = 0;
    });
  }
  entries_.clear();
}

cim::ContextRegs make_copy_image(const CopyDesc& desc) {
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(cim::Opcode::kCopy));
  image.write(cim::Reg::kCopyDir, static_cast<std::uint64_t>(desc.dir));
  image.write(cim::Reg::kSegCount, desc.segments.size());
  if (desc.single()) {
    image.write(cim::Reg::kPaA, desc.src().base);
    image.write(cim::Reg::kLda, desc.src().pitch);
    image.write(cim::Reg::kPaC, desc.dst().base);
    image.write(cim::Reg::kLdc, desc.dst().pitch);
    image.write(cim::Reg::kM, desc.src().rows);
    image.write(cim::Reg::kN, desc.src().width);
    return image;
  }
  // Scatter-gather chain: the device fetches CopySegEntry[kSegCount] from
  // kSegTable. M/N carry 1 x total-bytes so the driver's range-granular
  // cache clean still covers the full transfer.
  image.write(cim::Reg::kSegTable, desc.table_pa);
  image.write(cim::Reg::kM, 1);
  image.write(cim::Reg::kN, desc.bytes());
  return image;
}

bool XferEngine::plan_view(CopyDesc::Dir dir, sim::VirtAddr dst,
                           sim::VirtAddr src, std::uint64_t pitch,
                           std::uint64_t width, std::uint64_t rows,
                           CopyDesc* desc) const {
  const std::uint64_t total = width * rows;
  // Size threshold on the whole copy, not per segment: the descriptor chain
  // amortizes the submission round trip, so a tiny tail segment of a large
  // scattered copy must not force the host-memcpy path.
  if (!params_.async_copies || total == 0 || total < min_async_bytes()) {
    return false;
  }
  if (rows > 1 && pitch < width) return false;  // self-overlapping view
  auto& mmu = system_.mmu();

  // Pass 1 — linear runs: walk every row in page-bounded steps, splitting
  // wherever either side's physical address breaks contiguity.
  struct Run {
    sim::PhysAddr src = 0;
    sim::PhysAddr dst = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Run> runs;
  for (std::uint64_t r = 0; r < rows; ++r) {
    std::uint64_t off = 0;
    while (off < width) {
      const sim::VirtAddr src_va = src + r * pitch + off;
      const sim::VirtAddr dst_va = dst + r * pitch + off;
      const std::uint64_t step = std::min(
          {width - off, sim::kPageSize - sim::page_offset(src_va),
           sim::kPageSize - sim::page_offset(dst_va)});
      const auto src_pa = mmu.translate(src_va);
      const auto dst_pa = mmu.translate(dst_va);
      if (!src_pa.is_ok() || !dst_pa.is_ok()) return false;
      if (!runs.empty() && runs.back().src + runs.back().bytes == *src_pa &&
          runs.back().dst + runs.back().bytes == *dst_pa) {
        runs.back().bytes += step;
      } else {
        runs.push_back(Run{*src_pa, *dst_pa, step});
      }
      off += step;
    }
  }

  // Pass 2 — pitched coalescing: equal-width runs whose starts advance by a
  // constant physical stride on both sides fold back into one rectangle
  // (the common strided-view case where every row is contiguous but rows
  // are pitch apart), keeping the descriptor chain short.
  std::vector<CopySeg> segments;
  for (const Run& run : runs) {
    if (!segments.empty()) {
      CopySeg& seg = segments.back();
      if (run.bytes == seg.src.width && run.src > seg.src.base &&
          run.dst > seg.dst.base) {
        if (seg.src.rows == 1) {
          // Second equal-width run: adopt the strides as the pitches.
          const std::uint64_t src_pitch = run.src - seg.src.base;
          const std::uint64_t dst_pitch = run.dst - seg.dst.base;
          if (src_pitch >= seg.src.width && dst_pitch >= seg.dst.width) {
            seg.src.pitch = src_pitch;
            seg.dst.pitch = dst_pitch;
            seg.src.rows = seg.dst.rows = 2;
            continue;
          }
        } else if (run.src == seg.src.base + seg.src.rows * seg.src.pitch &&
                   run.dst == seg.dst.base + seg.dst.rows * seg.dst.pitch) {
          ++seg.src.rows;
          ++seg.dst.rows;
          continue;
        }
      }
    }
    CopySeg seg;
    seg.src = Rect::linear(run.src, run.bytes);
    seg.dst = Rect::linear(run.dst, run.bytes);
    segments.push_back(seg);
  }

  if (segments.size() > kMaxCopySegments) return false;
  desc->dir = dir;
  desc->segments = std::move(segments);
  desc->table_pa = 0;
  return true;
}

support::Status XferEngine::host_copy_row(sim::VirtAddr dst, sim::VirtAddr src,
                                          std::uint64_t bytes) {
  auto& mmu = system_.mmu();
  auto& cpu = system_.cpu();
  auto& mem = system_.memory();
  std::array<std::uint8_t, 64> chunk;
  std::uint64_t done = 0;
  while (done < bytes) {
    // Clamp each chunk at page boundaries: the ranges may map to scattered
    // physical frames, so a chunk must never assume contiguity past the page
    // either virtual address sits in.
    const std::uint64_t n = std::min(
        {std::uint64_t{64}, bytes - done,
         sim::kPageSize - sim::page_offset(src + done),
         sim::kPageSize - sim::page_offset(dst + done)});
    const auto src_pa = mmu.translate(src + done);
    if (!src_pa.is_ok()) return src_pa.status();
    const auto dst_pa = mmu.translate(dst + done);
    if (!dst_pa.is_ok()) return dst_pa.status();
    mem.read(*src_pa, std::span(chunk.data(), n));
    mem.write(*dst_pa, std::span<const std::uint8_t>(chunk.data(), n));
    // NEON-style copy: ~9 instructions per 64-byte chunk (4x ldp/stp pairs
    // plus loop bookkeeping). Sequential copies prefetch well, so instead of
    // charging a cold cache miss per line, host_copy_2d charges streaming
    // DRAM time once for the whole transfer.
    cpu.issue(sim::InstBundle{.int_alu = 8, .branches = 1});
    done += n;
  }
  return support::Status::ok();
}

support::Status XferEngine::host_copy_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                         std::uint64_t pitch,
                                         std::uint64_t width,
                                         std::uint64_t rows) {
  // memcpy performed by the host CPU: the CMA buffer is mapped cacheable, so
  // the copy runs through the cache hierarchy; coherence is reestablished by
  // the driver's flush at submit time.
  for (std::uint64_t r = 0; r < rows; ++r) {
    TDO_RETURN_IF_ERROR(host_copy_row(dst + r * pitch, src + r * pitch, width));
  }
  // Streaming bandwidth: read + write traffic at LPDDR3-933 effective rate.
  auto& cpu = system_.cpu();
  const std::uint64_t bytes = width * rows;
  constexpr double kCopyBandwidthBytesPerSec = 3.3e9;
  const double copy_sec =
      2.0 * static_cast<double>(bytes) / kCopyBandwidthBytesPerSec;
  const auto stall_cycles = static_cast<std::uint64_t>(
      copy_sec * cpu.params().frequency.hertz());
  cpu.charge_cycles(stall_cycles);
  host_copies_.add();
  host_copy_bytes_.add(bytes);
  return support::Status::ok();
}

}  // namespace tdo::rt
