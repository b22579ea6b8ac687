// Transfer engine: host<->device copies as first-class stream commands.
//
// The paper's runtime performs every polly_cimHostToDev/DevToHost as a
// blocking host memcpy behind a full stream drain — the copy/compute overlap
// that Intel's DTO actually ships never happens. This subsystem makes copies
// ride the command stream instead: a copy becomes a DMA descriptor (direction
// plus src/dst physical rectangles) executed on the accelerator's
// otherwise-idle DMA channel while the micro-engine streams the previous
// GEMM tile.
//
// The same file owns the stream's hazard geometry. Flat byte ranges are too
// coarse for tiled BLAS traffic: the jj column stripes of two *different*
// stationary-B calls interleave in memory and would always collide. A
// `Rect` describes the actual footprint — {base, pitch, width, rows} — and
// `RectTracker` keeps the pending read/write sets with a precise 2-D overlap
// test, so disjoint stripes and copies against disjoint tiles overlap
// instead of forcing hazard synchronizations.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cim/context_regs.hpp"
#include "sim/system.hpp"
#include "support/status.hpp"
#include "support/threading.hpp"

namespace tdo::rt {

class CimStream;

/// A 2-D physical-memory footprint: `rows` rows of `width` bytes whose row
/// starts are `pitch` bytes apart. `pitch == width, rows == 1` (or
/// Rect::linear) describes a flat byte range.
struct Rect {
  sim::PhysAddr base = 0;
  std::uint64_t pitch = 0;  ///< bytes between consecutive row starts
  std::uint64_t width = 0;  ///< bytes per row
  std::uint64_t rows = 1;

  [[nodiscard]] static Rect linear(sim::PhysAddr base, std::uint64_t bytes) {
    return Rect{base, bytes, bytes, 1};
  }

  [[nodiscard]] std::uint64_t bytes() const { return width * rows; }
  [[nodiscard]] bool empty() const { return width == 0 || rows == 0; }
  /// One-past-the-last byte covered by any row.
  [[nodiscard]] sim::PhysAddr span_end() const {
    return base + (rows - 1) * pitch + width;
  }
  /// True when the rectangle is a single contiguous byte range.
  [[nodiscard]] bool contiguous() const { return rows == 1 || pitch == width; }

  /// Precise byte-set intersection test (not a bounding-box check): disjoint
  /// column stripes sharing a pitch do not overlap even though their
  /// bounding ranges interleave. O(min(rows, other.rows)).
  [[nodiscard]] bool overlaps(const Rect& other) const;
};

/// A pending rectangle tagged with the accelerator whose in-flight command
/// produces (or consumes) it; -1 when the producer is unknown or the work
/// ran on the host. The tag lets per-stripe copy-back drain exactly the
/// device that owns a stripe instead of the whole stream.
struct TrackedRect {
  Rect rect;
  int device = -1;
};

/// Pending read/write rectangles of in-flight stream commands.
class RectTracker {
 public:
  void note_read(const Rect& r, int device = -1) {
    if (!r.empty()) reads_.push_back(TrackedRect{r, device});
  }
  void note_write(const Rect& r, int device = -1) {
    if (!r.empty()) writes_.push_back(TrackedRect{r, device});
  }
  [[nodiscard]] bool reads_overlap(const Rect& r) const;
  [[nodiscard]] bool writes_overlap(const Rect& r) const;
  /// Every pending write rectangle overlapping `r`, with producing devices.
  [[nodiscard]] std::vector<TrackedRect> writes_overlapping(const Rect& r) const;
  /// Retires every rectangle tagged `device` (that accelerator drained).
  void remove_device(int device);
  void clear() {
    reads_.clear();
    writes_.clear();
  }
  [[nodiscard]] bool empty() const { return reads_.empty() && writes_.empty(); }

 private:
  std::vector<TrackedRect> reads_;
  std::vector<TrackedRect> writes_;
};

/// One scatter-gather segment: matching src/dst rectangles (same width and
/// row count; pitches may differ, e.g. packing a sub-matrix).
struct CopySeg {
  Rect src;
  Rect dst;

  [[nodiscard]] std::uint64_t bytes() const { return src.bytes(); }
};

/// One DMA copy command: direction plus a chain of segments. A physically
/// contiguous copy is a single-segment chain; page-scattered host buffers
/// and strided sub-matrix views become multi-segment chains that execute
/// back-to-back on one DMA channel (no host-memcpy fallback).
struct CopyDesc {
  /// Informational tag for traces: shared memory is flat, so the DMA moves
  /// bytes identically in all directions. kDevToDev marks a peer-to-peer
  /// segment chain (residency migration) that never bounces through a host
  /// staging buffer — both rectangles are device-resident.
  enum class Dir : std::uint64_t {
    kHostToDev = 0,
    kDevToHost = 1,
    kDevToDev = 2,
  };
  Dir dir = Dir::kHostToDev;
  std::vector<CopySeg> segments;
  /// Multi-segment chains only: PA of the marshaled CopySegEntry table in
  /// shared memory (written by the runtime, fetched by the device's DMA).
  sim::PhysAddr table_pa = 0;

  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const CopySeg& seg : segments) total += seg.bytes();
    return total;
  }
  [[nodiscard]] bool single() const { return segments.size() == 1; }
  /// Single-segment accessors (the contiguous fast path).
  [[nodiscard]] const Rect& src() const { return segments.front().src; }
  [[nodiscard]] const Rect& dst() const { return segments.front().dst; }
};

/// Encodes a copy descriptor into the accelerator's register file
/// (Opcode::kCopy). Single segment: PaA/Lda describe the source rectangle,
/// PaC/Ldc the destination, M the row count, N the row width in bytes,
/// SegCount 1. Multi-segment chain: SegCount/SegTable point at the marshaled
/// CopySegEntry table (desc.table_pa), and M=1/N=total-bytes so the driver's
/// range-granular flush still sees the transfer size.
[[nodiscard]] cim::ContextRegs make_copy_image(const CopyDesc& desc);

struct XferParams {
  /// Enqueue eligible copies into the command stream as DMA commands
  /// instead of running them as blocking host memcpys.
  bool async_copies = true;
  /// Copies below this size stay on the host memcpy path (the DTO_MIN_BYTES
  /// analogue for transfers: a DMA descriptor round trip costs more than a
  /// small cached memcpy). The threshold applies to the copy as a whole, not
  /// to individual segments: the descriptor chain amortizes the round trip,
  /// so a large scattered copy with one tiny tail segment still rides the
  /// stream instead of falling back to host memcpy.
  std::uint64_t min_async_bytes = 16 * 1024;
};

/// Plans and executes host<->device copies for the runtime. Owns the
/// host-side memcpy cost model; asynchronous copies are handed to the
/// caller's CimStream as kCopy commands.
class XferEngine {
 public:
  XferEngine(XferParams params, sim::System& system)
      : params_{params},
        min_async_bytes_{params.min_async_bytes},
        system_{system} {
    system.stats().register_counter("xfer.host_copies", &host_copies_);
    system.stats().register_counter("xfer.host_copy_bytes", &host_copy_bytes_);
  }

  /// Returns the DMA descriptor chain for a pitched (sub-matrix view) copy
  /// of `rows` rows of `width` bytes, row starts `pitch` bytes apart on both
  /// sides, when the copy is async-eligible: async copies enabled, the
  /// transfer clears the size threshold, and the footprint resolves to at
  /// most 64 physically contiguous segments (page-scattered buffers become
  /// scatter-gather chains instead of falling back to host memcpy). Returns
  /// false (desc untouched) otherwise. Derives the segment chain from the
  /// footprint: per-row runs split at physical discontinuities, then
  /// coalesced back into pitched rectangles where row starts advance by a
  /// constant physical stride on both sides.
  [[nodiscard]] bool plan_view(CopyDesc::Dir dir, sim::VirtAddr dst,
                               sim::VirtAddr src, std::uint64_t pitch,
                               std::uint64_t width, std::uint64_t rows,
                               CopyDesc* desc) const;

  /// Blocking host-performed pitched copy through the cache hierarchy (the
  /// paper's original path, and the fallback for small or over-fragmented
  /// transfers); one accounting unit, not `rows` separate copies.
  support::Status host_copy_2d(sim::VirtAddr dst, sim::VirtAddr src,
                               std::uint64_t pitch, std::uint64_t width,
                               std::uint64_t rows);

  [[nodiscard]] std::uint64_t host_copies() const { return host_copies_.value(); }
  [[nodiscard]] std::uint64_t host_copy_bytes() const {
    return host_copy_bytes_.value();
  }
  [[nodiscard]] const XferParams& params() const { return params_; }

  /// Retunes the async-copy size threshold at runtime (adaptive admission:
  /// the break-even size is re-derived from observed host-copy cost per byte
  /// vs the measured enqueue overhead instead of staying a static knob).
  /// Atomic: the retuning thread and planning thread never tear the knob.
  void set_min_async_bytes(std::uint64_t bytes) {
    min_async_bytes_.store(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min_async_bytes() const {
    return min_async_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Chunked cache-hierarchy memcpy of one contiguous virtual range (no
  /// bandwidth stall or counter update — callers aggregate those).
  support::Status host_copy_row(sim::VirtAddr dst, sim::VirtAddr src,
                                std::uint64_t bytes);

  XferParams params_;
  /// Live copy of params_.min_async_bytes (the one adaptively retuned).
  std::atomic<std::uint64_t> min_async_bytes_;
  sim::System& system_;
  /// Sharded: the sync-copy fallback runs on whichever thread hit it, so a
  /// concurrent stats snapshot must merge per-thread shards, not race one
  /// shared line.
  support::ShardedCounter host_copies_;
  support::ShardedCounter host_copy_bytes_;
};

}  // namespace tdo::rt
