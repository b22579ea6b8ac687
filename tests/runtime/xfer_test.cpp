// Tests for the transfer engine (runtime/xfer.*): the rectangle-granular
// hazard geometry, copies riding the command stream as DMA commands, the
// no-sync guarantee for disjoint rectangles, and the regression that async
// copies + stream depth >= 2 beat the synchronous-copy baseline.
#include <gtest/gtest.h>

#include "polybench/harness.hpp"
#include "runtime/cim_blas.hpp"
#include "runtime/stream.hpp"
#include "runtime/xfer.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt {
namespace {

using testing::Platform;
using testing::random_matrix;
using testing::ref_gemm;

double max_abs_error(const std::vector<float>& got,
                     const std::vector<float>& want) {
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, static_cast<double>(std::fabs(got[i] - want[i])));
  }
  return err;
}

// --- Rect geometry ---

TEST(RectTest, LinearRangesOverlapLikeIntervals) {
  const Rect a = Rect::linear(0x1000, 256);
  EXPECT_TRUE(a.overlaps(Rect::linear(0x10ff, 1)));
  EXPECT_FALSE(a.overlaps(Rect::linear(0x1100, 64)));  // touching, not overlapping
  EXPECT_FALSE(a.overlaps(Rect::linear(0x0f00, 0x100)));
  EXPECT_TRUE(a.overlaps(Rect::linear(0x0f00, 0x101)));
  EXPECT_FALSE(a.overlaps(Rect{}));  // empty never overlaps
}

TEST(RectTest, DisjointColumnStripesWithSharedPitchDoNotOverlap) {
  // Two column stripes of one 16-row matrix with pitch 2048: bytes [0,1024)
  // and [1024,2048) of every row. Bounding ranges interleave completely; the
  // byte sets are disjoint.
  const Rect left{0x10000, 2048, 1024, 16};
  const Rect right{0x10000 + 1024, 2048, 1024, 16};
  EXPECT_FALSE(left.overlaps(right));
  EXPECT_FALSE(right.overlaps(left));
  EXPECT_TRUE(left.overlaps(left));
  // One shared byte at the stripe boundary flips the verdict.
  const Rect wide_left{0x10000, 2048, 1025, 16};
  EXPECT_TRUE(wide_left.overlaps(right));
}

TEST(RectTest, DegenerateOneDimensionalAgainstPitchedRect) {
  const Rect stripe{0x8000, 1024, 256, 8};  // rows at 0x8000, 0x8400, ...
  // A flat range falling entirely inside one inter-row gap.
  EXPECT_FALSE(stripe.overlaps(Rect::linear(0x8100, 0x300 - 1)));
  // A flat range clipping the start of row 3 (0x8000 + 3*0x400 = 0x8C00).
  EXPECT_TRUE(stripe.overlaps(Rect::linear(0x8bff, 2)));
  // A flat range spanning the whole footprint.
  EXPECT_TRUE(stripe.overlaps(Rect::linear(0x7000, 0x4000)));
  // Ends exactly where row 0 begins.
  EXPECT_FALSE(stripe.overlaps(Rect::linear(0x7000, 0x1000)));
}

TEST(RectTest, DifferentPitchesAreTestedPrecisely) {
  // Pitch-768 rows vs pitch-1024 rows starting 256 bytes apart: row starts
  // drift relative to each other, so only a precise per-row test works.
  const Rect a{0x0, 768, 128, 6};     // rows at 0, 768, 1536, 2304, 3072, 3840
  const Rect b{0x100, 1024, 128, 4};  // rows at 256, 1280, 2304, 3328
  EXPECT_TRUE(a.overlaps(b));  // rows coincide at 2304
  const Rect c{0x200, 1024, 64, 4};  // rows at 512, 1536, 2560, 3584
  EXPECT_FALSE(a.overlaps(Rect{0x180, 768, 64, 5}));  // offset into every gap
  EXPECT_TRUE(c.overlaps(a));  // 1536 is a row start of both a and c
}

TEST(RectTrackerTest, TracksReadsAndWritesIndependently) {
  RectTracker tracker;
  tracker.note_write(Rect::linear(0x1000, 64));
  tracker.note_read(Rect::linear(0x2000, 64));
  EXPECT_TRUE(tracker.writes_overlap(Rect::linear(0x1020, 8)));
  EXPECT_FALSE(tracker.writes_overlap(Rect::linear(0x2020, 8)));
  EXPECT_TRUE(tracker.reads_overlap(Rect::linear(0x2020, 8)));
  EXPECT_FALSE(tracker.empty());
  tracker.clear();
  EXPECT_TRUE(tracker.empty());
  EXPECT_FALSE(tracker.writes_overlap(Rect::linear(0x1000, 64)));
}

// --- transfer engine through the runtime ---

RuntimeConfig async_copy_config(std::size_t depth = 2) {
  RuntimeConfig config;
  config.stream.depth = depth;
  config.xfer.async_copies = true;
  config.xfer.min_async_bytes = 1024;  // small buffers in tests still ride
  return config;
}

TEST(XferTest, AsyncCopyRidesTheStreamAndLandsCorrectly) {
  Platform p{async_copy_config()};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t count = 64 * 64;
  const auto data = random_matrix(count, 3.0, 11);
  const auto src = p.upload(data);
  auto dst = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst.is_ok());

  ASSERT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());
  const auto& stream = p.runtime().stream().counters();
  EXPECT_EQ(stream.copies_enqueued.value(), 1u);
  EXPECT_EQ(stream.copy_bytes.value(), count * 4);
  EXPECT_EQ(p.accel().jobs_completed(), 0u);  // DMA channel, not the engine
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, count), data), 0.0);
  // The channel advanced simulated time.
  EXPECT_GT(p.system().events().now(), 0u);
}

TEST(XferTest, SmallCopiesStayOnTheHostPath) {
  RuntimeConfig config = async_copy_config();
  config.xfer.min_async_bytes = 1 << 20;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto data = random_matrix(256, 1.0, 12);
  const auto src = p.upload(data);
  auto dst = p.runtime().malloc_device(256 * 4);
  ASSERT_TRUE(dst.is_ok());
  ASSERT_TRUE(p.runtime().host_to_dev(*dst, src, 256 * 4).is_ok());
  EXPECT_EQ(p.runtime().stream().counters().copies_enqueued.value(), 0u);
  EXPECT_EQ(p.runtime().xfer().host_copies(), 1u);
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, 256), data), 0.0);
}

TEST(XferTest, CopyAgainstDisjointInFlightRectangleDoesNotSynchronize) {
  // A long GEMM writes C while a copy into an unrelated buffer is enqueued:
  // the copy's rectangles are disjoint from every pending rectangle, so no
  // hazard synchronization may happen and the copy overlaps the compute.
  Platform p{async_copy_config(4)};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 64, n = 128, k = 128;
  const auto a = random_matrix(m * k, 1.0, 21);
  const auto b = random_matrix(k * n, 1.0, 22);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  const std::size_t count = 64 * 64;
  const auto payload = random_matrix(count, 2.0, 23);
  const auto src = p.upload(payload);
  auto dst = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst.is_ok());

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.accel().has_work());
  ASSERT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());

  const auto& stream = p.runtime().stream().counters();
  EXPECT_EQ(stream.hazard_syncs.value(), 0u) << "disjoint copy forced a drain";
  EXPECT_EQ(stream.copies_enqueued.value(), 1u);
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  // The copy's transfer window ran while the engine was busy (the exact
  // figure is settled when the copy completes).
  EXPECT_GT(p.system().snapshot().sum_ending_with(".dma.overlapped_copy_bytes"),
            0u);
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, count), payload), 0.0);
}

TEST(XferTest, CopyOverwritingQueuedInputSynchronizesFirst) {
  // WAR through the transfer engine: a queued GEMM still reads A (its
  // functional work is deferred to the completion chain); a copy targeting
  // A must drain the stream before overwriting it.
  Platform p{async_copy_config(4)};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 32, n = 64, k = 64;
  const auto a = random_matrix(m * k, 1.0, 31);
  const auto b = random_matrix(k * n, 1.0, 32);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  const auto overwrite = random_matrix(m * k, 9.0, 33);
  const auto va_new = p.upload(overwrite);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().host_to_dev(va_a, va_new, m * k * 4).is_ok());
  EXPECT_GE(p.runtime().stream().counters().hazard_syncs.value(), 1u);
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(va_c, m * n), want), 0.15)
      << "GEMM observed the overwritten A";
}

TEST(XferTest, DisjointColumnStripesOfDifferentCallsOverlap) {
  // Two sgemm_async calls write disjoint jj column stripes of the same C
  // (and read disjoint B stripes) — exactly what a caller-tiled stationary-B
  // schedule produces. Rectangle hazards keep both in flight at once; the
  // old flat byte ranges forced a drain between them.
  Platform p{async_copy_config(4)};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 32, n = 128, k = 64, half = n / 2;
  const auto a = random_matrix(m * k, 1.0, 41);
  const auto b = random_matrix(k * n, 1.0, 42);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, half, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c,
                               n, cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, half, k, 1.0f, va_a, k, va_b + half * 4, n,
                               0.0f, va_c + half * 4, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  const auto& stream = p.runtime().stream().counters();
  EXPECT_EQ(stream.hazard_syncs.value(), 0u)
      << "disjoint stripes of different calls forced a drain";
  EXPECT_EQ(stream.syncs.value(), 0u);
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(va_c, m * n), want), 0.15);
}

TEST(XferTest, OverlapAccountsChainedJobsBusyWindows) {
  // A copy whose transfer window lies entirely under a chain of back-to-back
  // tile jobs must be counted as fully hidden. The old accounting compared
  // against the running job only (a lower bound); the exact figure credits
  // every chained launch's busy window.
  Platform p{async_copy_config(8),
             [] {
               cim::AcceleratorParams params;
               params.tile.crossbar.rows = 128;
               params.tile.crossbar.cols = 128;
               return params;
             }()};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  // k = 512 with 128 crossbar rows -> 4 chained kk tiles on one queue.
  const std::size_t m = 128, n = 64, k = 512;
  const auto a = random_matrix(m * k, 1.0, 51);
  const auto b = random_matrix(k * n, 1.0, 52);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  const std::size_t count = 64 * 64;
  const auto payload = random_matrix(count, 2.0, 53);
  const auto src = p.upload(payload);
  auto dst = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst.is_ok());

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_GT(p.accel().in_flight(), 1u) << "no chain to hide the copy under";
  ASSERT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  const auto stats = p.system().snapshot();
  EXPECT_EQ(stats.counter_or("stream.copy_bytes"), count * 4);
  EXPECT_EQ(stats.sum_ending_with(".dma.overlapped_copy_bytes"),
            stats.counter_or("stream.copy_bytes"))
      << "copy spanning a job chain was not counted as fully hidden";
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, count), payload), 0.0);
}

TEST(XferTest, PerStripeCopyBackDrainsProducersIndividually) {
  // C's jj column stripes land on two accelerators; the dev_to_host of C
  // must split along the stripes, draining each producer separately (the
  // second accelerator keeps streaming while the first stripe copies out)
  // instead of a full-stream drain followed by one monolithic copy.
  Platform p{async_copy_config(4),
             [] {
               cim::AcceleratorParams params;
               params.tile.crossbar.rows = 128;
               params.tile.crossbar.cols = 128;
               return params;
             }(),
             sim::SystemParams{}, /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 32, n = 256, k = 64;  // two 128-column stripes
  const auto a = random_matrix(m * k, 1.0, 61);
  const auto b = random_matrix(k * n, 1.0, 62);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  auto dst = p.runtime().malloc_device(m * n * 4);
  ASSERT_TRUE(dst.is_ok());

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().dev_to_host(*dst, va_c, m * n * 4).is_ok());

  const auto& stream = p.runtime().stream().counters();
  EXPECT_EQ(stream.device_drains.value(), 2u)
      << "copy-back did not split per stripe";
  EXPECT_EQ(stream.syncs.value(), 0u) << "copy-back fell back to a full drain";
  EXPECT_EQ(stream.copies_enqueued.value(), 2u);
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(*dst, m * n), want), 0.15)
      << "striped copy-back corrupted the transfer";
}

// --- scatter-gather copy chains ---

using testing::read_floats_scattered;
using testing::write_floats_scattered;

/// Allocates `bytes` of virtual memory whose physical frames are scattered:
/// a handful of single pages are allocated and every other one released, so
/// the buffer's pages pop from the fragmented free list in reverse order.
sim::VirtAddr alloc_scattered(Platform& p, std::uint64_t bytes) {
  auto& mmu = p.system().mmu();
  std::vector<sim::VirtAddr> holes;
  for (int i = 0; i < 8; ++i) {
    auto page = mmu.allocate(sim::kPageSize);
    EXPECT_TRUE(page.is_ok());
    holes.push_back(*page);
  }
  for (std::size_t i = 0; i < holes.size(); i += 2) {
    EXPECT_TRUE(mmu.release(holes[i], sim::kPageSize).is_ok());
  }
  auto va = mmu.allocate(bytes);
  EXPECT_TRUE(va.is_ok());
  return *va;
}

TEST(XferSgTest, ScatteredHostBufferRidesAsSingleCopyChain) {
  // The acceptance criterion: a page-scattered (>= 4 segment) host buffer
  // copy executes as ONE stream kCopy command chain — no host-memcpy
  // fallback, bit-identical payload.
  Platform p{async_copy_config(4)};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t count = (4 * sim::kPageSize + 256) / 4;
  const auto data = random_matrix(count, 5.0, 71);
  const sim::VirtAddr src = alloc_scattered(p, count * 4);
  ASSERT_FALSE(p.system().mmu().is_contiguous(src, count * 4))
      << "fragmentation setup failed to scatter the buffer";
  write_floats_scattered(p, src, data);
  auto dst = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst.is_ok());

  ASSERT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());
  const auto& stream = p.runtime().stream().counters();
  EXPECT_EQ(stream.copies_enqueued.value(), 1u)
      << "chain split into several commands";
  EXPECT_EQ(p.runtime().xfer().host_copies(), 0u) << "host-memcpy fallback";
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_GE(p.system().snapshot().sum_ending_with(".copy_segments"), 4u)
      << "not a scatter-gather chain";
  EXPECT_EQ(stream.copy_bytes.value(), count * 4);
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, count), data), 0.0);

  // And back: device -> scattered host destination, still on the stream.
  const sim::VirtAddr back = alloc_scattered(p, count * 4);
  ASSERT_TRUE(p.runtime().dev_to_host(back, *dst, count * 4).is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(p.runtime().xfer().host_copies(), 0u);
  EXPECT_EQ(max_abs_error(read_floats_scattered(p, back, count), data), 0.0);
}

TEST(XferSgTest, SubThresholdSegmentDoesNotForceHostFallback) {
  // min_async_bytes applies to the copy as a whole (the chain amortizes the
  // descriptor round trip): a large copy whose scatter includes a segment
  // smaller than the threshold still rides the stream.
  RuntimeConfig config = async_copy_config();
  config.xfer.min_async_bytes = 16 * 1024;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  auto& mmu = p.system().mmu();
  // One released page followed by fresh ascending frames: the buffer maps to
  // a lone 4 KiB segment plus one 16 KiB contiguous run.
  auto hole = mmu.allocate(sim::kPageSize);
  ASSERT_TRUE(hole.is_ok());
  auto filler = mmu.allocate(sim::kPageSize);
  ASSERT_TRUE(filler.is_ok());
  ASSERT_TRUE(mmu.release(*hole, sim::kPageSize).is_ok());
  auto src = mmu.allocate(5 * sim::kPageSize);
  ASSERT_TRUE(src.is_ok());
  ASSERT_FALSE(mmu.is_contiguous(*src, 5 * sim::kPageSize));

  const std::size_t count = 5 * sim::kPageSize / 4;
  const auto data = random_matrix(count, 2.0, 72);
  write_floats_scattered(p, *src, data);
  auto dst = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst.is_ok());
  ASSERT_TRUE(p.runtime().host_to_dev(*dst, *src, count * 4).is_ok());
  EXPECT_EQ(p.runtime().stream().counters().copies_enqueued.value(), 1u)
      << "sub-threshold segment pushed the whole copy to the host path";
  EXPECT_EQ(p.runtime().xfer().host_copies(), 0u);
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, count), data), 0.0);
}

TEST(XferSgTest, StridedSubMatrixViewRidesAsPitchedSegment) {
  // A sub-matrix view (rows x width with a row pitch) of contiguous buffers
  // coalesces back into a single pitched rectangle segment; only the view's
  // bytes move.
  Platform p{async_copy_config()};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t rows = 48, cols = 64, view_cols = 32, row0 = 8, col0 = 16;
  const auto data = random_matrix(rows * cols, 3.0, 73);
  const auto src = p.upload(data);
  const auto dst = p.device_zeros(rows * cols);

  const std::uint64_t off = (row0 * cols + col0) * 4;
  ASSERT_TRUE(p.runtime()
                  .host_to_dev_2d(dst + off, src + off, cols * 4, view_cols * 4,
                                  /*rows=*/24)
                  .is_ok());
  const auto& stream = p.runtime().stream().counters();
  EXPECT_EQ(stream.copies_enqueued.value(), 1u);
  EXPECT_EQ(stream.copy_bytes.value(), 24u * view_cols * 4u);
  EXPECT_EQ(p.runtime().xfer().host_copies(), 0u);
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(p.system().snapshot().sum_ending_with(".copy_segments"), 1u)
      << "contiguous-row view should coalesce into one pitched rectangle";

  const auto got = p.read_floats(dst, rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const bool inside = r >= row0 && r < row0 + 24 && c >= col0 &&
                          c < col0 + view_cols;
      const float want = inside ? data[r * cols + c] : 0.0f;
      ASSERT_EQ(got[r * cols + c], want) << "row " << r << " col " << c;
    }
  }
}

// --- DMA-channel contention ---

TEST(XferContentionTest, PinnedChannelSerializesEngineDmaAndCopy) {
  // One DMA channel: the engine's weight/vector traffic and the stream copy
  // share a single busy-window timeline, so the copy serializes behind the
  // engine's own DMA instead of overlapping for free — contended ticks are
  // visible and the overlap credit stays strictly below the copy's bytes.
  cim::AcceleratorParams accel;
  accel.dma.channels = 1;
  Platform p{async_copy_config(8), accel};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 64, n = 128, k = 128;
  const auto a = random_matrix(m * k, 1.0, 81);
  const auto b = random_matrix(k * n, 1.0, 82);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  // Large enough that, once serialized behind the engine's weight and
  // vector DMA windows, the copy spills past the job's end — so full hiding
  // is impossible and the exact credit must come up short.
  const std::size_t count = 256 * 256;
  const auto payload = random_matrix(count, 2.0, 83);
  const auto src = p.upload(payload);
  auto dst = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst.is_ok());

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.accel().has_work());
  ASSERT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  const auto stats = p.system().snapshot();
  EXPECT_GT(stats.sum_ending_with(".dma.contended_copy_ticks"), 0u)
      << "copy did not serialize behind the engine's own DMA";
  EXPECT_EQ(stats.sum_ending_with(".dma.copy_migrations"), 0u)
      << "nowhere to migrate with 1 channel";
  EXPECT_LT(stats.sum_ending_with(".dma.overlapped_copy_bytes"),
            stats.counter_or("stream.copy_bytes"))
      << "overlap credit exceeded the single channel's idle window";
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, count), payload), 0.0);
}

TEST(XferContentionTest, QueuedJobPrefetchWindowBlocksCopyDoubleBooking) {
  // A queued job's stream-level weight-load prefetch runs in the running
  // job's stream tail on the engine channel. That window is reserved on the
  // Dma timeline at enqueue time, so a stream copy submitted while the job
  // waits can no longer first-fit into (double-book) the prefetch slot: with
  // one channel and a copy too large for the remaining gap, the copy must
  // start at or after the running job's completion.
  cim::AcceleratorParams accel;
  accel.dma.channels = 1;
  Platform p{async_copy_config(2), accel};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 128, n = 64, k = 64;
  const auto a1 = random_matrix(m * k, 1.0, 91);
  const auto b1 = random_matrix(k * n, 1.0, 92);
  const auto a2 = random_matrix(m * k, 1.0, 93);
  const auto b2 = random_matrix(k * n, 1.0, 94);
  const auto va_a1 = p.upload(a1);
  const auto va_b1 = p.upload(b1);
  const auto va_c1 = p.device_zeros(m * n);
  const auto va_a2 = p.upload(a2);
  const auto va_b2 = p.upload(b2);
  const auto va_c2 = p.device_zeros(m * n);

  // Job 1 launches; job 2 chains behind it and reserves its weight-DMA
  // prefetch window at the tail of job 1's stream phase.
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a1, k, va_b1, n, 0.0f, va_c1,
                               n, cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a2, k, va_b2, n, 0.0f, va_c2,
                               n, cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_EQ(p.accel().in_flight(), 2u);

  // A copy far larger than any idle gap inside job 1's stream phase: with
  // the tail booked for the prefetch, first-fit must push it past job 1.
  const std::size_t count = 512 * 512;
  const auto payload = random_matrix(count, 2.0, 95);
  const auto src = p.upload(payload);
  auto dst = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst.is_ok());
  const std::uint64_t contended_before =
      p.accel().dma().contended_copy_ticks();
  ASSERT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());
  const sim::Tick now = p.system().events().now();
  const sim::Tick job1_done = p.accel().busy_until();
  ASSERT_GT(job1_done, now) << "job 1 already retired; scenario degenerate";

  // start >= job1_done  =>  contended ticks >= the full remaining busy span.
  EXPECT_GE(p.accel().dma().contended_copy_ticks() - contended_before,
            job1_done - now)
      << "copy was placed inside the reserved prefetch window";

  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(max_abs_error(p.read_floats(*dst, count), payload), 0.0);
}

TEST(XferContentionTest, QueuedBodyReservationPushesCopyPastQueuedStream) {
  // Mutation regression for queue-aware body reservation: a queued job's
  // *stream-body* DMA (not just its weight prefetch) is advisory-reserved on
  // the engine channel at enqueue time. With one channel, a copy submitted
  // while the job waits must therefore first-fit past the queued job's
  // estimated body traffic — strictly later than the same copy placed with
  // the reservation disabled. Deleting the reservation (the mutation) makes
  // both runs place the copy identically and the test fail.
  struct Run {
    std::uint64_t contended = 0;
    double copy_err = 0.0;
  };
  const auto run = [](bool reserve_body) {
    cim::AcceleratorParams accel;
    accel.dma.channels = 1;  // with a second channel the copy rides it free
    accel.queue_body_reserve = reserve_body;
    Platform p{async_copy_config(2), accel};
    EXPECT_TRUE(p.runtime().init(0).is_ok());
    const std::size_t m = 128, n = 64, k = 64;
    const auto a1 = random_matrix(m * k, 1.0, 101);
    const auto b1 = random_matrix(k * n, 1.0, 102);
    const auto a2 = random_matrix(m * k, 1.0, 103);
    const auto b2 = random_matrix(k * n, 1.0, 104);
    const auto va_a1 = p.upload(a1);
    const auto va_b1 = p.upload(b1);
    const auto va_c1 = p.device_zeros(m * n);
    const auto va_a2 = p.upload(a2);
    const auto va_b2 = p.upload(b2);
    const auto va_c2 = p.device_zeros(m * n);
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a1, k, va_b1, n, 0.0f,
                                 va_c1, n, cim::StationaryOperand::kB)
                    .is_ok());
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a2, k, va_b2, n, 0.0f,
                                 va_c2, n, cim::StationaryOperand::kB)
                    .is_ok());
    EXPECT_EQ(p.accel().in_flight(), 2u) << "job 2 did not queue";

    // Too large for any idle gap inside job 1's stream phase: without the
    // body reservation the copy starts at job 1's completion; with it, the
    // first-fit must also clear job 2's estimated weight+body chain.
    const std::size_t count = 512 * 512;
    const auto payload = random_matrix(count, 2.0, 105);
    const auto src = p.upload(payload);
    auto dst = p.runtime().malloc_device(count * 4);
    EXPECT_TRUE(dst.is_ok());
    const std::uint64_t contended_before =
        p.accel().dma().contended_copy_ticks();
    EXPECT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());
    Run result;
    result.contended =
        p.accel().dma().contended_copy_ticks() - contended_before;
    EXPECT_TRUE(p.runtime().synchronize().is_ok());
    result.copy_err = max_abs_error(p.read_floats(*dst, count), payload);
    return result;
  };
  const Run reserved = run(true);
  const Run unreserved = run(false);
  EXPECT_GT(reserved.contended, unreserved.contended)
      << "body reservation did not move the copy past the queued job's"
         " stream traffic";
  EXPECT_EQ(reserved.copy_err, 0.0);
  EXPECT_EQ(unreserved.copy_err, 0.0);
}

TEST(XferContentionTest, SecondChannelAbsorbsTheCopyWhenIdle) {
  // Same workload, two channels (default): the copy migrates to the idle
  // channel instead of waiting, and hides more of its window under compute
  // than the pinned single-channel run ever can.
  const auto run = [](std::uint32_t channels) {
    cim::AcceleratorParams accel;
    accel.dma.channels = channels;
    Platform p{async_copy_config(8), accel};
    EXPECT_TRUE(p.runtime().init(0).is_ok());
    const std::size_t m = 64, n = 128, k = 128;
    const auto a = random_matrix(m * k, 1.0, 91);
    const auto b = random_matrix(k * n, 1.0, 92);
    const auto va_a = p.upload(a);
    const auto va_b = p.upload(b);
    const auto va_c = p.device_zeros(m * n);
    const std::size_t count = 256 * 256;
    const auto payload = random_matrix(count, 2.0, 93);
    const auto src = p.upload(payload);
    auto dst = p.runtime().malloc_device(count * 4);
    EXPECT_TRUE(dst.is_ok());
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                                 cim::StationaryOperand::kB)
                    .is_ok());
    EXPECT_TRUE(p.runtime().host_to_dev(*dst, src, count * 4).is_ok());
    EXPECT_TRUE(p.runtime().synchronize().is_ok());
    return p.system().snapshot();
  };
  const auto pinned = run(1);
  const auto dual = run(2);
  const auto contended = [](const support::StatsSnapshot& stats) {
    return stats.sum_ending_with(".dma.contended_copy_ticks");
  };
  const auto overlapped = [](const support::StatsSnapshot& stats) {
    return stats.sum_ending_with(".dma.overlapped_copy_bytes");
  };
  EXPECT_EQ(contended(dual), 0u)
      << "idle copy channel still made the copy wait";
  EXPECT_GT(contended(pinned), contended(dual));
  EXPECT_GE(overlapped(dual), overlapped(pinned));
  EXPECT_LE(overlapped(dual), dual.counter_or("stream.copy_bytes"));
}

TEST(XferContentionTest, CopyMigratesToIdleChannelUnderCopyPressure) {
  // Two back-to-back copies with the engine idle: the first takes the
  // dedicated copy channel, the second migrates to channel 0 rather than
  // serializing behind it.
  Platform p{async_copy_config(8)};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t count = 64 * 64;
  const auto one = random_matrix(count, 1.0, 94);
  const auto two = random_matrix(count, 1.0, 95);
  const auto src1 = p.upload(one);
  const auto src2 = p.upload(two);
  auto dst1 = p.runtime().malloc_device(count * 4);
  auto dst2 = p.runtime().malloc_device(count * 4);
  ASSERT_TRUE(dst1.is_ok());
  ASSERT_TRUE(dst2.is_ok());
  ASSERT_TRUE(p.runtime().host_to_dev(*dst1, src1, count * 4).is_ok());
  ASSERT_TRUE(p.runtime().host_to_dev(*dst2, src2, count * 4).is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  const auto stats = p.system().snapshot();
  EXPECT_EQ(stats.counter_or("stream.copies_enqueued"), 2u);
  EXPECT_GE(stats.sum_ending_with(".dma.copy_migrations"), 1u)
      << "second copy waited instead of taking the idle channel";
  EXPECT_EQ(max_abs_error(p.read_floats(*dst1, count), one), 0.0);
  EXPECT_EQ(max_abs_error(p.read_floats(*dst2, count), two), 0.0);
}

// --- end-to-end regression ---

TEST(XferTest, AsyncCopiesWithDepthTwoBeatSynchronousCopyBaseline) {
  // The acceptance regression: on a polybench workload whose copies are
  // large enough to ride the stream, async copies + depth >= 2 must be
  // strictly faster (simulated time) than the synchronous-copy baseline of
  // the same configuration.
  auto workload = tdo::pb::make_workload("gemm", tdo::pb::Preset::kPaper);
  ASSERT_TRUE(workload.is_ok());
  auto run = [&](bool async) {
    tdo::pb::HarnessOptions options;
    options.runtime.stream.depth = 2;
    options.runtime.xfer.async_copies = async;
    const auto report = tdo::pb::run_cim(*workload, options);
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_TRUE(report->correct);
    if (async) {
      EXPECT_GT(report->copies_enqueued, 0u) << "no copy rode the stream";
      // Engine DMA contention is always modeled now; the overlap credit is
      // bounded by the copy channel's idle window, never the raw bytes.
      EXPECT_LE(report->overlapped_copy_bytes, report->copy_bytes);
    } else {
      EXPECT_EQ(report->copies_enqueued, 0u);
    }
    return report->runtime;
  };
  const auto synchronous = run(false);
  const auto asynchronous = run(true);
  EXPECT_LT(asynchronous.picoseconds(), synchronous.picoseconds());
}

}  // namespace
}  // namespace tdo::rt
