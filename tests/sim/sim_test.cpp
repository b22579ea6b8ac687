// Unit tests for the simulation substrate: event queue, memory, MMU,
// caches, bus and host CPU cost model. CacheFlushFuzz and
// SimMemoryStridedFuzz are re-run by CI with extra TDO_FUZZ_SEED values.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cim/accelerator.hpp"
#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/host_cpu.hpp"
#include "sim/mmu.hpp"
#include "sim/sim_memory.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"
#include "testing/fixture.hpp"

namespace tdo::sim {
namespace {

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(30, "c", [&] { order.push_back(3); });
  queue.schedule_at(10, "a", [&] { order.push_back(1); });
  queue.schedule_at(20, "b", [&] { order.push_back(2); });
  EXPECT_EQ(queue.run_until(30), 30u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SameTickIsFifo) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(5, "a", [&] { order.push_back(1); });
  queue.schedule_at(5, "b", [&] { order.push_back(2); });
  queue.run_until(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(1, "outer", [&] {
    ++fired;
    queue.schedule_at(queue.now() + 4, "inner", [&] { ++fired; });
  });
  queue.run_until(4);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.next_when(), 5u);
  queue.run_until(5);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunUntilStopsAtLimit) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(10, "a", [&] { ++fired; });
  queue.schedule_at(20, "b", [&] { ++fired; });
  EXPECT_EQ(queue.run_until(15), 15u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(SimMemoryTest, ReadsZeroBeforeFirstWrite) {
  SimMemory memory{1 << 20};
  EXPECT_EQ(memory.read_scalar<std::uint32_t>(0x1234), 0u);
  EXPECT_EQ(memory.resident_pages(), 0u);
}

TEST(SimMemoryTest, RoundTripsAcrossPageBoundary) {
  SimMemory memory{1 << 20};
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  memory.write(kPageSize - 4, data);
  std::vector<std::uint8_t> out(8);
  memory.read(kPageSize - 4, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(memory.resident_pages(), 2u);
}

TEST(SimMemoryTest, ScalarTypedAccess) {
  SimMemory memory{1 << 20};
  memory.write_scalar<float>(64, 3.25f);
  EXPECT_EQ(memory.read_scalar<float>(64), 3.25f);
  memory.write_scalar<std::uint64_t>(128, 0xdeadbeefcafeull);
  EXPECT_EQ(memory.read_scalar<std::uint64_t>(128), 0xdeadbeefcafeull);
}

// read_strided / write_strided copy a page-sized run of elements at a time;
// an element-by-element reference memory must see the same bytes and the
// same materialized pages. Strides below the element size, zero strides,
// elements that straddle pages and never-written pages are all drawn.
TEST(SimMemoryStridedFuzz, MatchesElementwiseReference) {
  support::Rng rng{testing::fuzz_seed()};
  constexpr std::uint64_t kBytes = 64 * kPageSize;
  SimMemory memory{kBytes};
  SimMemory reference{kBytes};
  for (int op = 0; op < 400; ++op) {
    const auto elem =
        static_cast<std::uint32_t>(rng.chance(0.5) ? 4 : rng.uniform_int(1, 12));
    const auto count = static_cast<std::uint32_t>(rng.uniform_int(0, 300));
    const auto stride = static_cast<std::uint64_t>(
        rng.chance(0.1) ? 0 : rng.uniform_int(1, 3 * kPageSize / 2));
    const std::uint64_t span = (count == 0 ? 0 : (count - 1) * stride) + elem;
    if (span > kBytes) continue;
    const auto addr = static_cast<PhysAddr>(rng.uniform_int(0, kBytes - span));
    std::vector<std::uint8_t> packed(std::size_t{elem} * count);
    if (rng.chance(0.5)) {
      for (auto& b : packed) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      memory.write_strided(addr, stride, elem, count, packed);
      for (std::uint32_t i = 0; i < count; ++i) {
        reference.write(addr + i * stride,
                        std::span(packed).subspan(std::size_t{i} * elem, elem));
      }
      ASSERT_EQ(memory.resident_pages(), reference.resident_pages()) << "op " << op;
    } else {
      memory.read_strided(addr, stride, elem, count, packed);
      std::vector<std::uint8_t> want(packed.size());
      for (std::uint32_t i = 0; i < count; ++i) {
        reference.read(addr + i * stride,
                       std::span(want).subspan(std::size_t{i} * elem, elem));
      }
      ASSERT_EQ(packed, want) << "op " << op;
    }
  }
}

TEST(MmuTest, AllocateTranslateRelease) {
  Mmu mmu{1 << 22, 1 << 20};
  auto va = mmu.allocate(3 * kPageSize);
  ASSERT_TRUE(va.is_ok());
  auto pa = mmu.translate(*va + 5);
  ASSERT_TRUE(pa.is_ok());
  EXPECT_EQ(page_offset(*pa), 5u);
  EXPECT_TRUE(mmu.release(*va, 3 * kPageSize).is_ok());
  EXPECT_FALSE(mmu.translate(*va).is_ok());
}

TEST(MmuTest, CmaRegionIsReservedAtTop) {
  Mmu mmu{1 << 22, 1 << 20};
  EXPECT_EQ(mmu.cma_region().base, (1u << 22) - (1u << 20));
  EXPECT_EQ(mmu.cma_region().size, 1u << 20);
}

TEST(MmuTest, MapPhysicalIsContiguous) {
  Mmu mmu{1 << 22, 1 << 20};
  const PhysAddr pa = mmu.cma_region().base;
  auto va = mmu.map_physical(pa, 4 * kPageSize);
  ASSERT_TRUE(va.is_ok());
  EXPECT_TRUE(mmu.is_contiguous(*va, 4 * kPageSize));
  // Ordinary allocations hand out frames in descending pop order; two
  // separate single-page allocations are not guaranteed contiguous with a
  // multi-page one interleaved.
  auto v1 = mmu.allocate(kPageSize);
  ASSERT_TRUE(v1.is_ok());
  EXPECT_TRUE(mmu.is_contiguous(*v1, kPageSize));  // single page: trivially
}

TEST(MmuTest, TranslateFailsOnUnmapped) {
  Mmu mmu{1 << 22, 1 << 20};
  EXPECT_FALSE(mmu.translate(0xdead0000).is_ok());
}

TEST(MmuTest, AllocationFailsWhenExhausted) {
  Mmu mmu{16 * kPageSize, 4 * kPageSize};  // 12 usable frames
  EXPECT_FALSE(mmu.allocate(13 * kPageSize).is_ok());
  EXPECT_TRUE(mmu.allocate(12 * kPageSize).is_ok());
}

TEST(CacheTest, HitsAfterFirstMiss) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 4096, .line_bytes = 64, .ways = 2}};
  bool dirty = false;
  EXPECT_EQ(cache.access(0x100, false, &dirty), CacheOutcome::kMiss);
  EXPECT_EQ(cache.access(0x100, false, &dirty), CacheOutcome::kHit);
  EXPECT_EQ(cache.access(0x13F, false, &dirty), CacheOutcome::kHit);  // same line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, LruEvictsOldestWay) {
  // 2 ways, 64B lines, 2 sets -> addresses 0, 256, 512 map to set 0.
  Cache cache{CacheParams{.name = "t", .size_bytes = 256, .line_bytes = 64, .ways = 2}};
  bool dirty = false;
  (void)cache.access(0, false, &dirty);
  (void)cache.access(256, false, &dirty);
  (void)cache.access(0, false, &dirty);    // refresh line 0
  (void)cache.access(512, false, &dirty);  // evicts 256
  EXPECT_EQ(cache.access(0, false, &dirty), CacheOutcome::kHit);
  EXPECT_EQ(cache.access(256, false, &dirty), CacheOutcome::kMiss);
}

TEST(CacheTest, DirtyEvictionReportsWriteback) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 128, .line_bytes = 64, .ways = 1}};
  bool dirty = false;
  (void)cache.access(0, true, &dirty);  // dirty line in set 0
  EXPECT_FALSE(dirty);
  (void)cache.access(128, false, &dirty);  // same set, evicts dirty
  EXPECT_TRUE(dirty);
  EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(CacheTest, FlushAllCountsDirtyLines) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 4096, .line_bytes = 64, .ways = 4}};
  bool dirty = false;
  (void)cache.access(0, true, &dirty);
  (void)cache.access(64, true, &dirty);
  (void)cache.access(128, false, &dirty);
  EXPECT_EQ(cache.flush_all(), 2u);
  // Everything is invalid now.
  EXPECT_EQ(cache.access(0, false, &dirty), CacheOutcome::kMiss);
}

TEST(CacheTest, FlushRangeOnlyTouchesRange) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 4096, .line_bytes = 64, .ways = 4}};
  bool dirty = false;
  (void)cache.access(0, true, &dirty);
  (void)cache.access(1024, true, &dirty);
  EXPECT_EQ(cache.flush_range(0, 64), 1u);
  EXPECT_EQ(cache.access(1024, false, &dirty), CacheOutcome::kHit);
}

// The 24-bit epoch comes back to the one a line was filled in after
// 2^24 - 1 flushes; the cache must clear its keys when the epoch wraps, or
// that stale line would hit (and count as dirty) again.
TEST(CacheTest, EpochWrapLeavesNoStaleHit) {
  Cache cache{CacheParams{.name = "t", .size_bytes = 256, .line_bytes = 64, .ways = 2}};
  bool dirty = false;
  (void)cache.access(0, /*is_write=*/true, &dirty);
  (void)cache.access(64, /*is_write=*/false, &dirty);
  EXPECT_EQ(cache.flush_all(), 1u);
  // With the flush above, 2^24 - 1 flushes since the fill.
  for (std::uint32_t i = 0; i < (std::uint32_t{1} << 24) - 2; ++i) {
    ASSERT_EQ(cache.flush_all(), 0u) << "flush " << i;
  }
  EXPECT_EQ(cache.access(0, false, &dirty), CacheOutcome::kMiss);
  EXPECT_EQ(cache.access(64, false, &dirty), CacheOutcome::kMiss);
  EXPECT_EQ(cache.access(0, false, &dirty), CacheOutcome::kHit);
  EXPECT_EQ(cache.flush_all(), 0u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.writebacks(), 1u);
}

/// Straightforward set-associative write-back cache: explicit valid bits
/// and flushes that scan every line. Cache must behave exactly like it.
class ReferenceCache {
 public:
  ReferenceCache(std::uint64_t sets, std::uint32_t ways, std::uint32_t line_bytes)
      : sets_{sets}, ways_{ways}, line_bytes_{line_bytes}, lines_(sets * ways) {}

  CacheOutcome access(PhysAddr addr, bool is_write, bool* evicted_dirty) {
    *evicted_dirty = false;
    const std::uint64_t lineno = addr / line_bytes_;
    Line* begin = &lines_[(lineno % sets_) * ways_];
    Line* victim = begin;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Line& line = begin[w];
      if (line.valid && line.tag == lineno / sets_) {
        line.lru_stamp = ++stamp_;
        line.dirty = line.dirty || is_write;
        ++hits;
        return CacheOutcome::kHit;
      }
      if (!line.valid) {
        victim = &line;
      } else if (victim->valid && line.lru_stamp < victim->lru_stamp) {
        victim = &line;
      }
    }
    ++misses;
    if (victim->valid && victim->dirty) {
      ++writebacks;
      *evicted_dirty = true;
    }
    *victim = Line{lineno / sets_, true, is_write, ++stamp_};
    return CacheOutcome::kMiss;
  }

  std::uint64_t flush_all() {
    std::uint64_t dirty = 0;
    for (Line& line : lines_) {
      if (line.valid && line.dirty) ++dirty;
      line.valid = false;
    }
    writebacks += dirty;
    return dirty;
  }

  std::uint64_t flush_range(PhysAddr addr, std::uint64_t bytes) {
    std::uint64_t dirty = 0;
    const std::uint64_t last = (addr + bytes + line_bytes_ - 1) / line_bytes_;
    for (std::uint64_t lineno = addr / line_bytes_; lineno < last; ++lineno) {
      Line* begin = &lines_[(lineno % sets_) * ways_];
      for (std::uint32_t w = 0; w < ways_; ++w) {
        Line& line = begin[w];
        if (line.valid && line.tag == lineno / sets_) {
          if (line.dirty) ++dirty;
          line.valid = false;
        }
      }
    }
    writebacks += dirty;
    return dirty;
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru_stamp = 0;
  };
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint32_t line_bytes_;
  std::vector<Line> lines_;
  std::uint64_t stamp_ = 0;
};

// Each round draws a geometry (16-256 B lines, 1-16 ways, 1-16 sets), so
// Cache's shift-based set and tag indexing is checked against the
// reference's divides for every line and set size.
TEST(CacheFlushFuzz, MatchesFullScanReference) {
  support::Rng rng{testing::fuzz_seed()};
  for (int round = 0; round < 30; ++round) {
    const auto line_bytes = std::uint32_t{16} << rng.uniform_int(0, 4);
    const auto sets = std::uint64_t{1} << rng.uniform_int(0, 4);
    const auto ways = static_cast<std::uint32_t>(rng.uniform_int(1, 16));
    Cache cache{CacheParams{.name = "fuzz",
                            .size_bytes = sets * ways * line_bytes,
                            .line_bytes = line_bytes,
                            .ways = ways}};
    ReferenceCache ref{sets, ways, line_bytes};
    SCOPED_TRACE(::testing::Message() << "line_bytes " << line_bytes << " sets "
                                      << sets << " ways " << ways);
    // Three times the capacity, so sets overflow and lines get evicted.
    const auto span = static_cast<std::int64_t>(3 * sets * ways * line_bytes);

    for (int op = 0; op < 2000; ++op) {
      const double pick = rng.uniform(0.0, 1.0);
      const auto addr = static_cast<PhysAddr>(rng.uniform_int(0, span - 1));
      if (pick < 0.8) {
        const bool is_write = rng.chance(0.4);
        bool dirty = false;
        bool ref_dirty = false;
        ASSERT_EQ(cache.access(addr, is_write, &dirty),
                  ref.access(addr, is_write, &ref_dirty))
            << "round " << round << " op " << op;
        ASSERT_EQ(dirty, ref_dirty) << "round " << round << " op " << op;
      } else if (pick < 0.85) {
        ASSERT_EQ(cache.flush_all(), ref.flush_all())
            << "round " << round << " op " << op;
      } else {
        const auto bytes =
            static_cast<std::uint64_t>(rng.uniform_int(0, 4 * line_bytes));
        ASSERT_EQ(cache.flush_range(addr, bytes), ref.flush_range(addr, bytes))
            << "round " << round << " op " << op;
      }
      ASSERT_EQ(cache.hits(), ref.hits);
      ASSERT_EQ(cache.misses(), ref.misses);
      ASSERT_EQ(cache.writebacks(), ref.writebacks);
    }
  }
}

TEST(HostCpuTest, ChargesInstructionEnergy) {
  SystemParams params;
  System system{params};
  system.cpu().charge_instructions(1000);
  system.cpu().issue(InstBundle{.int_alu = 3, .fp_ops = 4});
  EXPECT_EQ(system.cpu().instructions(), 1007u);
  // host.energy is 128 pJ per instruction, read from the count: exact.
  EXPECT_EQ(system.snapshot().energies_pj.at("host.energy"), 128.0 * 1007);
}

TEST(HostCpuTest, MemoryStallsRaiseCycles) {
  System system;
  const std::uint64_t before = system.cpu().cycles();
  system.cpu().load(0x10000);  // cold miss -> L2 + DRAM stall
  const std::uint64_t cold = system.cpu().cycles() - before;
  const std::uint64_t before2 = system.cpu().cycles();
  system.cpu().load(0x10000);  // now hot
  const std::uint64_t hot = system.cpu().cycles() - before2;
  EXPECT_GT(cold, hot + 50);
}

TEST(HostCpuTest, SpinUntilReachesTargetExactly) {
  System system;
  system.cpu().charge_instructions(100);
  const Tick target = system.cpu().elapsed().ticks() + 1'000'000;  // +1us
  (void)system.cpu().spin_until(target);
  EXPECT_GE(system.cpu().elapsed().ticks(), target);
  EXPECT_LT(system.cpu().elapsed().ticks(), target + 2000);
}

TEST(BusTest, RoutesDramAndRejectsUnmapped) {
  System system;
  ASSERT_TRUE(system.bus().write_scalar<std::uint32_t>(0x40, 77).is_ok());
  auto value = system.bus().read_scalar<std::uint32_t>(0x40);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(*value, 77u);
  EXPECT_FALSE(system.bus().read_scalar<std::uint32_t>(0x50'0000'0000ull).is_ok());
}

TEST(BusTest, RejectsWindowsOverlappingDramOrADevice) {
  System system;
  cim::Accelerator accel{{}, system};  // attaches its PMIO window
  const PhysAddr pmio = cim::AcceleratorParams{}.pmio_base;
  const auto overlap = system.bus().attach(pmio + 8, 16, accel);
  ASSERT_FALSE(overlap.is_ok());
  EXPECT_EQ(overlap.code(), support::StatusCode::kInvalidArgument);
  EXPECT_NE(overlap.message().find("overlaps cim-accelerator"),
            std::string::npos)
      << overlap.to_string();
  EXPECT_FALSE(system.bus().attach(0x40, 16, accel).is_ok());
}

TEST(SystemTest, GlobalTimeTracksBothClocks) {
  System system;
  system.cpu().charge_cycles(1200);  // 1 us at 1.2 GHz
  EXPECT_NEAR(system.global_time().microseconds(), 1.0, 0.01);
  system.settle_to_host_time();
  const Tick done =
      system.events().now() + support::Duration::from_us(5).ticks();
  system.events().schedule_at(done, "x", [] {});
  system.events().run_until(done);
  EXPECT_NEAR(system.global_time().microseconds(), 6.0, 0.02);
}

}  // namespace
}  // namespace tdo::sim
