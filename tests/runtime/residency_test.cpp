// Tests for the weight-residency cache (runtime/residency.*): cross-call
// stationary-tile reuse, epoch-based invalidation through the rectangle
// hazard machinery, LRU eviction order, affinity routing, and the serving
// loop acceptance regression (fewer crossbar writes, strictly faster at
// depth >= 2, bit-identical results across a mid-loop host update of B).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "runtime/cim_blas.hpp"
#include "runtime/residency.hpp"
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

RuntimeConfig residency_config(std::size_t depth = 2,
                               std::uint32_t capacity_rows = 0) {
  RuntimeConfig config;
  config.stream.depth = depth;
  config.residency.capacity_rows = capacity_rows;
  config.xfer.min_async_bytes = 1024;  // small test buffers still ride
  return config;
}

TEST(ResidencyTest, RepeatedGemmSkipsReprogramming) {
  Platform p{residency_config()};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 32, n = 64, k = 64;
  const auto a = random_matrix(m * k, 1.0, 11);
  const auto b = random_matrix(k * n, 1.0, 12);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  const std::uint64_t writes_first = p.accel().report().weight_writes8;
  EXPECT_GT(writes_first, 0u);
  EXPECT_EQ(p.runtime().residency().counters().misses.value(), 1u);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  const auto report = p.accel().report();
  EXPECT_EQ(report.weight_writes8, writes_first)
      << "second call reprogrammed a resident tile";
  EXPECT_EQ(report.weight_writes_saved8, k * n);
  EXPECT_EQ(p.runtime().residency().counters().hits.value(), 1u);

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(va_c, m * n), want), 0.15);
}

TEST(ResidencyTest, NonCacheableCallsDoNotPopulateTheCache) {
  Platform p{residency_config()};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16, n = 32, k = 32;
  const auto va_a = p.upload(random_matrix(m * k, 1.0, 21));
  const auto va_b = p.upload(random_matrix(k * n, 1.0, 22));
  const auto va_c = p.device_zeros(m * n);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                                 cim::StationaryOperand::kB)
                    .is_ok());
    ASSERT_TRUE(p.runtime().synchronize().is_ok());
  }
  EXPECT_EQ(p.runtime().residency().counters().hits.value(), 0u);
  EXPECT_EQ(p.runtime().residency().entries(), 0u);
  // Both calls programmed the tile (the paper's original behaviour).
  EXPECT_EQ(p.accel().report().weight_writes8, 2 * k * n);
}

TEST(ResidencyTest, HostUpdateOfCachedTileInvalidatesBeforeNextLaunch) {
  // WAR via rect overlap: a host_to_dev copy into a cached B mid-stream
  // must (a) order behind the in-flight reader and (b) kill the residency
  // entry, so the next launch reprograms from the updated data.
  Platform p{residency_config(4)};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 32, n = 64, k = 64;
  const auto a = random_matrix(m * k, 1.0, 31);
  const auto b_old = random_matrix(k * n, 1.0, 32);
  const auto b_new = random_matrix(k * n, 1.0, 33);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b_old);
  const auto va_src = p.upload(b_new);
  const auto va_c = p.device_zeros(m * n);

  // First call caches the tile and is still in flight when the update lands.
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  ASSERT_TRUE(p.runtime().host_to_dev(va_b, va_src, k * n * 4).is_ok());
  EXPECT_GE(p.runtime().residency().counters().invalidations.value(), 1u)
      << "host update left a stale tile cached";

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(p.runtime().residency().counters().hits.value(), 0u);
  EXPECT_EQ(p.accel().report().weight_writes_saved8, 0u)
      << "device reused a tile the host had overwritten";

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b_new, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(va_c, m * n), want), 0.15)
      << "second launch observed the stale weights";
}

TEST(ResidencyTest, EvictionOrderIsLru) {
  // Capacity of two 64-row tiles: B1, B2, B3 -> B1 evicted; touching B2
  // then inserting B4 must evict B3 (the least recently used), not B2.
  Platform p{residency_config(2, /*capacity_rows=*/128)};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16, n = 64, k = 64;
  const auto va_a = p.upload(random_matrix(m * k, 1.0, 41));
  const auto va_c = p.device_zeros(m * n);
  std::vector<sim::VirtAddr> bs;
  for (int i = 0; i < 4; ++i) {
    bs.push_back(p.upload(random_matrix(k * n, 1.0, 50 + i)));
  }
  auto call = [&](sim::VirtAddr b) {
    ASSERT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a, k, b, n, 0.0f, va_c, n,
                                 cim::StationaryOperand::kB, /*cacheable=*/true)
                    .is_ok());
    ASSERT_TRUE(p.runtime().synchronize().is_ok());
  };
  call(bs[0]);  // miss, resident {B1}
  call(bs[1]);  // miss, resident {B1, B2}
  call(bs[2]);  // miss, evicts B1 -> {B2, B3}
  const auto& res = p.runtime().residency().counters();
  EXPECT_EQ(res.misses.value(), 3u);
  EXPECT_EQ(res.evictions.value(), 1u);

  call(bs[1]);  // hit, refreshes B2
  call(bs[3]);  // miss, must evict B3 (LRU), keeping B2
  call(bs[1]);  // hit again: B2 survived
  call(bs[2]);  // miss: B3 was the victim
  EXPECT_EQ(res.hits.value(), 2u);
  EXPECT_EQ(res.misses.value(), 5u);
  EXPECT_EQ(res.evictions.value(), 3u);
}

TEST(ResidencyTest, AffinityRoutesToTheResidentAccelerator) {
  Platform p{residency_config(), cim::AcceleratorParams{}, sim::SystemParams{},
             /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16, n = 64, k = 64;
  const auto va_a = p.upload(random_matrix(m * k, 1.0, 61));
  const auto va_b1 = p.upload(random_matrix(k * n, 1.0, 62));
  const auto va_b2 = p.upload(random_matrix(k * n, 1.0, 63));
  const auto va_c = p.device_zeros(m * n);
  auto call = [&](sim::VirtAddr b) {
    ASSERT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a, k, b, n, 0.0f, va_c, n,
                                 cim::StationaryOperand::kB, /*cacheable=*/true)
                    .is_ok());
    ASSERT_TRUE(p.runtime().synchronize().is_ok());
  };
  // Round-robin places B1 on accelerator 0 and B2 on accelerator 1.
  call(va_b1);
  call(va_b2);
  const std::uint64_t jobs0 = p.accel(0).report().jobs;
  const std::uint64_t jobs1 = p.accel(1).report().jobs;
  // Every further B1 call must land where B1 is resident, overriding the
  // round-robin cursor.
  for (int i = 0; i < 3; ++i) call(va_b1);
  EXPECT_EQ(p.accel(0).report().jobs, jobs0 + 3);
  EXPECT_EQ(p.accel(1).report().jobs, jobs1);
  EXPECT_EQ(p.runtime().residency().counters().hits.value(), 3u);
}

TEST(ResidencyTest, AffinityDoesNotStarveAnAcceleratorWithQueuedWork) {
  // Accelerator 1 has a queue of B2 work; a burst of affinity-routed B1
  // calls lands on accelerator 0. Everything must drain: the affinity
  // override only redirects new work, it never blocks another queue.
  Platform p{residency_config(4), cim::AcceleratorParams{},
             sim::SystemParams{}, /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 32, n = 64, k = 64;
  const auto a = random_matrix(m * k, 1.0, 71);
  const auto b1 = random_matrix(k * n, 1.0, 72);
  const auto b2 = random_matrix(k * n, 1.0, 73);
  const auto va_a = p.upload(a);
  const auto va_b1 = p.upload(b1);
  const auto va_b2 = p.upload(b2);
  const auto va_c1 = p.device_zeros(m * n);
  const auto va_c2 = p.device_zeros(m * n);

  // Seed residency: B1 -> accel 0, B2 -> accel 1.
  auto enqueue = [&](sim::VirtAddr b, sim::VirtAddr c) {
    ASSERT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a, k, b, n, 0.0f, c, n,
                                 cim::StationaryOperand::kB,
                                 /*cacheable=*/true)
                    .is_ok());
  };
  enqueue(va_b1, va_c1);
  enqueue(va_b2, va_c2);
  // Burst of B1 requests while accelerator 1 still works on B2.
  for (int i = 0; i < 4; ++i) enqueue(va_b1, va_c1);
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  EXPECT_GE(p.accel(1).jobs_completed(), 1u) << "queued work starved";
  EXPECT_GE(p.accel(0).jobs_completed(), 5u);

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b2, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(va_c2, m * n), want), 0.15);
}

// --- acceptance regression: the serving loop ---

struct ServingResult {
  std::uint64_t weight_writes = 0;
  std::uint64_t picoseconds = 0;
  std::vector<float> output;
};

ServingResult run_serving_loop(bool cache_enabled) {
  RuntimeConfig config;
  config.stream.depth = 2;
  config.residency.enabled = cache_enabled;
  config.xfer.min_async_bytes = 1024;
  Platform p{config};
  EXPECT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 32, n = 64, k = 64;
  const auto a = random_matrix(m * k, 1.0, 81);
  const auto b1 = random_matrix(k * n, 1.0, 82);
  const auto b2 = random_matrix(k * n, 1.0, 83);
  const auto b1_updated = random_matrix(k * n, 1.0, 84);
  const auto va_a = p.upload(a);
  const auto va_b1 = p.upload(b1);
  const auto va_b2 = p.upload(b2);
  const auto va_update = p.upload(b1_updated);
  // Two rotating output buffers so back-to-back requests pipeline.
  const sim::VirtAddr va_c[2] = {p.device_zeros(m * n), p.device_zeros(m * n)};

  // Zipf-ish fixed request schedule over the two weight sets, with a host
  // update of B1 landing mid-loop.
  const std::size_t schedule[] = {0, 1, 0, 0, 1, 0, 0, 0};
  const sim::VirtAddr vb[2] = {va_b1, va_b2};
  const auto t0 = p.system().global_time();
  for (std::size_t r = 0; r < std::size(schedule); ++r) {
    if (r == 5) {
      EXPECT_TRUE(p.runtime().host_to_dev(va_b1, va_update, k * n * 4).is_ok());
    }
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a, k, vb[schedule[r]], n,
                                 0.0f, va_c[r % 2], n,
                                 cim::StationaryOperand::kB,
                                 /*cacheable=*/true)
                    .is_ok());
  }
  EXPECT_TRUE(p.runtime().synchronize().is_ok());
  const auto t1 = p.system().global_time();

  ServingResult result;
  result.weight_writes = p.accel().report().weight_writes8;
  result.picoseconds =
      static_cast<std::uint64_t>((t1 - t0).picoseconds());
  const auto c0 = p.read_floats(va_c[0], m * n);
  const auto c1 = p.read_floats(va_c[1], m * n);
  result.output = c0;
  result.output.insert(result.output.end(), c1.begin(), c1.end());
  return result;
}

TEST(ResidencyTest, ServingLoopRegression) {
  // The ISSUE's acceptance bar: with the cache, the serving loop performs
  // strictly fewer crossbar weight writes, is strictly faster end-to-end at
  // stream depth >= 2, and — because invalidation catches the mid-loop host
  // update of B1 — produces bit-identical results to the cache-off run.
  const ServingResult with_cache = run_serving_loop(true);
  const ServingResult without_cache = run_serving_loop(false);

  EXPECT_LT(with_cache.weight_writes, without_cache.weight_writes);
  EXPECT_LT(with_cache.picoseconds, without_cache.picoseconds);
  ASSERT_EQ(with_cache.output.size(), without_cache.output.size());
  EXPECT_EQ(0, std::memcmp(with_cache.output.data(),
                           without_cache.output.data(),
                           with_cache.output.size() * sizeof(float)))
      << "cached run diverged from the always-reprogram run";
}

/// Request-serial serving loop over a cyclic tile sequence longer than the
/// cache (classic LRU thrash): W weight sets, capacity W-1 tiles. Returns
/// total elapsed picoseconds plus the final stats snapshot.
struct PrefetchResult {
  double picoseconds = 0.0;
  support::StatsSnapshot stats;
  std::vector<float> output;
};

PrefetchResult run_prefetch_loop(bool prefetch_on_miss) {
  RuntimeConfig config = residency_config(/*depth=*/2, /*capacity_rows=*/128);
  config.residency.prefetch_on_miss = prefetch_on_miss;
  Platform p{config};
  EXPECT_TRUE(p.runtime().init(0).is_ok());
  // Stationary A^T tiles: the weight phase's strided column reads make the
  // prefetchable DMA slice substantial, which is exactly what the chained
  // kProgram hides under the predecessor's stream phase.
  const std::size_t m = 64, n = 64, k = 64;
  constexpr std::size_t kSets = 3;       // 3 x 64-row tiles vs 128-row cache
  constexpr std::size_t kRequests = 36;  // 12 full cycles
  std::vector<sim::VirtAddr> va_a(kSets);
  for (std::size_t w = 0; w < kSets; ++w) {
    va_a[w] = p.upload(random_matrix(m * k, 1.0, 300 + w));
  }
  const auto va_b = p.upload(random_matrix(k * n, 1.0, 310));
  const auto va_c = p.device_zeros(m * n);

  const auto t0 = p.system().global_time();
  for (std::size_t r = 0; r < kRequests; ++r) {
    // Request-serial (one outstanding request, host thinks between them):
    // the window where prefetch-on-miss hides the successor's programming.
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a[r % kSets], k, va_b, n,
                                 0.0f, va_c, n, cim::StationaryOperand::kA,
                                 /*cacheable=*/true)
                    .is_ok());
    EXPECT_TRUE(p.runtime().synchronize().is_ok());
  }
  PrefetchResult result;
  result.picoseconds = (p.system().global_time() - t0).picoseconds();
  result.stats = p.system().snapshot();
  result.output = p.read_floats(va_c, m * n);
  return result;
}

TEST(ResidencyTest, PrefetchOnMissHidesSuccessorProgramming) {
  const PrefetchResult off = run_prefetch_loop(false);
  const PrefetchResult on = run_prefetch_loop(true);

  // Without the predictor the cyclic loop thrashes: every request misses.
  EXPECT_EQ(off.stats.counter_or("residency.hits"), 0u);
  EXPECT_EQ(off.stats.counter_or("residency.prefetch_hits"), 0u);
  // With it, the successor tile is programmed during the current request
  // and most requests land as prefetch hits.
  EXPECT_GT(on.stats.counter_or("residency.prefetches"), 0u);
  EXPECT_GT(on.stats.counter_or("residency.prefetch_hits"), 0u);
  EXPECT_GT(on.stats.counter_or("residency.hits"),
            off.stats.counter_or("residency.hits"));
  // The acceptance bar: strictly fewer stall ticks end-to-end.
  EXPECT_LT(on.picoseconds, off.picoseconds);
  // Speculative programming must never change results.
  ASSERT_EQ(on.output.size(), off.output.size());
  EXPECT_EQ(0, std::memcmp(on.output.data(), off.output.data(),
                           on.output.size() * sizeof(float)))
      << "prefetching changed the computed output";
}

}  // namespace
}  // namespace tdo::rt
