// Randomized differential tests for the scatter-gather transfer engine.
//
// Two layers of oracle checking, both driven by one seed (TDO_FUZZ_SEED in
// the environment overrides the default, which is what CI's seeded-fuzz job
// step does):
//
//  1. Geometry: Rect::overlaps and RectTracker verdicts are checked against
//     a naive per-byte oracle that materializes every byte of one rectangle
//     and probes the other — the analytic row-intersection math must agree
//     with brute force on every random shape, including degenerate ones.
//
//  2. Copy plans: ~200 random scatter-gather copy plans (random MMU
//     fragmentation, random segment counts/sizes, pitched sub-matrix views,
//     interleaved with gemm launches) executed on an async-copy runtime and
//     replayed on a second runtime pinned to the synchronous host-memcpy
//     path. Every buffer the two runtimes produce must be bit-identical —
//     the DMA chains, hazard ordering, and contention model may change the
//     schedule, never the bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "runtime/cim_blas.hpp"
#include "runtime/residency.hpp"
#include "runtime/stream.hpp"
#include "runtime/xfer.hpp"
#include "support/fixed_point.hpp"
#include "support/rng.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt {
namespace {

using testing::fuzz_seed;
using testing::Platform;

// --- layer 1: geometry vs per-byte oracle ---

std::set<std::uint64_t> rect_bytes(const Rect& r) {
  std::set<std::uint64_t> bytes;
  if (r.empty()) return bytes;
  for (std::uint64_t row = 0; row < r.rows; ++row) {
    for (std::uint64_t b = 0; b < r.width; ++b) {
      bytes.insert(r.base + row * r.pitch + b);
    }
  }
  return bytes;
}

bool oracle_overlaps(const Rect& a, const Rect& b) {
  const auto bytes_a = rect_bytes(a);
  for (const std::uint64_t byte : rect_bytes(b)) {
    if (bytes_a.contains(byte)) return true;
  }
  return false;
}

Rect random_rect(support::Rng& rng) {
  Rect r;
  r.base = static_cast<sim::PhysAddr>(rng.uniform_int(0, 512));
  r.width = static_cast<std::uint64_t>(rng.uniform_int(0, 48));
  // Bias toward pitches near the width so rows interleave interestingly;
  // allow pitch < width too (overlapping rows) — the oracle doesn't care.
  r.pitch = static_cast<std::uint64_t>(rng.uniform_int(0, 96));
  r.rows = static_cast<std::uint64_t>(rng.uniform_int(1, 8));
  return r;
}

TEST(XferFuzzTest, RectOverlapMatchesPerByteOracle) {
  support::Rng rng{fuzz_seed()};
  for (int iter = 0; iter < 400; ++iter) {
    const Rect a = random_rect(rng);
    const Rect b = random_rect(rng);
    const bool want = oracle_overlaps(a, b);
    EXPECT_EQ(a.overlaps(b), want)
        << "iter " << iter << ": a={" << a.base << "," << a.pitch << ","
        << a.width << "," << a.rows << "} b={" << b.base << "," << b.pitch
        << "," << b.width << "," << b.rows << "}";
    EXPECT_EQ(b.overlaps(a), want) << "asymmetric verdict at iter " << iter;
  }
}

TEST(XferFuzzTest, RectTrackerVerdictsMatchPerByteOracle) {
  support::Rng rng{fuzz_seed() ^ 0x9e3779b97f4a7c15ull};
  for (int iter = 0; iter < 200; ++iter) {
    RectTracker tracker;
    std::vector<Rect> reads;
    std::vector<Rect> writes;
    const int n = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < n; ++i) {
      const Rect r = random_rect(rng);
      if (rng.chance(0.5)) {
        tracker.note_read(r);
        if (!r.empty()) reads.push_back(r);
      } else {
        tracker.note_write(r);
        if (!r.empty()) writes.push_back(r);
      }
    }
    const Rect probe = random_rect(rng);
    bool want_reads = false;
    bool want_writes = false;
    for (const Rect& r : reads) want_reads = want_reads || oracle_overlaps(r, probe);
    for (const Rect& r : writes) want_writes = want_writes || oracle_overlaps(r, probe);
    EXPECT_EQ(tracker.reads_overlap(probe), want_reads) << "iter " << iter;
    EXPECT_EQ(tracker.writes_overlap(probe), want_writes) << "iter " << iter;
    EXPECT_EQ(!tracker.writes_overlapping(probe).empty(), want_writes)
        << "iter " << iter;
  }
}

// --- layer 2: random copy plans, async vs synchronous host path ---

/// One runtime under test plus the state the plans accumulate on it.
struct Rig {
  explicit Rig(bool async_copies)
      : platform{[&] {
          RuntimeConfig config;
          config.stream.depth = 4;
          config.xfer.async_copies = async_copies;
          config.xfer.min_async_bytes = 256;  // tiny plans still ride
          return config;
        }()} {
    EXPECT_TRUE(platform.runtime().init(0).is_ok());
    // Persistent GEMM operands the interleaved launches reuse.
    const auto a = testing::random_matrix(kGemmDim * kGemmDim, 1.0, 7);
    const auto b = testing::random_matrix(kGemmDim * kGemmDim, 1.0, 8);
    gemm_a = platform.upload(a);
    gemm_b = platform.upload(b);
    gemm_c = platform.device_zeros(kGemmDim * kGemmDim);
  }

  static constexpr std::size_t kGemmDim = 24;
  Platform platform;
  sim::VirtAddr gemm_a = 0;
  sim::VirtAddr gemm_b = 0;
  sim::VirtAddr gemm_c = 0;
  std::vector<sim::VirtAddr> host_pages;  // fragmentation pool
};

using testing::read_floats_scattered;
using testing::write_floats_scattered;

/// One randomly drawn copy plan. The description is drawn once and applied
/// to both rigs so their call sequences are identical.
struct Plan {
  std::uint64_t floats = 0;        // payload element count
  std::vector<float> payload;
  int frag_allocs = 0;             // fragmentation churn before the alloc
  bool release_evens = false;
  bool gemm_before = false;        // interleave a launch before the copy
  bool gemm_between = false;       // ... and between the two copies
  bool round_trip = false;         // dev_to_host back into scattered memory
  bool as_view = false;            // pitched sub-matrix view instead of flat
  std::uint64_t view_cols = 0;     // elements per view row
  std::uint64_t view_rows = 0;
  std::uint64_t view_stride = 0;   // elements between row starts (>= cols)

  /// Element indices (into the payload/buffer) the plan's copy moves.
  [[nodiscard]] std::vector<std::uint64_t> moved_indices() const {
    std::vector<std::uint64_t> idx;
    if (!as_view) {
      idx.resize(floats);
      for (std::uint64_t i = 0; i < floats; ++i) idx[i] = i;
      return idx;
    }
    idx.reserve(view_rows * view_cols);
    for (std::uint64_t r = 0; r < view_rows; ++r) {
      for (std::uint64_t c = 0; c < view_cols; ++c) {
        idx.push_back(r * view_stride + c);
      }
    }
    return idx;
  }
};

Plan draw_plan(support::Rng& rng, std::uint64_t iter) {
  Plan plan;
  const std::uint64_t pages = static_cast<std::uint64_t>(rng.uniform_int(1, 5));
  const std::uint64_t tail = static_cast<std::uint64_t>(rng.uniform_int(0, 255)) * 4;
  plan.floats = (pages * sim::kPageSize + tail) / 4;
  plan.payload = testing::random_matrix(plan.floats, 9.0, 1000 + iter);
  plan.frag_allocs = static_cast<int>(rng.uniform_int(0, 6));
  plan.release_evens = rng.chance(0.7);
  plan.gemm_before = rng.chance(0.4);
  plan.gemm_between = rng.chance(0.3);
  plan.round_trip = rng.chance(0.6);
  plan.as_view = rng.chance(0.3);
  if (plan.as_view) {
    plan.view_cols = static_cast<std::uint64_t>(rng.uniform_int(8, 96));
    // Genuinely pitched more often than not: row gaps force the planner's
    // pitched-rectangle coalescing and the host path's row loop.
    plan.view_stride =
        plan.view_cols + static_cast<std::uint64_t>(rng.uniform_int(0, 48));
    const std::uint64_t max_rows = plan.floats / plan.view_stride;
    plan.view_rows = max_rows < 2
                         ? 0
                         : static_cast<std::uint64_t>(
                               rng.uniform_int(2, static_cast<std::int64_t>(
                                                      std::min<std::uint64_t>(
                                                          max_rows, 32))));
    if (plan.view_rows == 0) plan.as_view = false;
  }
  return plan;
}

/// Applies one plan to a rig; returns the device buffer holding the copied
/// payload (and, via out-params, the round-trip host buffer if any).
void apply_plan(Rig& rig, const Plan& plan, std::vector<float>* dev_result,
                std::vector<float>* round_trip_result) {
  Platform& p = rig.platform;
  auto& mmu = p.system().mmu();
  auto& runtime = p.runtime();

  // Fragmentation churn: allocate single pages, release a deterministic
  // subset — the next allocation pops scattered frames.
  std::vector<sim::VirtAddr> churn;
  for (int i = 0; i < plan.frag_allocs; ++i) {
    auto page = mmu.allocate(sim::kPageSize);
    ASSERT_TRUE(page.is_ok());
    churn.push_back(*page);
  }
  for (std::size_t i = 0; i < churn.size(); ++i) {
    if (plan.release_evens ? (i % 2 == 0) : (i % 2 == 1)) {
      ASSERT_TRUE(mmu.release(churn[i], sim::kPageSize).is_ok());
    } else {
      rig.host_pages.push_back(churn[i]);
    }
  }

  auto src = mmu.allocate(plan.floats * 4);
  ASSERT_TRUE(src.is_ok());
  write_floats_scattered(p, *src, plan.payload);
  auto dst = runtime.malloc_device(plan.floats * 4);
  ASSERT_TRUE(dst.is_ok());

  const auto launch_gemm = [&] {
    ASSERT_TRUE(runtime
                    .sgemm_async(Rig::kGemmDim, Rig::kGemmDim, Rig::kGemmDim,
                                 1.0f, rig.gemm_a, Rig::kGemmDim, rig.gemm_b,
                                 Rig::kGemmDim, 0.0f, rig.gemm_c,
                                 Rig::kGemmDim, cim::StationaryOperand::kB)
                    .is_ok());
  };

  if (plan.gemm_before) launch_gemm();
  if (plan.as_view) {
    // Copy only a pitched sub-matrix view of the scattered buffer (row gaps
    // when view_stride > view_cols).
    ASSERT_TRUE(runtime
                    .host_to_dev_2d(*dst, *src, plan.view_stride * 4,
                                    plan.view_cols * 4, plan.view_rows)
                    .is_ok());
  } else {
    ASSERT_TRUE(runtime.host_to_dev(*dst, *src, plan.floats * 4).is_ok());
  }
  if (plan.gemm_between) launch_gemm();

  sim::VirtAddr back = 0;
  if (plan.round_trip) {
    auto back_va = mmu.allocate(plan.floats * 4);
    ASSERT_TRUE(back_va.is_ok());
    // Round trips read back exactly the footprint the upload moved; the
    // gaps of a pitched view hold unwritten memory on both sides and are
    // excluded from the comparison below.
    if (plan.as_view) {
      ASSERT_TRUE(runtime
                      .dev_to_host_2d(back_va.value(), *dst,
                                      plan.view_stride * 4, plan.view_cols * 4,
                                      plan.view_rows)
                      .is_ok());
    } else {
      ASSERT_TRUE(
          runtime.dev_to_host(back_va.value(), *dst, plan.floats * 4).is_ok());
    }
    back = *back_va;
  }

  ASSERT_TRUE(runtime.synchronize().is_ok());
  // Gather only the moved elements (a pitched view's row gaps are skipped).
  const std::vector<std::uint64_t> indices = plan.moved_indices();
  dev_result->resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    auto pa = p.system().mmu().translate(*dst + indices[i] * 4);
    ASSERT_TRUE(pa.is_ok());
    (*dev_result)[i] = p.system().memory().read_scalar<float>(*pa);
  }
  if (plan.round_trip) {
    round_trip_result->resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      auto pa = p.system().mmu().translate(back + indices[i] * 4);
      ASSERT_TRUE(pa.is_ok());
      (*round_trip_result)[i] = p.system().memory().read_scalar<float>(*pa);
    }
    ASSERT_TRUE(mmu.release(back, plan.floats * 4).is_ok());
  } else {
    round_trip_result->clear();
  }
  ASSERT_TRUE(runtime.free_device(*dst).is_ok());
  ASSERT_TRUE(mmu.release(*src, plan.floats * 4).is_ok());
}

TEST(XferFuzzTest, RandomScatterGatherPlansMatchSynchronousHostPath) {
  const std::uint64_t seed = fuzz_seed();
  support::Rng rng{seed};
  Rig async_rig{/*async_copies=*/true};
  Rig sync_rig{/*async_copies=*/false};

  std::uint64_t scattered_plans = 0;
  for (std::uint64_t iter = 0; iter < 200; ++iter) {
    const Plan plan = draw_plan(rng, iter);
    std::vector<float> async_dev, async_back, sync_dev, sync_back;
    apply_plan(async_rig, plan, &async_dev, &async_back);
    apply_plan(sync_rig, plan, &sync_dev, &sync_back);
    if (HasFatalFailure()) return;

    // Bit-identical across the async DMA-chain path and the blocking
    // host-memcpy path, and both equal to the drawn payload.
    const std::vector<std::uint64_t> indices = plan.moved_indices();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      ASSERT_EQ(async_dev[i], sync_dev[i])
          << "seed " << seed << " iter " << iter << " element " << i << "/"
          << indices.size() << (plan.as_view ? " (view)" : " (flat)");
      ASSERT_EQ(async_dev[i], plan.payload[indices[i]])
          << "seed " << seed << " iter " << iter << " element " << i;
    }
    ASSERT_EQ(async_back, sync_back) << "seed " << seed << " iter " << iter;
    const auto stats = async_rig.platform.system().snapshot();
    if (stats.sum_ending_with(".copy_segments") >
        stats.counter_or("stream.copies_enqueued")) {
      ++scattered_plans;
    }

    // The interleaved GEMMs must agree bitwise as well: hazard ordering
    // against in-flight copies may differ in schedule, never in data.
    const auto async_c = async_rig.platform.read_floats(
        async_rig.gemm_c, Rig::kGemmDim * Rig::kGemmDim);
    const auto sync_c = sync_rig.platform.read_floats(
        sync_rig.gemm_c, Rig::kGemmDim * Rig::kGemmDim);
    ASSERT_EQ(async_c, sync_c) << "seed " << seed << " iter " << iter;
  }

  // The fragmentation churn must actually have produced scatter-gather
  // chains, or the differential layer tested nothing interesting.
  EXPECT_GT(scattered_plans, 10u) << "seed " << seed;
  const auto stats = async_rig.platform.system().snapshot();
  const std::uint64_t copies = stats.counter_or("stream.copies_enqueued");
  EXPECT_GT(copies, 0u);
  EXPECT_GT(stats.sum_ending_with(".copy_segments"), copies)
      << "no plan ever split into a multi-segment chain (seed " << seed << ")";
  EXPECT_LE(stats.sum_ending_with(".dma.overlapped_copy_bytes"),
            stats.counter_or("stream.copy_bytes"));
}

// --- layer 3: dev->dev migration segments vs host-bounce reference ---

/// One random migration trial: primes a random stationary tile on a
/// two-device runtime, migrates it over the requested path, optionally
/// migrates it back (the reverse dev->dev hop), reruns the GEMM, and
/// returns the final output.
struct MigrationTrial {
  std::uint64_t m = 0, n = 0, k = 0;
  std::uint64_t seed = 0;
  bool migrate_back = false;
};

std::vector<float> apply_migration_trial(const MigrationTrial& trial,
                                         bool peer_to_peer) {
  RuntimeConfig config;
  config.stream.depth = 2;
  config.xfer.min_async_bytes = 1024;
  testing::Platform p{config, {}, {}, /*accelerators=*/2};
  EXPECT_TRUE(p.runtime().init(0).is_ok());
  const auto a = testing::random_matrix(trial.m * trial.k, 1.0, trial.seed);
  const auto b =
      testing::random_matrix(trial.k * trial.n, 1.0, trial.seed + 1);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(trial.m * trial.n);
  const auto gemm = [&] {
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(trial.m, trial.n, trial.k, 1.0f, va_a, trial.k,
                                 va_b, trial.n, 0.0f, va_c, trial.n,
                                 cim::StationaryOperand::kB, /*cacheable=*/true)
                    .is_ok());
    EXPECT_TRUE(p.runtime().synchronize().is_ok());
  };
  gemm();
  EXPECT_TRUE(p.runtime().synchronize().is_ok());

  auto pa_b = p.system().mmu().translate(va_b);
  EXPECT_TRUE(pa_b.is_ok());
  double max_abs = 0.0;
  for (const float v : b) {
    max_abs = std::max(max_abs, static_cast<double>(std::fabs(v)));
  }
  WeightKey key;
  key.rect = Rect{*pa_b, trial.n * 4, trial.n * 4, trial.k};
  key.ld = trial.n;
  key.scale = support::QuantScale::for_max_abs(max_abs).scale;
  key.layout = cim::StationaryOperand::kB;
  key.rows = static_cast<std::uint32_t>(trial.k);
  key.cols = static_cast<std::uint32_t>(trial.n);

  const auto placed = p.runtime().residency().peek(key);
  EXPECT_TRUE(placed.has_value());
  const int other = placed->device == 0 ? 1 : 0;
  EXPECT_TRUE(p.runtime().migrate_residency(key, other, peer_to_peer).is_ok());
  if (trial.migrate_back) {
    // Reverse hop while the first adoption may still be in flight — chains
    // two dev->dev segment plans through the hazard machinery.
    EXPECT_TRUE(p.runtime()
                    .migrate_residency(key, placed->device, peer_to_peer)
                    .is_ok());
  }
  EXPECT_TRUE(p.runtime().synchronize().is_ok());
  gemm();
  EXPECT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_GT(p.runtime().residency().counters().migrations.value(), 0u);
  return p.read_floats(va_c, trial.m * trial.n);
}

TEST(XferFuzzTest, RandomDevToDevMigrationsMatchHostBouncePath) {
  const std::uint64_t seed = fuzz_seed();
  support::Rng rng{seed};
  for (std::uint64_t iter = 0; iter < 16; ++iter) {
    MigrationTrial trial;
    trial.m = static_cast<std::uint64_t>(rng.uniform_int(4, 32));
    trial.n = static_cast<std::uint64_t>(rng.uniform_int(8, 64));
    trial.k = static_cast<std::uint64_t>(rng.uniform_int(8, 64));
    trial.seed = seed * 1000 + iter;
    trial.migrate_back = rng.chance(0.5);
    const auto p2p = apply_migration_trial(trial, /*peer_to_peer=*/true);
    const auto bounce = apply_migration_trial(trial, /*peer_to_peer=*/false);
    if (HasFatalFailure()) return;
    ASSERT_EQ(p2p.size(), bounce.size());
    for (std::size_t i = 0; i < p2p.size(); ++i) {
      ASSERT_EQ(p2p[i], bounce[i])
          << "dev->dev and host-bounce results diverged: seed " << seed
          << " iter " << iter << " element " << i << " (m=" << trial.m
          << " n=" << trial.n << " k=" << trial.k
          << (trial.migrate_back ? ", round trip)" : ")");
    }
  }
}

}  // namespace
}  // namespace tdo::rt
