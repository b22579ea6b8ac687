// Tests for peer-to-peer residency migration (CimRuntime::migrate_residency):
// destination adoption as a hit, bit-exact equivalence of the dev->dev and
// host-bounce paths, argument validation, and the WAR/RAW hazards around a
// migrating resident tile — a host update racing the migration must degrade
// to a reprogram with the fresh bytes, never serve stale weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/cim_blas.hpp"
#include "runtime/residency.hpp"
#include "support/fixed_point.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt {
namespace {

using testing::Platform;
using testing::random_matrix;
using testing::ref_gemm;

RuntimeConfig migration_config() {
  RuntimeConfig config;
  config.stream.depth = 2;
  config.xfer.min_async_bytes = 1024;
  return config;
}

/// The dispatch path's residency key for a single-tile stationary-B GEMM
/// (n, k within one crossbar tile; ldb == n).
WeightKey tile_key(Platform& p, sim::VirtAddr va_b,
                   const std::vector<float>& b_data, std::uint64_t n,
                   std::uint64_t k) {
  auto pa_b = p.system().mmu().translate(va_b);
  EXPECT_TRUE(pa_b.is_ok());
  double max_abs = 0.0;
  for (const float v : b_data) {
    max_abs = std::max(max_abs, static_cast<double>(std::fabs(v)));
  }
  WeightKey key;
  key.rect = Rect{*pa_b, n * 4, n * 4, k};
  key.ld = n;
  key.scale = support::QuantScale::for_max_abs(max_abs).scale;
  key.layout = cim::StationaryOperand::kB;
  key.rows = static_cast<std::uint32_t>(k);
  key.cols = static_cast<std::uint32_t>(n);
  return key;
}

/// Primes one cacheable tile on device 0, migrates it to device 1 over the
/// requested path, reruns the GEMM, and returns the post-migration output.
std::vector<float> migrate_and_run(bool peer_to_peer, bool* adopted) {
  Platform p{migration_config(), {}, {}, /*accelerators=*/2};
  EXPECT_TRUE(p.runtime().init(0).is_ok());
  const std::uint64_t m = 32, n = 64, k = 64;
  const auto a = random_matrix(m * k, 1.0, 31);
  const auto b = random_matrix(k * n, 1.0, 32);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  EXPECT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  EXPECT_TRUE(p.runtime().synchronize().is_ok());
  const WeightKey key = tile_key(p, va_b, b, n, k);
  const auto placed = p.runtime().residency().peek(key);
  EXPECT_TRUE(placed.has_value());
  const int to_device = placed->device == 0 ? 1 : 0;

  EXPECT_TRUE(
      p.runtime().migrate_residency(key, to_device, peer_to_peer).is_ok());
  EXPECT_TRUE(p.runtime().synchronize().is_ok());
  const auto rehomed = p.runtime().residency().peek(key);
  EXPECT_TRUE(rehomed.has_value());
  EXPECT_EQ(rehomed->device, to_device);
  const auto& residency = p.runtime().residency().counters();
  EXPECT_EQ(residency.migrations.value(), 1u);

  // The follow-up request must ride the migrated tile as a hit on the
  // destination crossbar, not reprogram.
  const std::uint64_t hits_before = residency.hits.value();
  const std::uint64_t misses_before = residency.misses.value();
  const std::uint64_t dest_jobs =
      p.accel(static_cast<std::size_t>(to_device)).jobs_completed();
  EXPECT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  EXPECT_TRUE(p.runtime().synchronize().is_ok());
  *adopted =
      residency.hits.value() == hits_before + 1 &&
      residency.misses.value() == misses_before &&
      p.accel(static_cast<std::size_t>(to_device)).jobs_completed() > dest_jobs;

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  const auto got = p.read_floats(va_c, m * n);
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, static_cast<double>(std::fabs(got[i] - want[i])));
  }
  EXPECT_LT(err, 0.15);
  return got;
}

TEST(MigrationTest, PeerToPeerMigrationAdoptsTileOnDestination) {
  bool adopted = false;
  (void)migrate_and_run(/*peer_to_peer=*/true, &adopted);
  EXPECT_TRUE(adopted) << "migrated tile did not serve as a destination hit";
}

TEST(MigrationTest, HostBounceMigrationMatchesPeerToPeerBitExact) {
  bool adopted_p2p = false, adopted_bounce = false;
  const auto p2p = migrate_and_run(/*peer_to_peer=*/true, &adopted_p2p);
  const auto bounce = migrate_and_run(/*peer_to_peer=*/false, &adopted_bounce);
  EXPECT_TRUE(adopted_p2p);
  EXPECT_TRUE(adopted_bounce);
  ASSERT_EQ(p2p.size(), bounce.size());
  for (std::size_t i = 0; i < p2p.size(); ++i) {
    ASSERT_EQ(p2p[i], bounce[i])
        << "dev->dev and host-bounce migrations diverged at element " << i;
  }
}

TEST(MigrationTest, RejectsNonResidentTilesAndBadTargets) {
  Platform p{migration_config(), {}, {}, /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::uint64_t n = 64, k = 64;
  const auto b = random_matrix(k * n, 1.0, 41);
  const auto va_b = p.upload(b);
  const WeightKey key = tile_key(p, va_b, b, n, k);
  // Never primed: nothing to migrate.
  EXPECT_EQ(p.runtime().migrate_residency(key, 1).code(),
            support::StatusCode::kNotFound);
  // Device range is validated before anything else.
  EXPECT_EQ(p.runtime().migrate_residency(key, 7).code(),
            support::StatusCode::kInvalidArgument);
  EXPECT_EQ(p.runtime().migrate_residency(key, -1).code(),
            support::StatusCode::kInvalidArgument);
}

TEST(MigrationTest, MigrationToTheResidentDeviceIsANoOp) {
  Platform p{migration_config(), {}, {}, /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::uint64_t m = 16, n = 64, k = 64;
  const auto va_a = p.upload(random_matrix(m * k, 1.0, 51));
  const auto b = random_matrix(k * n, 1.0, 52);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  const WeightKey key = tile_key(p, va_b, b, n, k);
  const auto placed = p.runtime().residency().peek(key);
  ASSERT_TRUE(placed.has_value());
  EXPECT_TRUE(p.runtime().migrate_residency(key, placed->device).is_ok());
  EXPECT_EQ(p.runtime().residency().counters().migrations.value(), 0u);
}

TEST(MigrationTest, MidMigrationInvalidationDegradesToReprogram) {
  // Cache-level protocol check: if a host write invalidates the entry after
  // the migration peeked it (WAR on the source rectangle), rehome finds
  // nothing to move and reports failure — the destination then simply
  // reprograms on the next use instead of serving a stale shadow.
  Platform p{migration_config(), {}, {}, /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  auto& cache = p.runtime().residency();
  WeightKey key;
  key.rect = Rect{0x1000, 256, 256, 64};
  key.ld = 64;
  key.scale = 1.0;
  key.layout = cim::StationaryOperand::kB;
  key.rows = 64;
  key.cols = 64;
  const auto acquired = cache.acquire(key, /*device=*/0);
  ASSERT_TRUE(acquired.cached);
  const Rect shadow{0x9000, 256, 256, 64};
  // The racing invalidation lands between the peek and the re-home.
  cache.invalidate_overlapping(key.rect);
  EXPECT_FALSE(cache.rehome(key, 0, 1, 0, shadow, 64));
  // The next acquire is a miss: the caller reprograms with fresh bytes.
  EXPECT_FALSE(cache.acquire(key, 0).hit);
}

TEST(MigrationTest, HostUpdateAfterMigrationReprogramsWithFreshBytes) {
  // End-to-end RAW across the migrated tile: once the weights change under
  // the migrated entry, the next request must recompute from the new bytes
  // (a miss + reprogram), not serve the stale staging shadow.
  Platform p{migration_config(), {}, {}, /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::uint64_t m = 32, n = 64, k = 64;
  const auto a = random_matrix(m * k, 1.0, 61);
  const auto b_old = random_matrix(k * n, 1.0, 62);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b_old);
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  const WeightKey key = tile_key(p, va_b, b_old, n, k);
  ASSERT_TRUE(p.runtime().migrate_residency(key, 1).is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  // Host pushes a new weight set through the runtime copy path; the
  // rectangle hazard invalidates the migrated entry.
  const auto b_new = random_matrix(k * n, 2.0, 63);
  auto src = p.system().mmu().allocate(k * n * 4);
  ASSERT_TRUE(src.is_ok());
  p.write_floats(*src, b_new);
  ASSERT_TRUE(p.runtime().host_to_dev(va_b, *src, k * n * 4).is_ok());

  const auto& misses = p.runtime().residency().counters().misses;
  const std::uint64_t misses_before = misses.value();
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB, /*cacheable=*/true)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(misses.value(), misses_before + 1)
      << "stale migrated tile served after a host update";

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b_new, n, 0.0f, want, n);
  const auto got = p.read_floats(va_c, m * n);
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, static_cast<double>(std::fabs(got[i] - want[i])));
  }
  EXPECT_LT(err, 0.3) << "result did not reflect the updated weights";
}

}  // namespace
}  // namespace tdo::rt
