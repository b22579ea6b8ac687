// Integration tests: runtime BLAS calls end-to-end through driver, context
// registers, micro-engine, crossbar, and back to shared memory. Results are
// checked against float references within the analytic quantization bound.
#include "runtime/cim_blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/fixed_point.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt {
namespace {

using testing::Platform;
using testing::random_matrix;
using testing::ref_gemm;
using testing::ref_gemv;

/// Quantization error bound for one output element of a length-k dot product
/// scaled by alpha (plus one beta*c rounding, negligible).
[[nodiscard]] double gemm_error_bound(double max_a, double max_b, std::size_t k,
                                      float alpha) {
  return std::abs(alpha) * support::dot_quant_error_bound(max_a, max_b, k) +
         1e-3;
}

TEST(BlasTest, InitIsRequiredBeforeAnyCall) {
  Platform p;
  auto va = p.runtime().malloc_device(64);
  EXPECT_FALSE(va.is_ok());
  EXPECT_EQ(va.status().code(), support::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  EXPECT_TRUE(p.runtime().malloc_device(64).is_ok());
}

TEST(BlasTest, InitRejectsUnknownDevice) {
  Platform p;
  EXPECT_FALSE(p.runtime().init(3).is_ok());
}

TEST(BlasTest, SmallGemmMatchesReferenceWithinQuantBound) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 12, n = 9, k = 17;
  const auto a = random_matrix(m * k, 2.0, 1);
  const auto b = random_matrix(k * n, 3.0, 2);
  auto c = random_matrix(m * n, 1.0, 3);

  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.upload(c);

  const float alpha = 1.5f, beta = 0.5f;
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, alpha, va_a, k, va_b, n, beta, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  ref_gemm(m, n, k, alpha, a, k, b, n, beta, c, n);
  const auto got = p.read_floats(va_c, m * n);
  const double bound = gemm_error_bound(2.0, 3.0, k, alpha);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(got[i], c[i], bound) << "element " << i;
  }
}

TEST(BlasTest, GemmWithStationaryAMatchesReference) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 10, n = 14, k = 11;
  const auto a = random_matrix(m * k, 1.0, 7);
  const auto b = random_matrix(k * n, 1.0, 8);
  auto c = std::vector<float>(m * n, 0.0f);

  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kA)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
  const auto got = p.read_floats(va_c, m * n);
  const double bound = gemm_error_bound(1.0, 1.0, k, 1.0f);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(got[i], c[i], bound) << "element " << i;
  }
}

TEST(BlasTest, OversizedGemmIsTiledAcrossCrossbar) {
  // Crossbar is 256x256; use k and n beyond it to force internal tiling.
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 5, n = 300, k = 270;
  const auto a = random_matrix(m * k, 1.0, 11);
  const auto b = random_matrix(k * n, 1.0, 12);
  auto c = std::vector<float>(m * n, 0.0f);

  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
  const auto got = p.read_floats(va_c, m * n);
  const double bound = gemm_error_bound(1.0, 1.0, k, 1.0f);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(got[i], c[i], bound) << "element " << i;
  }
  // Tiling must have produced more than one accelerator job.
  EXPECT_GT(p.system().snapshot().counter_or("cim.jobs"), 1u);
}

TEST(BlasTest, GemvNoTransposeMatchesReference) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 40, n = 23;
  const auto a = random_matrix(m * n, 1.5, 21);
  const auto x = random_matrix(n, 1.0, 22);
  auto y = random_matrix(m, 1.0, 23);

  const auto va_a = p.upload(a);
  const auto va_x = p.upload(x);
  const auto va_y = p.upload(y);

  ASSERT_TRUE(p.runtime()
                  .sgemv_async(false, m, n, 2.0f, va_a, n, va_x, 0.25f, va_y)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  ref_gemv(false, m, n, 2.0f, a, n, x, 0.25f, y);
  const auto got = p.read_floats(va_y, m);
  const double bound = gemm_error_bound(1.5, 1.0, n, 2.0f);
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(got[i], y[i], bound);
}

TEST(BlasTest, GemvTransposeMatchesReference) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 31, n = 19;
  const auto a = random_matrix(m * n, 1.0, 31);
  const auto x = random_matrix(m, 1.0, 32);
  auto y = std::vector<float>(n, 0.0f);

  const auto va_a = p.upload(a);
  const auto va_x = p.upload(x);
  const auto va_y = p.device_zeros(n);

  ASSERT_TRUE(p.runtime()
                  .sgemv_async(true, m, n, 1.0f, va_a, n, va_x, 0.0f, va_y)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  ref_gemv(true, m, n, 1.0f, a, n, x, 0.0f, y);
  const auto got = p.read_floats(va_y, n);
  const double bound = gemm_error_bound(1.0, 1.0, m, 1.0f);
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(got[j], y[j], bound);
}

TEST(BlasTest, BatchedGemmSharedStationarySkipsReprogramming) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16, n = 16, k = 16;
  const auto a = random_matrix(m * k, 1.0, 41);   // shared input
  const auto b = random_matrix(k * n, 1.0, 42);
  const auto e = random_matrix(k * n, 1.0, 43);

  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_e = p.upload(e);
  const auto va_c = p.device_zeros(m * n);
  const auto va_d = p.device_zeros(m * n);

  // C = A*B and D = A*E with stationary A: A must be written exactly once.
  const std::vector<GemmBatchItem> items = {{va_a, va_b, va_c},
                                            {va_a, va_e, va_d}};
  ASSERT_TRUE(p.runtime()
                  .sgemm_batched_async(m, n, k, 1.0f, items, k, n, 0.0f, n,
                                       cim::StationaryOperand::kA)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  // Weight writes: stationary A^T tile is k x m = 256 weights, written once.
  EXPECT_EQ(p.accel().report().weight_writes8, k * m);

  std::vector<float> c(m * n, 0.0f), d(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
  ref_gemm(m, n, k, 1.0f, a, k, e, n, 0.0f, d, n);
  const auto got_c = p.read_floats(va_c, m * n);
  const auto got_d = p.read_floats(va_d, m * n);
  const double bound = gemm_error_bound(1.0, 1.0, k, 1.0f);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(got_c[i], c[i], bound);
    EXPECT_NEAR(got_d[i], d[i], bound);
  }
}

TEST(BlasTest, NaiveSeparateGemmsWriteTwiceAsManyWeights) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16, n = 16, k = 16;
  const auto a = random_matrix(m * k, 1.0, 41);
  const auto b = random_matrix(k * n, 1.0, 42);
  const auto e = random_matrix(k * n, 1.0, 43);

  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_e = p.upload(e);
  const auto va_c = p.device_zeros(m * n);
  const auto va_d = p.device_zeros(m * n);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_e, n, 0.0f, va_d, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  // Naive mapping programs B then E: 2 * (k x n) weights.
  EXPECT_EQ(p.accel().report().weight_writes8, 2 * k * n);
}

TEST(BlasTest, HostToDevAndBackRoundTrips) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto data = random_matrix(1000, 5.0, 51);
  // Host-side buffer (scattered pages is fine for host memory).
  auto host_va = p.system().mmu().allocate(data.size() * sizeof(float));
  ASSERT_TRUE(host_va.is_ok());
  // Functionally fill the host buffer page by page.
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto pa = p.system().mmu().translate(*host_va + i * 4);
    ASSERT_TRUE(pa.is_ok());
    p.system().memory().write_scalar<float>(*pa, data[i]);
  }
  auto dev = p.runtime().malloc_device(data.size() * sizeof(float));
  ASSERT_TRUE(dev.is_ok());
  ASSERT_TRUE(
      p.runtime().host_to_dev(*dev, *host_va, data.size() * 4).is_ok());
  const auto round = p.read_floats(*dev, data.size());
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(round[i], data[i]);
  const auto stats = p.system().snapshot();
  EXPECT_EQ(stats.counter_or("stream.copy_bytes") +
                stats.counter_or("xfer.host_copy_bytes"),
            data.size() * 4);
}

TEST(BlasTest, ZeroDimensionIsRejected) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto va = p.device_zeros(16);
  EXPECT_FALSE(p.runtime()
                   .sgemm_async(0, 4, 4, 1.0f, va, 4, va, 4, 0.0f, va, 4,
                                cim::StationaryOperand::kB)
                   .is_ok());
  EXPECT_FALSE(p.runtime()
                   .sgemv_async(false, 0, 4, 1.0f, va, 4, va, 0.0f, va)
                   .is_ok());
}

TEST(BlasTest, FreeUnknownBufferFails) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  EXPECT_FALSE(p.runtime().free_device(0xdead000).is_ok());
}

TEST(BlasTest, AcceleratorTimeAdvancesWithJob) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 8, n = 8, k = 8;
  const auto a = random_matrix(m * k, 1.0, 61);
  const auto b = random_matrix(k * n, 1.0, 62);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  // Weight phase: 8 rows x 2.5us = 20us; stream: 8 GEMVs x 1us = 8us.
  const auto total = p.system().global_time();
  EXPECT_GT(total.microseconds(), 28.0);
  // Host spun during the job, so host elapsed time covers the job end.
  EXPECT_GE(p.system().cpu().elapsed().ticks() + 1000,
            p.system().events().now());
}

TEST(BlasTest, EnergyIsAttributedToAcceleratorCategories) {
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 8, n = 8, k = 8;
  const auto a = random_matrix(m * k, 1.0, 71);
  const auto b = random_matrix(k * n, 1.0, 72);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  const auto snap = p.system().snapshot();
  // Write energy: k*n = 64 weights x 200 pJ = 12.8 nJ.
  EXPECT_NEAR(snap.energy_or("cim.energy.write").nanojoules(), 12.8, 1e-6);
  // Compute energy: m*k*n = 512 MACs x 200 fJ = 0.1024 nJ.
  EXPECT_NEAR(snap.energy_or("cim.energy.compute").nanojoules(), 0.1024, 1e-6);
  // Mixed signal: 8 GEMVs x 3.9 nJ.
  EXPECT_NEAR(snap.energy_or("cim.energy.mixed_signal").nanojoules(), 31.2, 1e-6);
  EXPECT_GT(snap.energy_or("cim.energy.buffers").picojoules(), 0.0);
  EXPECT_GT(snap.energy_or("cim.energy.dma").picojoules(), 0.0);
}

}  // namespace
}  // namespace tdo::rt
