// DTO-style pseudo-asynchronous work splitting: numeric correctness of the
// host/device stripe join, MAC accounting, the worker pool's FIFO retirement
// contract, and the admission controller's split-fraction ladder/retuning.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/cim_blas.hpp"
#include "runtime/host_pool.hpp"
#include "serve/admission.hpp"
#include "support/fixed_point.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt {
namespace {

using support::Duration;
using tdo::testing::Platform;
using tdo::testing::random_matrix;
using tdo::testing::ref_gemm;

[[nodiscard]] double gemm_error_bound(double max_a, double max_b,
                                      std::size_t k) {
  return support::dot_quant_error_bound(max_a, max_b, k) + 1e-3;
}

TEST(SplitTest, HostStripeJoinsAndMatchesReference) {
  RuntimeConfig config;
  config.split.enabled = true;
  config.split.cpu_fraction = 0.25;
  config.split.min_macs = 1;  // let this small GEMM split
  config.split.pool.workers = 2;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());

  const std::uint64_t m = 16, n = 32, k = 32;
  const auto a = random_matrix(m * k, 1.0, 11);
  const auto b = random_matrix(k * n, 1.0, 12);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  // One call, one split: a quarter of the rows (rounded) ran on the pool,
  // the crossbar ran the rest, the MAC accounting is exact, and the
  // synchronize joined the stripe (completed == jobs).
  const std::uint64_t m_host = 4;  // round(16 * 0.25)
  const auto& pool = p.runtime().host_pool().counters();
  EXPECT_EQ(pool.jobs.value(), 1u);
  EXPECT_EQ(pool.completed.value(), 1u);
  EXPECT_EQ(pool.macs.value(), m_host * n * k);
  EXPECT_EQ(pool.macs.value() + p.accel().tile().stats().mac8_ops, m * n * k);
  EXPECT_GT(pool.busy_ticks.value(), 0u);

  // The host stripe is exact float math, the device stripe is quantized;
  // both land inside the quantization bound.
  std::vector<float> expected(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, expected, n);
  const auto got = p.read_floats(va_c, m * n);
  const double bound = gemm_error_bound(1.0, 1.0, k);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(got[i], expected[i], bound) << "element " << i;
  }
}

TEST(SplitTest, SmallJobsSkipTheSplit) {
  RuntimeConfig config;
  config.split.enabled = true;
  config.split.cpu_fraction = 0.25;
  // Default min_macs (1 MiMAC) far exceeds this 16K-MAC job.
  config.split.pool.workers = 2;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());

  const std::uint64_t m = 16, n = 32, k = 32;
  const auto va_a = p.upload(random_matrix(m * k, 1.0, 21));
  const auto va_b = p.upload(random_matrix(k * n, 1.0, 22));
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(p.runtime().host_pool().counters().jobs.value(), 0u);
}

TEST(SplitTest, ZeroFractionDisablesSplitAtRuntime) {
  RuntimeConfig config;
  config.split.enabled = true;
  config.split.cpu_fraction = 0.25;
  config.split.min_macs = 1;
  config.split.pool.workers = 2;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  p.runtime().set_split_fraction(0.0);  // the admission controller's knob

  const std::uint64_t m = 16, n = 32, k = 32;
  const auto va_a = p.upload(random_matrix(m * k, 1.0, 31));
  const auto va_b = p.upload(random_matrix(k * n, 1.0, 32));
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(p.runtime().host_pool().counters().jobs.value(), 0u);
}

TEST(HostWorkerPoolTest, FifoRetirementJoinsOutOfOrderCompletions) {
  // A big stripe on worker 0, then a small stripe on worker 1: the small one
  // finishes first in simulated time, but completions retire FIFO, so the
  // completed count stays 0 until the big stripe's event fires and then
  // jumps straight to 2 (the exact-join contract the scheduler relies on).
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  HostPoolParams params;
  params.workers = 2;
  params.name = "pool_fifo";
  HostWorkerPool pool{p.system(), params};

  const auto translate = [&](sim::VirtAddr va) {
    auto pa = p.system().mmu().translate(va);
    EXPECT_TRUE(pa.is_ok());
    return *pa;
  };
  const auto make_job = [&](std::uint64_t m, std::uint64_t n, std::uint64_t k,
                            std::uint64_t seed) {
    HostStripeJob job;
    job.m = m;
    job.n = n;
    job.k = k;
    job.lda = k;
    job.ldb = n;
    job.ldc = n;
    job.pa_a = translate(p.upload(random_matrix(m * k, 1.0, seed)));
    job.pa_b = translate(p.upload(random_matrix(k * n, 1.0, seed + 1)));
    job.pa_c = translate(p.device_zeros(m * n));
    return job;
  };

  std::vector<std::pair<std::uint64_t, sim::Tick>> observed;
  pool.set_completion_observer([&](std::uint64_t completed, sim::Tick when) {
    observed.emplace_back(completed, when);
  });

  const HostPoolTicket big = pool.submit(make_job(32, 32, 32, 41));
  const HostPoolTicket small = pool.submit(make_job(2, 8, 8, 43));
  ASSERT_TRUE(big.accepted);
  ASSERT_TRUE(small.accepted);
  EXPECT_NE(big.worker, small.worker);
  ASSERT_LT(small.done, big.done);

  auto& events = p.system().events();
  events.run_until(small.done + 1);
  EXPECT_EQ(pool.counters().completed.value(), 0u)
      << "small stripe must wait for FIFO";
  EXPECT_TRUE(observed.empty());
  events.run_until(big.done + 1);
  EXPECT_EQ(pool.counters().completed.value(), 2u);
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].first, 2u);
  EXPECT_EQ(observed[0].second, big.done);
  EXPECT_TRUE(pool.idle());
}

TEST(HostWorkerPoolTest, DestructionUnregistersEveryStat) {
  // A pool dying before its system must take its counters and its energy
  // accumulator out of the registry, or a later snapshot() reads freed
  // memory.
  sim::System system;
  {
    HostWorkerPool pool{system, HostPoolParams{}};
    const support::StatsSnapshot live = system.snapshot();
    EXPECT_EQ(live.energies_pj.count("host_pool.energy"), 1u);
    EXPECT_EQ(live.counters.count("host_pool.jobs"), 1u);
  }
  const support::StatsSnapshot after = system.snapshot();
  EXPECT_EQ(after.energies_pj.count("host_pool.energy"), 0u);
  for (const auto& [name, value] : after.counters) {
    EXPECT_FALSE(name.starts_with("host_pool.")) << name;
  }
}

TEST(AdmissionSplitLadderTest, RungAndIndexAreInverse) {
  serve::AdmissionParams params;
  serve::AdmissionController admission{params, 0.0, 1024};
  EXPECT_DOUBLE_EQ(admission.split_rung(0), 0.0);
  EXPECT_DOUBLE_EQ(admission.split_rung(params.split_rungs), 0.5);
  EXPECT_EQ(admission.split_rung_index(0.0), 0);
  EXPECT_EQ(admission.split_rung_index(-1.0), 0);
  for (int i = 0; i <= params.split_rungs; ++i) {
    EXPECT_EQ(admission.split_rung_index(admission.split_rung(i)), i)
        << "rung " << i;
  }
  // Rungs above the ladder clamp to one half.
  EXPECT_DOUBLE_EQ(admission.split_rung(params.split_rungs + 3), 0.5);
}

TEST(AdmissionSplitLadderTest, RetuneTracksDeviceToHostLatencyRatio) {
  const serve::SiteKey site{64, 64, 64, 0};
  const std::uint64_t macs = 64 * 64 * 64;
  {
    // Equal per-MAC latencies: both stripes finish together at f* = 1/2.
    serve::AdmissionController admission{serve::AdmissionParams{}, 0.0, 1024};
    admission.observe(site, true, Duration::from_us(100.0), macs, 64 * 64);
    admission.observe(site, false, Duration::from_us(100.0), macs, 0);
    EXPECT_DOUBLE_EQ(admission.split_fraction(), 0.5);
    EXPECT_DOUBLE_EQ(admission.split_fraction_for(site), 0.5);
  }
  {
    // Host three times slower: f* = dev/(dev+host) = 1/4, one rung down.
    serve::AdmissionController admission{serve::AdmissionParams{}, 0.0, 1024};
    admission.observe(site, true, Duration::from_us(100.0), macs, 64 * 64);
    admission.observe(site, false, Duration::from_us(300.0), macs, 0);
    EXPECT_DOUBLE_EQ(admission.split_fraction(), 0.25);
    // A site with no observations falls back to the global knob.
    EXPECT_DOUBLE_EQ(admission.split_fraction_for(serve::SiteKey{8, 8, 8, 0}),
                     0.25);
  }
}

}  // namespace
}  // namespace tdo::rt
