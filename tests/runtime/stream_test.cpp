// Tests for the asynchronous command stream: enqueue/drain ordering, the
// dynamic CPU-fallback policy (intensity threshold and queue-full), the
// multi-accelerator round robin, and the overlap regression that backs the
// stream-level double-buffering ablation in bench_paper.
#include <gtest/gtest.h>

#include "runtime/cim_api.hpp"
#include "runtime/cim_blas.hpp"
#include "runtime/stream.hpp"
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

TEST(StreamTest, EnqueueDrainPreservesDependencyOrder) {
  // Two async GEMMs accumulate into the same C: the second (beta = 1) must
  // observe the first's result even though both sit in the work queue when
  // the drain happens.
  RuntimeConfig config;
  config.stream.depth = 4;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16, n = 16, k = 16;
  const auto a = random_matrix(m * k, 1.0, 11);
  const auto b = random_matrix(k * n, 1.0, 12);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);

  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 1.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 1.0f, want, n);
  const auto got = p.read_floats(va_c, m * n);
  EXPECT_LT(max_abs_error(got, want), 0.15);
  EXPECT_EQ(p.accel().jobs_completed(), 2u);
  EXPECT_FALSE(p.accel().has_work());
}

TEST(StreamTest, QueueFullFallsBackToCpuWhenAllowed) {
  RuntimeConfig config;
  config.stream.depth = 1;
  config.stream.fallback_when_full = true;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 8, n = 8, k = 8;
  const auto a = random_matrix(m * k, 1.0, 21);
  const auto b = random_matrix(k * n, 1.0, 22);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c1 = p.device_zeros(m * n);
  const auto va_c2 = p.device_zeros(m * n);

  // First command occupies the single in-flight slot; the second arrives
  // while the queue is full and must execute on the host CPU model.
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c1, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c2, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  const auto& stream = p.runtime().stream().counters();
  EXPECT_EQ(stream.enqueued.value(), 2u);
  EXPECT_EQ(stream.cpu_fallbacks.value(), 1u);
  EXPECT_EQ(stream.fallbacks_queue_full.value(), 1u);
  EXPECT_EQ(p.accel().jobs_completed(), 1u);

  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  // The device result is quantized; the host-fallback result is exact.
  EXPECT_LT(max_abs_error(p.read_floats(va_c1, m * n), want), 0.15);
  EXPECT_LT(max_abs_error(p.read_floats(va_c2, m * n), want), 1e-5);
}

TEST(StreamTest, IntensityThresholdRoutesThinJobsToCpu) {
  // MACs-per-write of a stationary-B GEMM is m (the streamed-vector count):
  // m = 4 clears a threshold of 1000 never, so the job runs on the host.
  RuntimeConfig config;
  config.stream.min_macs_per_write = 1000.0;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 4, n = 16, k = 16;
  const auto a = random_matrix(m * k, 1.0, 31);
  const auto b = random_matrix(k * n, 1.0, 32);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  EXPECT_EQ(p.runtime().stream().counters().fallbacks_threshold.value(), 1u);
  EXPECT_EQ(p.accel().report().jobs, 0u);  // never touched the device
  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(va_c, m * n), want), 1e-5);
}

TEST(StreamTest, HighIntensityJobsStayOnDevice) {
  RuntimeConfig config;
  config.stream.min_macs_per_write = 16.0;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 64, n = 16, k = 16;  // intensity m = 64 >= 16
  const auto a = random_matrix(m * k, 1.0, 41);
  const auto b = random_matrix(k * n, 1.0, 42);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(m * n);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(p.runtime().stream().counters().cpu_fallbacks.value(), 0u);
  EXPECT_EQ(p.accel().report().jobs, 1u);
}

TEST(StreamTest, BatchRoundRobinsAcrossAccelerators) {
  auto run = [](std::vector<float>* out) {
    RuntimeConfig config;
    config.stream.depth = 4;
    Platform p{config, cim::AcceleratorParams{}, sim::SystemParams{},
               /*accelerators=*/2};
    EXPECT_TRUE(p.runtime().init(0).is_ok());
    const std::size_t m = 16, n = 16, k = 16;
    const auto b = random_matrix(k * n, 1.0, 52);
    const auto va_b = p.upload(b);
    std::vector<GemmBatchItem> items;
    std::vector<sim::VirtAddr> cs;
    std::vector<std::vector<float>> as;
    for (int i = 0; i < 4; ++i) {
      as.push_back(random_matrix(m * k, 1.0, 100 + i));
      const auto va_a = p.upload(as.back());
      const auto va_c = p.device_zeros(m * n);
      cs.push_back(va_c);
      items.push_back(GemmBatchItem{va_a, va_b, va_c});
    }
    EXPECT_TRUE(p.runtime()
                    .sgemm_batched_async(m, n, k, 1.0f, items, k, n, 0.0f, n,
                                         cim::StationaryOperand::kB)
                    .is_ok());
    EXPECT_TRUE(p.runtime().synchronize().is_ok());
    // Both accelerator instances executed a chunk of the batch.
    EXPECT_EQ(p.accel(0).report().jobs, 1u);
    EXPECT_EQ(p.accel(1).report().jobs, 1u);
    out->clear();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto got = p.read_floats(cs[i], m * n);
      out->insert(out->end(), got.begin(), got.end());
      std::vector<float> want(m * n, 0.0f);
      ref_gemm(m, n, k, 1.0f, as[i], k, b, n, 0.0f, want, n);
      EXPECT_LT(max_abs_error(got, want), 0.15) << "batch item " << i;
    }
  };
  std::vector<float> first;
  std::vector<float> second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);  // round robin is deterministic
}

TEST(StreamTest, TiledGemmSpreadsAcrossAccelerators) {
  // n = 2 crossbar widths -> two jj stripes, round-robined onto two devices.
  RuntimeConfig config;
  config.stream.depth = 2;
  Platform p{config, cim::AcceleratorParams{}, sim::SystemParams{},
             /*accelerators=*/2};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16, n = 512, k = 64;
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
  EXPECT_EQ(p.accel(0).report().jobs, 1u);
  EXPECT_EQ(p.accel(1).report().jobs, 1u);
  std::vector<float> want(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, a, k, b, n, 0.0f, want, n);
  EXPECT_LT(max_abs_error(p.read_floats(va_c, m * n), want), 0.15);
}

/// Regression for bench_paper's stream-level double-buffering ablation: with
/// stream depth >= 2 the chained tiles of an oversized GEMM (k = 2 crossbar
/// heights) overlap submission with execution and prefetch the next tile's
/// weights, so the simulated runtime is strictly below the depth-1
/// (serialized) schedule.
TEST(StreamTest, StreamDepthTwoBeatsSerializedSchedule) {
  auto run = [](std::size_t depth, std::uint64_t* overlap_ticks) {
    RuntimeConfig config;
    config.stream.depth = depth;
    Platform p{config};
    EXPECT_TRUE(p.runtime().init(0).is_ok());
    const std::size_t m = 32, n = 256, k = 512;  // two kk tiles, one stripe
    const auto a = random_matrix(m * k, 1.0, 71);
    const auto b = random_matrix(k * n, 1.0, 72);
    const auto va_a = p.upload(a);
    const auto va_b = p.upload(b);
    const auto va_c = p.device_zeros(m * n);
    EXPECT_TRUE(p.runtime()
                    .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                                 cim::StationaryOperand::kB)
                    .is_ok());
    EXPECT_TRUE(p.runtime().synchronize().is_ok());
    const auto snap = p.system().snapshot();
    *overlap_ticks = snap.counter_or("cim.overlap_ticks");
    return p.system().global_time();
  };
  std::uint64_t overlap_serial = 0;
  std::uint64_t overlap_stream = 0;
  const auto serialized = run(1, &overlap_serial);
  const auto overlapped = run(2, &overlap_stream);
  EXPECT_LT(overlapped.picoseconds(), serialized.picoseconds());
  EXPECT_EQ(overlap_serial, 0u);
  EXPECT_GT(overlap_stream, 0u);  // weight DMA hidden under streaming
}

TEST(StreamTest, WarHazardSynchronizesBeforeOverwritingQueuedInput) {
  // Call 2 sits in the work queue still *reading* X (its functional launch
  // is deferred to the completion chain); call 3 wants to *write* X and,
  // with the queue full, would run on the host CPU immediately. Without WAR
  // ordering it would clobber X before call 2 reads it.
  RuntimeConfig config;
  config.stream.depth = 2;
  config.stream.fallback_when_full = true;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const std::size_t m = 16;
  const auto a1 = random_matrix(m * 256, 1.0, 81);
  const auto b1 = random_matrix(256 * m, 1.0, 82);
  const auto x0 = random_matrix(m * 256, 1.0, 83);
  const auto a3 = random_matrix(m * m, 1.0, 84);
  const auto b3 = random_matrix(m * 256, 1.0, 85);
  const auto va_a1 = p.upload(a1);
  const auto va_b1 = p.upload(b1);
  const auto va_x = p.upload(x0);
  const auto va_a3 = p.upload(a3);
  const auto va_b3 = p.upload(b3);
  const auto va_c1 = p.device_zeros(m * m);
  const auto va_c2 = p.device_zeros(m * m);

  // Long job keeps the device busy; the second call queues behind it.
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, m, 256, 1.0f, va_a1, 256, va_b1, m, 0.0f,
                               va_c1, m, cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, m, 256, 1.0f, va_x, 256, va_b1, m, 0.0f,
                               va_c2, m, cim::StationaryOperand::kB)
                  .is_ok());
  // Writer of X: must order after the queued reader, not run early.
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(m, 256, m, 1.0f, va_a3, m, va_b3, 256, 0.0f,
                               va_x, 256, cim::StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());

  EXPECT_GE(p.runtime().stream().counters().hazard_syncs.value(), 1u);
  std::vector<float> want(m * m, 0.0f);
  ref_gemm(m, m, 256, 1.0f, x0, 256, b1, m, 0.0f, want, m);
  EXPECT_LT(max_abs_error(p.read_floats(va_c2, m * m), want), 1.2)
      << "queued reader observed the writer's output (WAR violation)";
}

TEST(StreamTest, SynchronizeSurfacesChainedJobErrors) {
  RuntimeConfig config;
  config.stream.depth = 4;
  Platform p{config};
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  // Hand-build a bad image (zero K) and push it through the stream.
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(cim::Opcode::kGemm));
  image.write(cim::Reg::kM, 4);
  image.write(cim::Reg::kN, 4);
  image.write(cim::Reg::kK, 0);
  CimStream::Command command;
  command.image = image;
  command.allow_cpu_fallback = false;
  ASSERT_TRUE(p.runtime().stream().enqueue(command).is_ok());
  const auto status = p.runtime().stream().synchronize();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), support::StatusCode::kInvalidArgument);
  EXPECT_EQ(p.accel().jobs_failed(), 1u);
}

TEST(RuntimeBindingTest, RestoresPreviousRuntimeWhenNested) {
  Platform p1;
  Platform p2;
  EXPECT_EQ(api::current_runtime(), nullptr);
  {
    api::RuntimeBinding outer{p1.runtime()};
    EXPECT_EQ(api::current_runtime(), &p1.runtime());
    {
      api::RuntimeBinding inner{p2.runtime()};
      EXPECT_EQ(api::current_runtime(), &p2.runtime());
    }
    // The bug this guards against: the inner binding used to unbind
    // unconditionally, leaving the facade without a runtime here.
    EXPECT_EQ(api::current_runtime(), &p1.runtime());
  }
  EXPECT_EQ(api::current_runtime(), nullptr);
}

}  // namespace
}  // namespace tdo::rt
