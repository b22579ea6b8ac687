// Trace-driven energy attribution tests: the integer-femtojoule breakdown
// reconciles *exactly* (segment sum == total, per-source sums == total), it
// agrees with the live double-picojoule accumulators within rounding
// tolerance, the per-class display split conserves every segment's joules,
// and the attribution is mutation-keyed — disabling the pseudo-async split
// moves the host-pool bucket to exactly zero.
#include "obs/energy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/critical_path.hpp"
#include "testing/serve_load.hpp"

namespace tdo::obs {
namespace {

using tdo::testing::TraceRun;

/// One traced seeded serving run under `config`.
TraceRun run_traced(rt::RuntimeConfig config, std::uint64_t seed) {
  return tdo::testing::run_traced_serve_load(std::move(config), seed,
                                             topo::Placement::kCallerCentric);
}

/// The accumulators the span model mirrors: per-accelerator `.energy.<kind>`
/// sinks, the host worker pool, and the far link. `host.energy` (synchronous
/// host-CPU fallback compute) never emits spans and is deliberately outside
/// the attributable total.
double accumulated_pj(const support::StatsSnapshot& snapshot) {
  double total = 0.0;
  for (const auto& [name, pj] : snapshot.energies_pj) {
    if (name.find(".energy.") != std::string::npos ||
        name == "host_pool.energy" || name == "farlink.energy") {
      total += pj;
    }
  }
  return total;
}

TEST(EnergyTest, SegmentsReconcileExactlyAndMatchAccumulators) {
  const TraceRun run =
      run_traced(tdo::testing::traced_serve_config(), tdo::testing::fuzz_seed());
  ASSERT_EQ(run.dropped, 0u);
  ASSERT_FALSE(run.events.empty());
  const EnergyBreakdown breakdown = attribute_energy(run.events);

  // The exact integer invariant: every attributed femtojoule lands in
  // exactly one segment and exactly one source bucket.
  EXPECT_GT(breakdown.total_fj, 0u);
  EXPECT_GT(breakdown.spans_counted, 0u);
  EXPECT_EQ(breakdown.segment_sum(), breakdown.total_fj);
  EXPECT_EQ(breakdown.engine_write_fj + breakdown.engine_stream_fj +
                breakdown.engine_dma_fj + breakdown.copy_dma_fj +
                breakdown.link_fj + breakdown.host_pool_fj,
            breakdown.total_fj);

  // The traced fleet exercises every modeled sink: PCM programming, crossbar
  // compute, DMA (engine + stream copies), far-link serialization, and the
  // split path's host-pool stripes.
  EXPECT_GT(breakdown.engine_write_fj, 0u);
  EXPECT_GT(breakdown.engine_stream_fj, 0u);
  EXPECT_GT(breakdown.engine_dma_fj + breakdown.copy_dma_fj, 0u);
  EXPECT_GT(breakdown.link_fj, 0u);
  EXPECT_GT(breakdown.host_pool_fj, 0u);

  // Cross-check against the live accumulators (double picojoules): the span
  // replay and the charge-time bookkeeping describe the same joules, so they
  // agree to rounding noise.
  const double span_pj = static_cast<double>(breakdown.total_fj) * 1e-3;
  const double live_pj = accumulated_pj(run.stats);
  EXPECT_GT(live_pj, 0.0);
  EXPECT_LE(std::abs(span_pj - live_pj), 1e-6 * std::max(1.0, live_pj))
      << "span " << span_pj << " pJ vs accumulators " << live_pj << " pJ";

  // The per-class display split conserves each populated segment's joules.
  const PerClassEnergy per_class = per_class_energy(run.paths, breakdown);
  EXPECT_FALSE(per_class.empty());
  std::array<double, kSegmentCount> class_tick_sum{};
  for (const RequestPath& path : run.paths) {
    for (std::size_t s = 0; s < kSegmentCount; ++s) {
      class_tick_sum[s] += static_cast<double>(path.seg[s]);
    }
  }
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    double across_classes = 0.0;
    for (const auto& [cls, fj] : per_class) across_classes += fj[s];
    if (class_tick_sum[s] > 0.0) {
      EXPECT_NEAR(across_classes, static_cast<double>(breakdown.seg_fj[s]),
                  1e-6 * std::max(1.0, static_cast<double>(breakdown.seg_fj[s])))
          << "segment " << s;
    } else {
      EXPECT_EQ(across_classes, 0.0) << "segment " << s;
    }
  }
}

TEST(EnergyTest, DisablingSplitMovesHostPoolJoulesToZero) {
  // Mutation-keyed: the host-pool bucket exists if and only if the
  // pseudo-async split ran. With the split disabled the same load still
  // reconciles exactly — the joules just never reach the worker pool.
  rt::RuntimeConfig no_split = tdo::testing::traced_serve_config();
  no_split.split.enabled = false;
  const TraceRun run = run_traced(no_split, tdo::testing::fuzz_seed());
  ASSERT_EQ(run.dropped, 0u);
  const EnergyBreakdown breakdown = attribute_energy(run.events);
  EXPECT_GT(breakdown.total_fj, 0u);
  EXPECT_EQ(breakdown.host_pool_fj, 0u);
  EXPECT_EQ(breakdown.segment_sum(), breakdown.total_fj);
  // The live host-pool accumulator agrees with the trace's verdict.
  const auto it = run.stats.energies_pj.find("host_pool.energy");
  if (it != run.stats.energies_pj.end()) {
    EXPECT_EQ(it->second, 0.0);
  }
}

TEST(EnergyTest, SameSeedSameBreakdown) {
  // attribute_energy is a pure replay of the trace, and the trace itself is
  // deterministic — so the whole breakdown is reproducible field by field.
  const std::uint64_t seed = tdo::testing::fuzz_seed();
  const TraceRun first = run_traced(tdo::testing::traced_serve_config(), seed);
  const TraceRun second = run_traced(tdo::testing::traced_serve_config(), seed);
  const EnergyBreakdown a = attribute_energy(first.events);
  const EnergyBreakdown b = attribute_energy(second.events);
  EXPECT_EQ(a.seg_fj, b.seg_fj);
  EXPECT_EQ(a.total_fj, b.total_fj);
  EXPECT_EQ(a.spans_counted, b.spans_counted);
  EXPECT_EQ(a.host_pool_fj, b.host_pool_fj);
  EXPECT_EQ(a.link_fj, b.link_fj);
}

}  // namespace
}  // namespace tdo::obs
