// Simulated-time metrics sampling tests: deterministic export (same
// TDO_FUZZ_SEED => byte-identical metrics JSON and identical SLO breach
// sequences), zero perturbation of the simulated timeline when sampling is
// off, bounded ring-buffer retention with counted evictions, and the
// observe-only SLO burn-rate monitor firing on (and only on) loads that
// actually violate their objective.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "testing/serve_load.hpp"

namespace tdo::obs {
namespace {

using tdo::testing::ServeFixture;
using tdo::testing::ServeOutcome;

/// SLO windows sized to the test load (makespan is tens of microseconds, so
/// a 15 us slow window is spanned many times over) with a 1 ns latency
/// target no real completion can meet — the deterministic "must breach"
/// objective. 1 tick = 1 ps throughout.
SloParams tight_slo_params() {
  SloParams params;
  params.fast_window_ticks = 5'000'000;    // 5 us
  params.slow_window_ticks = 15'000'000;   // 15 us
  params.burn_threshold = 1.0;
  params.counter_prefix = "serve";
  return params;
}

struct MetricsOutcome {
  ServeOutcome serve;
  std::string json;
  std::vector<SloBreach> breaches;
  std::vector<std::uint64_t> sample_ticks;
  std::uint64_t evicted = 0;
  /// `obs.slo_breaches` as seen by the final sample (0 when absent).
  std::uint64_t breach_counter_sampled = 0;
};

/// One seeded closed-loop run. With `metrics_on`, the registry samples the
/// platform's stats on the scheduler's own pump grid and a tight-latency
/// interactive SLO is evaluated after every sample.
MetricsOutcome run_metrics_load(std::uint64_t seed, bool metrics_on,
                                MetricsParams mparams = [] {
                                  MetricsParams p;
                                  p.sample_every = 1'000'000;  // 1 us grid
                                  return p;
                                }()) {
  MetricsOutcome out;
  ServeFixture fx{tdo::testing::traced_serve_config(), seed};
  SloMonitor slo{tight_slo_params(),
                 {SloSpec{"interactive", 1'000 /* 1 ns */, -1.0}}};
  auto& registry = MetricsRegistry::instance();
  if (metrics_on) {
    slo.attach(fx.platform.system().stats());
    registry.start(&fx.platform.system().stats(), mparams);
    registry.attach_slo(&slo);
  }
  out.serve = tdo::testing::run_serve_load(fx, topo::Placement::kCallerCentric);
  if (metrics_on) {
    registry.force_sample(out.serve.end_tick);
    std::ostringstream os;
    registry.export_json(os);
    out.json = os.str();
    out.breaches = slo.breaches();
    for (const MetricsSample& sample : registry.samples()) {
      out.sample_ticks.push_back(sample.tick);
    }
    out.evicted = registry.evicted();
    if (!registry.samples().empty()) {
      const auto& counters = registry.samples().back().snapshot.counters;
      const auto it = counters.find("obs.slo_breaches");
      if (it != counters.end()) out.breach_counter_sampled = it->second;
    }
    registry.attach_slo(nullptr);
    registry.stop();
    slo.detach(fx.platform.system().stats());
  }
  return out;
}

/// Breaches as comparable tuples (SloBreach carries no operator==).
std::vector<std::tuple<std::uint64_t, std::string, std::string, double,
                       double>>
breach_tuples(const std::vector<SloBreach>& breaches) {
  std::vector<std::tuple<std::uint64_t, std::string, std::string, double,
                         double>>
      out;
  for (const SloBreach& b : breaches) {
    out.emplace_back(b.tick, b.cls, b.kind, b.fast_burn, b.slow_burn);
  }
  return out;
}

TEST(MetricsTest, SameSeedExportsByteIdenticalJsonAndBreaches) {
  const std::uint64_t seed = tdo::testing::fuzz_seed();
  const MetricsOutcome first = run_metrics_load(seed, true);
  const MetricsOutcome second = run_metrics_load(seed, true);
  ASSERT_FALSE(first.json.empty());
  ASSERT_GT(first.sample_ticks.size(), 1u);
  // The export is the schema'd standalone document.
  EXPECT_EQ(first.json.rfind("{\"schema\":\"tdo.metrics.v1\"", 0), 0u);
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(breach_tuples(first.breaches), breach_tuples(second.breaches));
  EXPECT_EQ(first.sample_ticks, second.sample_ticks);
  EXPECT_EQ(first.evicted, second.evicted);
}

TEST(MetricsTest, SamplingOffDoesNotPerturbTheTimeline) {
  // The zero-cost-when-off contract, end to end: the same seeded load with
  // metrics sampling never started must complete with identical ids,
  // devices, and done ticks, and leave the event queue at the identical
  // final tick — i.e. a metrics-off run is bit-identical to a build without
  // the subsystem.
  const std::uint64_t seed = tdo::testing::fuzz_seed();
  const MetricsOutcome on = run_metrics_load(seed, true);
  const MetricsOutcome off = run_metrics_load(seed, false);
  EXPECT_FALSE(metrics_enabled());
  EXPECT_EQ(on.serve.completions, off.serve.completions);
  EXPECT_EQ(on.serve.end_tick, off.serve.end_tick);
  for (const char* counter : {"serve.completed", "serve.launches"}) {
    EXPECT_EQ(on.serve.stats.counter_or(counter),
              off.serve.stats.counter_or(counter))
        << counter;
  }
}

TEST(MetricsTest, GridSamplingIsMonotoneAndDeduplicated) {
  const MetricsOutcome out = run_metrics_load(tdo::testing::fuzz_seed(), true);
  ASSERT_GT(out.sample_ticks.size(), 1u);
  const std::uint64_t grid = 1'000'000;
  for (std::size_t i = 1; i < out.sample_ticks.size(); ++i) {
    EXPECT_GT(out.sample_ticks[i], out.sample_ticks[i - 1]);
    // At most one sample per grid cell (the run-end force_sample may share
    // the final cell with the last grid sample, but never the same tick).
    if (i + 1 < out.sample_ticks.size()) {
      EXPECT_NE(out.sample_ticks[i] / grid, out.sample_ticks[i - 1] / grid);
    }
  }
}

TEST(MetricsTest, BoundedSeriesEvictsOldestAndCounts) {
  MetricsParams tiny;
  tiny.sample_every = 250'000;  // dense grid so the ring must wrap
  tiny.capacity = 4;
  const MetricsOutcome out =
      run_metrics_load(tdo::testing::fuzz_seed(), true, tiny);
  EXPECT_LE(out.sample_ticks.size(), 4u);
  EXPECT_GT(out.evicted, 0u);
  // Retention keeps the newest samples: the final force_sample survives.
  ASSERT_FALSE(out.sample_ticks.empty());
  EXPECT_EQ(out.sample_ticks.back(), out.serve.end_tick);
}

TEST(MetricsTest, TightLatencySloBreachesAndCountsIntoTheSeries) {
  // A 1 ns interactive latency target under real tens-of-microseconds
  // completions must breach once both windows span data; the observe-only
  // contract still holds (the run completes normally) and the breach counter
  // lands in the sampled series itself.
  const MetricsOutcome out = run_metrics_load(tdo::testing::fuzz_seed(), true);
  ASSERT_FALSE(out.breaches.empty());
  for (const SloBreach& breach : out.breaches) {
    EXPECT_EQ(breach.cls, "interactive");
    EXPECT_EQ(breach.kind, "latency");
    EXPECT_GE(breach.fast_burn, 1.0);
    EXPECT_GE(breach.slow_burn, 1.0);
  }
  EXPECT_GE(out.breach_counter_sampled, out.breaches.size());
}

TEST(MetricsTest, ShedBurnBreachLandsAsAnSloShedInstant) {
  // Half of every window's requests are shed against a 25% budget: both
  // burns reach 2.0 once the slow window spans the series, so exactly one
  // rising-edge breach fires, and with tracing on it lands on the `slo`
  // track as `<cls>.shed` with the burns in milli-units.
  SloMonitor slo{tight_slo_params(), {SloSpec{"batch", 0, 0.25}}};
  Tracer& tracer = Tracer::instance();
  tracer.start(TracerParams{});
  support::StatsSnapshot snapshot;
  for (std::uint64_t i = 0; i <= 4; ++i) {
    snapshot.counters["serve.requests"] = 100 * i;
    snapshot.counters["serve.shed.batch"] = 50 * i;
    slo.on_sample(i * 5'000'000, snapshot);
  }
  tracer.stop();
  const std::vector<TraceEvent> events = tracer.sorted_events();
  tracer.clear();

  ASSERT_EQ(slo.breaches().size(), 1u);
  EXPECT_EQ(slo.breaches()[0].kind, "shed");
  EXPECT_EQ(slo.breaches()[0].tick, 15'000'000u);
  std::vector<TraceEvent> instants;
  for (const TraceEvent& event : events) {
    if (event.track == "slo") instants.push_back(event);
  }
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(instants[0].name, "batch.shed");
  EXPECT_EQ(instants[0].phase, Phase::kInstant);
  EXPECT_EQ(instants[0].ts, 15'000'000u);
  using Args = std::vector<std::pair<std::string, std::uint64_t>>;
  EXPECT_EQ(instants[0].args,
            (Args{{"fast_milli", 2000}, {"slow_milli", 2000}}));
}

}  // namespace
}  // namespace tdo::obs
