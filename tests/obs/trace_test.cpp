// Simulation-time tracing tests: deterministic export (same TDO_FUZZ_SEED =>
// byte-identical JSON), exact critical-path reconciliation (the seven
// segments sum to the end-to-end latency for every request), zero
// perturbation of the simulated timeline when tracing is off, a
// trace-verified check that caller-centric and buffer-centric placement
// route the same skewed load differently, and the scheduler's histogram
// register/unregister hygiene against the stats registry.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "serve/scheduler.hpp"
#include "support/log.hpp"
#include "testing/serve_load.hpp"
#include "topo/topology.hpp"

namespace tdo::obs {
namespace {

using serve::Scheduler;
using serve::SchedulerParams;
using tdo::testing::fuzz_seed;
using tdo::testing::Platform;

using tdo::testing::TraceRun;

/// The shared load, traced, under the bench's traced-fleet knobs.
TraceRun traced_load(topo::Placement placement, std::uint64_t seed) {
  return tdo::testing::run_traced_serve_load(
      tdo::testing::traced_serve_config(), seed, placement);
}

/// Request-span critical devices from the trace, keyed by request id
/// (the `dev` arg: accelerator ordinal + 1, 0 for host/pool completions).
std::map<std::uint64_t, std::uint64_t> critical_devices(const TraceRun& out) {
  std::map<std::uint64_t, std::uint64_t> devices;
  for (const auto& event : out.events) {
    if (event.phase != Phase::kSpan || event.name != "request" ||
        event.track.rfind("sched/", 0) != 0) {
      continue;
    }
    std::uint64_t id = 0, dev = 0;
    for (const auto& [key, value] : event.args) {
      if (key == "id") id = value;
      if (key == "dev") dev = value;
    }
    devices[id] = dev;
  }
  return devices;
}

TEST(TraceTest, SameSeedExportsByteIdenticalJson) {
  const std::uint64_t seed = fuzz_seed();
  const TraceRun first = traced_load(topo::Placement::kCallerCentric, seed);
  const TraceRun second = traced_load(topo::Placement::kCallerCentric, seed);
  ASSERT_FALSE(first.json.empty());
  EXPECT_EQ(first.dropped, 0u);
  // Light structural sanity on top of byte equality: the export is the
  // Chrome trace-event envelope Perfetto loads.
  EXPECT_EQ(first.json.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(first.json.find("\"traceEvents\""), std::string::npos);
  // Sorted event streams — and therefore the JSON byte stream — match.
  ASSERT_EQ(first.events.size(), second.events.size());
  EXPECT_EQ(first.json, second.json);
}

TEST(TraceTest, SegmentsSumExactlyToEndToEnd) {
  const TraceRun out =
      traced_load(topo::Placement::kCallerCentric, fuzz_seed());
  ASSERT_EQ(out.paths.size(), out.serve.completions.size());
  bool joined_any = false;
  for (const auto& path : out.paths) {
    EXPECT_EQ(path.segment_sum(), path.e2e())
        << "request " << path.id << " (" << path.cls << ") does not reconcile";
    EXPECT_GT(path.done, path.arrival) << "request " << path.id;
    joined_any = joined_any || path.device_joined;
  }
  // The decomposition is attribution, not bucketing: at least some requests
  // must have joined their completion-defining engine job span.
  EXPECT_TRUE(joined_any);
}

TEST(TraceTest, SpansCoverEveryTrackFamily) {
  const TraceRun out =
      traced_load(topo::Placement::kCallerCentric, fuzz_seed());
  bool engine = false, dma = false, link = false, sched = false, pool = false;
  for (const auto& event : out.events) {
    if (event.phase != Phase::kSpan) continue;
    engine = engine || event.track.rfind("engine/", 0) == 0;
    dma = dma || event.track.rfind("dma/", 0) == 0;
    link = link || event.track.rfind("link/", 0) == 0;
    sched = sched || event.track.rfind("sched/", 0) == 0;
    pool = pool || event.track.rfind("host_pool/", 0) == 0;
  }
  EXPECT_TRUE(engine) << "no engine job spans";
  EXPECT_TRUE(dma) << "no DMA copy-window spans";
  EXPECT_TRUE(link) << "no far-link response spans";
  EXPECT_TRUE(sched) << "no per-request scheduler spans";
  EXPECT_TRUE(pool) << "no host-pool stripe spans";
}

TEST(TraceTest, TracingOffDoesNotPerturbTheTimeline) {
  // The zero-cost-when-off contract, end to end: the same seeded load with
  // the tracer never started must complete with identical ids, devices, and
  // done ticks, and leave the event queue at the identical final tick.
  const std::uint64_t seed = fuzz_seed();
  const TraceRun traced = traced_load(topo::Placement::kCallerCentric, seed);
  tdo::testing::ServeFixture fx{tdo::testing::traced_serve_config(), seed};
  const auto off =
      tdo::testing::run_serve_load(fx, topo::Placement::kCallerCentric);
  EXPECT_FALSE(enabled());
  EXPECT_EQ(traced.serve.completions, off.completions);
  EXPECT_EQ(traced.serve.end_tick, off.end_tick);
  for (const char* counter : {"serve.completed", "serve.launches"}) {
    EXPECT_EQ(traced.serve.stats.counter_or(counter),
              off.stats.counter_or(counter))
        << counter;
  }
}

TEST(TraceTest, PlacementPoliciesDivergeInTheTrace) {
  // Same skewed load, both placements traced: buffer-centric pins repeats to
  // the accelerator holding their weights (the residency walk), while
  // caller-centric skips the walk entirely and fills the near tier first.
  const std::uint64_t seed = fuzz_seed();
  const TraceRun caller = traced_load(topo::Placement::kCallerCentric, seed);
  const TraceRun buffer = traced_load(topo::Placement::kBufferCentric, seed);
  EXPECT_EQ(caller.serve.stats.counter_or("serve.affinity_routed"), 0u);
  EXPECT_GT(buffer.serve.stats.counter_or("serve.affinity_routed"), 0u);
  // Trace-verified: the request spans' critical devices differ between the
  // two policies for at least one request of the identical plan.
  const auto caller_devices = critical_devices(caller);
  const auto buffer_devices = critical_devices(buffer);
  ASSERT_EQ(caller_devices.size(), caller.serve.completions.size());
  ASSERT_EQ(buffer_devices.size(), buffer.serve.completions.size());
  EXPECT_NE(caller_devices, buffer_devices);
}

TEST(TraceTest, WarnLogLinesLandAsLogInstants) {
  // While tracing, every line that passes the log threshold is mirrored onto
  // the `log` track at the tracer's last simulated tick.
  Tracer& tracer = Tracer::instance();
  tracer.start(TracerParams{});
  tracer.note_tick(1234);
  TDO_LOG(kWarn, "test") << "queue " << 3 << " full";
  tracer.stop();
  const std::vector<TraceEvent> events = tracer.sorted_events();
  tracer.clear();

  std::vector<TraceEvent> logs;
  for (const TraceEvent& event : events) {
    if (event.track == "log") logs.push_back(event);
  }
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].name, "WARN test: queue 3 full");
  EXPECT_EQ(logs[0].phase, Phase::kInstant);
  EXPECT_EQ(logs[0].ts, 1234u);
}

TEST(StatsRegistryTest, SchedulerHistogramsDetachOnDestruction) {
  Platform platform;
  ASSERT_TRUE(platform.runtime().init(0).is_ok());
  auto& registry = platform.system().stats();
  {
    Scheduler scheduler{SchedulerParams{}, platform.runtime()};
    const auto snap = registry.snapshot();
    EXPECT_TRUE(snap.counters.contains("serve.latency.interactive.count"));
    EXPECT_TRUE(snap.counters.contains("serve.latency.batch.count"));
  }
  // The scheduler died before the registry: its histograms and counters must
  // be gone, and snapshot() must not touch the freed memory.
  const auto after = registry.snapshot();
  EXPECT_FALSE(after.counters.contains("serve.latency.interactive.count"));
  EXPECT_FALSE(after.counters.contains("serve.latency.batch.count"));
  EXPECT_FALSE(after.counters.contains("serve.requests"));
}

}  // namespace
}  // namespace tdo::obs
