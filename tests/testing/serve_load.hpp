// Shared seeded serving load for the observability tests: a two-tier fleet
// (one near accelerator, two far ones behind a 2x link) driven by a closed
// loop of skewed tenants, mirroring bench_serve_loop's traced fleet. The
// trace, metrics, and energy tests all replay the same load so their
// determinism and reconciliation claims are about one well-known timeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "serve/load.hpp"
#include "serve/scheduler.hpp"
#include "testing/fixture.hpp"
#include "topo/topology.hpp"

namespace tdo::testing {

/// The bench's traced-fleet runtime knobs at test scale: pseudo-async split
/// on with a tiny MAC gate so host-pool stripe spans appear, and a low
/// async-copy floor so activation uploads ride the DMA engine.
inline rt::RuntimeConfig traced_serve_config() {
  rt::RuntimeConfig config;
  config.split.enabled = true;
  config.split.cpu_fraction = 1.0 / 16.0;
  config.split.min_macs = 1;
  config.split.pool.workers = 2;
  config.xfer.min_async_bytes = 256;
  return config;
}

/// Two-tier serving platform parameterized by runtime config so tests can
/// toggle individual subsystems (e.g. the pseudo-async split) and observe
/// the effect in the trace.
struct ServeFixture {
  topo::Link link;
  topo::Topology topology;
  Platform platform;
  std::uint64_t m = 8, n = 64, k = 64;
  std::vector<sim::VirtAddr> weights;
  sim::VirtAddr va_a = 0;

  explicit ServeFixture(rt::RuntimeConfig config, std::uint64_t seed,
                        std::size_t weight_sets = 2)
      : link{[] {
          topo::LinkParams lp;
          lp.latency_multiplier = 2.0;
          lp.name = "farlink";
          return lp;
        }()},
        platform{std::move(config), {}, {}, 3} {
    topology.add_device(topo::Topology::kNearTier);
    for (std::size_t d = 1; d < 3; ++d) {
      topology.add_device(topo::Topology::kFarTier, &link);
      platform.accel(d).set_response_link(&link);
    }
    platform.runtime().set_topology(&topology);
    EXPECT_TRUE(platform.runtime().init(0).is_ok());
    for (std::size_t w = 0; w < weight_sets; ++w) {
      weights.push_back(platform.upload(random_matrix(k * n, 1.0, seed + w)));
    }
    va_a = platform.upload(random_matrix(m * k, 1.0, seed + 99));
  }
};

/// Everything one seeded closed-loop run produced, for cross-run diffing.
struct ServeOutcome {
  /// (id, done tick, device) per completion, sorted by id.
  std::vector<std::tuple<std::uint64_t, std::uint64_t, int>> completions;
  /// The registry at the end of the run, scheduler counters included.
  support::StatsSnapshot stats;
  sim::Tick end_tick = 0;
};

/// Looks at the drained scheduler before it is destroyed.
using SchedulerProbe =
    std::function<void(ServeFixture&, const serve::Scheduler&)>;

/// Seeded closed-loop serving run with skewed tenant affinity: tenant 0's
/// five clients hammer weight set 0 (interactive), tenant 1's two clients
/// serve weight set 1 (standard). Every request's activations arrive through
/// the measured upload path.
inline ServeOutcome run_serve_load(ServeFixture& fx, topo::Placement placement,
                                   const SchedulerProbe& probe = {}) {
  using serve::DeadlineClass;
  using serve::Scheduler;
  using serve::SchedulerParams;

  SchedulerParams params;
  params.placement = placement;
  params.batcher.max_batch = 2;
  params.batcher.max_wait = support::Duration::from_us(15.0);
  params.admission.adaptive = false;
  params.admission.probe_period = 0;
  Scheduler scheduler{params, fx.platform.runtime()};

  // Clients [0, kHot) are tenant 0 (interactive, weight set 0), the rest
  // tenant 1 (standard, weight set 1); each rotates over two outputs.
  constexpr std::size_t kClients = 7, kHot = 5, kRequestsPerClient = 3;
  std::vector<sim::VirtAddr> outputs;  // client-major
  for (std::size_t i = 0; i < 2 * kClients; ++i) {
    outputs.push_back(fx.platform.device_zeros(fx.m * fx.n));
  }
  serve::ClosedSource source{
      kClients, kRequestsPerClient,
      [&](std::size_t client, std::size_t nth) {
        const std::uint32_t tenant = client < kHot ? 0 : 1;
        return serve::sgemm_request(
            tenant,
            tenant == 0 ? DeadlineClass::kInteractive
                        : DeadlineClass::kStandard,
            fx.m, fx.n, fx.k, fx.va_a, fx.weights[tenant],
            outputs[2 * client + nth % 2]);
      },
      fx.m * fx.k * sizeof(float)};
  const auto finished = serve::drive(scheduler, source, source.target());
  EXPECT_TRUE(finished.is_ok()) << finished.status().to_string();
  ServeOutcome out;
  if (finished.is_ok()) {
    for (const serve::Completion& completion : *finished) {
      out.completions.emplace_back(completion.id, completion.done.ticks(),
                                   completion.device);
    }
  }
  std::sort(out.completions.begin(), out.completions.end());
  out.stats = fx.platform.system().snapshot();
  if (probe) probe(fx, scheduler);
  out.end_tick = fx.platform.system().events().now();
  return out;
}

/// What one traced run of the shared load recorded.
struct TraceRun {
  ServeOutcome serve;
  std::vector<obs::TraceEvent> events;  ///< sorted
  std::vector<obs::RequestPath> paths;
  std::uint64_t dropped = 0;
  std::string json;              ///< the Perfetto export
  support::StatsSnapshot stats;  ///< the registry after the run
};

/// The shared load under `config`, traced: the tracer starts before the
/// fixture is built (so its uploads are traced too) and stops at the end.
/// The far link's counters and energy sink are registered, as the benches
/// do, so `stats` carries every modeled sink.
inline TraceRun run_traced_serve_load(rt::RuntimeConfig config,
                                      std::uint64_t seed,
                                      topo::Placement placement,
                                      const SchedulerProbe& probe = {}) {
  auto& tracer = obs::Tracer::instance();
  tracer.start({});
  ServeFixture fx{std::move(config), seed};
  fx.link.register_stats(fx.platform.system().stats());
  TraceRun run;
  run.serve = run_serve_load(fx, placement, probe);
  tracer.pump();
  run.events = tracer.sorted_events();
  run.paths = obs::decompose(run.events);
  run.dropped = tracer.dropped();
  std::ostringstream json;
  tracer.export_json(json);
  run.json = json.str();
  run.stats = fx.platform.system().stats().snapshot();
  tracer.stop();
  return run;
}

}  // namespace tdo::testing
