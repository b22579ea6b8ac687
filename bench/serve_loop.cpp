// Serving-scheduler load harness: open- and closed-loop Zipf-tenant traffic.
//
// Models the ROADMAP's end state — many tenants hammering a pool of CIM
// accelerators with inference-style GEMMs against a Zipf-popular universe of
// weight sets — and measures the serving metrics that matter at that level:
// throughput, p50/p95/p99 tail latency per deadline class, residency hit
// rate, CPU-fallback ratio, and batch coalescing.
//
// The bench is two tables of named experiments (kServingSuite, and
// kOverloadSuite under `--overload`). Each experiment prints its table and
// declares its gates as data: what must hold, whether the gate applies
// under `--smoke`, and the failure text. main() runs the suite in order,
// checks every gate in one place, and exits nonzero if any failed. The
// headline gates:
//   - closed loop: the full scheduler (dynamic batching + residency-affinity
//     placement) strictly beats the no-batching FIFO baseline on both
//     throughput and p99 latency;
//   - admission: the adaptive controller lands within one ladder rung of
//     the best static min_macs_per_write threshold;
//   - overload: shedding keeps the interactive tail bounded, weighted-DRR
//     shares hold, and the per-request pump cost stays flat in the tenant
//     count.
//
// Every load runs on serve::drive (serve/load.hpp). `--smoke` shrinks
// everything for CI. See --help for the load knobs.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/critical_path.hpp"
#include "obs/energy.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/load.hpp"
#include "serve/scheduler.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "topo/topology.hpp"

namespace {

using tdo::benchutil::Json;
using tdo::benchutil::kMaxFlagCount;
using tdo::benchutil::parse_count;
using tdo::benchutil::parse_real;
using tdo::benchutil::ZipfSampler;
using tdo::benchutil::random_matrix;
using tdo::serve::ClosedSource;
using tdo::serve::DeadlineClass;
using tdo::serve::OpenSource;
using tdo::serve::sgemm_request;
using tdo::support::Duration;
using tdo::support::TextTable;

struct Options {
  bool smoke = false;
  bool overload = false;  ///< run only the overload-hardening suite
  bool dump = false;  ///< print per-request completion records
  std::size_t threads = 0;  ///< submitter threads; 0 skips thread experiments
  std::size_t accelerators = 2;
  std::size_t tenants = 4;
  std::size_t clients_per_tenant = 4;
  std::size_t requests_per_client = 16;
  std::size_t weight_sets = 8;
  double zipf_alpha = 1.0;
  std::size_t batch_max = 8;
  double max_wait_us = 25.0;
  double open_rate_rps = 20000.0;
  std::uint64_t seed = 42;
  std::uint64_t m = 16, n = 64, k = 64;
  /// Two-tier fabric shape (--topology near:N,far:M[xL]); nullopt keeps the
  /// legacy flat fleet of `accelerators` identical devices.
  std::optional<tdo::topo::TopologySpec> topology;
  /// Fabric placement policy for every scheduler in this run (--placement).
  tdo::topo::Placement placement = tdo::topo::Placement::kBufferCentric;
  bool placement_set = false;  ///< --placement given explicitly
  /// Non-empty: run the traced serving experiment and write Perfetto JSON
  /// here (--trace out.json).
  std::string trace_path;
  /// Non-empty: run the SLO burn-rate experiment and write the overloaded
  /// point's sampled metrics JSON here (--metrics out.json).
  std::string metrics_path;

  [[nodiscard]] std::uint64_t total_requests() const {
    return tenants * clients_per_tenant * requests_per_client;
  }
};

#define BENCH_CHECK(expr)                                        \
  do {                                                           \
    const auto _status = (expr);                                 \
    if (!_status.is_ok()) {                                      \
      std::cerr << #expr << ": " << _status.to_string() << "\n"; \
      std::exit(1);                                              \
    }                                                            \
  } while (0)

/// printf into a std::string (table cells and gate failure texts).
[[nodiscard]] __attribute__((format(printf, 1, 2))) std::string strprintf(
    const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// One self-check an experiment declares. It must hold in full runs, and
/// under --smoke too when `smoke` is set (smoke shrinks some loads below
/// the margins a gate assumes); otherwise the bench prints `failure` and
/// exits nonzero.
struct Gate {
  bool holds = true;
  bool smoke = true;
  std::string failure;
};

/// What the experiments of one run accumulate, in table order: their gates
/// and the members of the run's BENCH_*.json. Only simulated-clock
/// quantities go into the JSON: wall-clock measurements (thread scaling,
/// tenant-scale ns/request) would make the committed baseline diff flaky.
struct Report {
  std::vector<Gate> gates;
  Json json = Json::object();
};

/// A named experiment: whether this command line runs it, and the run that
/// prints its table and declares its gates.
struct Experiment {
  const char* name;
  bool (*applies)(const Options&);
  void (*run)(const Options&, Report&);
};

/// The bench's fleet: a flat fleet of `accelerators` identical devices, or
/// the two-tier shape of `spec` with the topology handed to the runtime
/// for placement-cost routing. Streams run two deep.
struct Platform : tdo::benchutil::Fabric {
  explicit Platform(std::size_t accelerators,
                    tdo::rt::RuntimeConfig config = {},
                    const std::optional<tdo::topo::TopologySpec>& spec = {})
      : Fabric{spec.value_or(tdo::topo::TopologySpec{accelerators, 0, 1.0}),
               [&] {
                 config.stream.depth = 2;
                 return config;
               }()} {
    // The link's counters and energy sink join the registry so metrics
    // samples carry them and the traced run's span-vs-accumulator energy
    // reconciliation sees every charged joule.
    if (far_link) far_link->register_stats(system.stats());
    if (spec.has_value()) runtime->set_topology(&topology);
    BENCH_CHECK(runtime->init(0));
  }

  [[nodiscard]] tdo::sim::VirtAddr upload_or_die(
      const std::vector<float>& data) {
    auto va = upload(data);
    BENCH_CHECK(va.status());
    return *va;
  }
};

/// Shared serving state: weight universe + per-client activation/output
/// buffer pools (rotating so back-to-back requests of one client do not
/// collide on C while the stream pipelines).
struct ServingState {
  std::vector<tdo::sim::VirtAddr> weights;
  struct Client {
    std::uint32_t tenant = 0;
    DeadlineClass deadline = DeadlineClass::kStandard;
    std::vector<tdo::sim::VirtAddr> va_a, va_c;
    std::size_t submitted = 0;
  };
  std::vector<Client> clients;
  ZipfSampler zipf;

  ServingState(Platform& platform, const Options& opts)
      : zipf{opts.weight_sets, opts.zipf_alpha, opts.seed} {
    constexpr std::size_t kPool = 6;
    for (std::size_t w = 0; w < opts.weight_sets; ++w) {
      weights.push_back(platform.upload_or_die(
          random_matrix(opts.k * opts.n, 1.0, opts.seed + 100 + w)));
    }
    for (std::size_t t = 0; t < opts.tenants; ++t) {
      for (std::size_t c = 0; c < opts.clients_per_tenant; ++c) {
        Client client;
        client.tenant = static_cast<std::uint32_t>(t);
        client.deadline = static_cast<DeadlineClass>(
            t % tdo::serve::kDeadlineClasses);
        const std::vector<float> host_a =
            random_matrix(opts.m * opts.k, 1.0, opts.seed + 7 + t * 31 + c);
        for (std::size_t p = 0; p < kPool; ++p) {
          client.va_a.push_back(platform.upload_or_die(host_a));
          client.va_c.push_back(platform.upload_or_die(
              std::vector<float>(opts.m * opts.n, 0.0f)));
        }
        clients.push_back(std::move(client));
      }
    }
  }

  [[nodiscard]] tdo::serve::Request next_request(const Options& opts,
                                                 std::size_t client_index) {
    Client& client = clients[client_index];
    const std::size_t w = zipf.next();
    const std::size_t pool = client.submitted % client.va_a.size();
    client.submitted += 1;
    return sgemm_request(client.tenant, client.deadline, opts.m, opts.n,
                         opts.k, client.va_a[pool], weights[w],
                         client.va_c[pool]);
  }

  /// Every client in a closed loop of opts.requests_per_client requests.
  [[nodiscard]] ClosedSource closed(const Options& opts,
                                    std::uint64_t upload_bytes = 0) {
    return ClosedSource{clients.size(), opts.requests_per_client,
                        [this, &opts](std::size_t client, std::size_t) {
                          return next_request(opts, client);
                        },
                        upload_bytes};
  }
};

[[nodiscard]] tdo::serve::SchedulerParams serving_params(const Options& opts) {
  tdo::serve::SchedulerParams params;
  params.batcher.max_batch = opts.batch_max;
  params.batcher.max_wait = Duration::from_us(opts.max_wait_us);
  params.admission.probe_period = 0;  // bootstrap probes only (steady load)
  return params;
}

[[nodiscard]] tdo::support::LatencyHistogram merged_latency(
    const tdo::serve::Scheduler& scheduler) {
  tdo::support::LatencyHistogram all;
  for (std::size_t c = 0; c < tdo::serve::kDeadlineClasses; ++c) {
    all.merge(scheduler.class_latency(static_cast<DeadlineClass>(c)));
  }
  return all;
}

[[nodiscard]] double total_energy_pj(
    const tdo::support::StatsSnapshot& snapshot) {
  double pj = 0.0;
  for (const auto& [name, sink_pj] : snapshot.energies_pj) pj += sink_pj;
  return pj;
}

/// --dump: every closed-loop completion plus the per-device and per-tier
/// load split of one run.
[[nodiscard]] std::string dump_text(
    const char* label, Platform& platform,
    const std::vector<tdo::serve::Completion>& completions,
    std::uint64_t far_routed) {
  std::string out = strprintf("\n-- completions (%s) --\n", label);
  for (const auto& c : completions) {
    const int tier =
        c.device < 0 ? 0 : platform.topology.tier(std::size_t(c.device));
    out += strprintf(
        "  id %3llu tenant %u cls %-11s arr %9.1f disp %9.1f done %9.1f "
        "lat %8.1f us batch %u dev %d tier %d %s\n",
        static_cast<unsigned long long>(c.id), c.tenant,
        tdo::serve::to_string(c.deadline), c.arrival.microseconds(),
        c.dispatch.microseconds(), c.done.microseconds(),
        c.latency().microseconds(), c.batch_size, c.device, tier,
        c.offloaded ? "dev" : "host");
  }
  // Per-tier queue/occupancy split: scheduler-side routed requests
  // ("queue") vs device-side jobs actually retired ("jobs"; batching
  // and runtime-internal launches make the two differ).
  out += strprintf("-- per-device load (%s) --\n", label);
  std::vector<std::uint64_t> routed(platform.accels.size(), 0);
  for (const auto& c : completions) {
    if (c.device >= 0 && static_cast<std::size_t>(c.device) < routed.size()) {
      ++routed[static_cast<std::size_t>(c.device)];
    }
  }
  for (std::size_t d = 0; d < routed.size(); ++d) {
    out += strprintf("  dev %zu tier %-4s queue %4llu jobs %4llu\n", d,
                     platform.topology.tier(d) == 1 ? "far" : "near",
                     static_cast<unsigned long long>(routed[d]),
                     static_cast<unsigned long long>(
                         platform.accels[d]->jobs_completed()));
  }
  if (platform.far_link) {
    out += strprintf(
        "  far link: contended ticks %llu, responses %llu, far-routed %llu\n",
        static_cast<unsigned long long>(platform.far_link->contended_ticks()),
        static_cast<unsigned long long>(platform.far_link->responses()),
        static_cast<unsigned long long>(far_routed));
  }
  return out;
}

/// What one serving load reports: its table row, its BENCH_*.json member,
/// its --dump text, and the two numbers the serving gate compares.
struct LoadResult {
  double throughput_rps = 0.0;
  Duration p99;
  std::vector<std::string> row;
  Json json = Json::object();
  std::string dump;
};

/// One serving load on a fresh platform: closed loop (every client keeps
/// exactly one request in flight) or open loop (requests arrive on a
/// fixed-rate jittered schedule regardless of completion progress; arrival
/// stamps predate submission when the scheduler falls behind, so latency
/// includes front-end backlog). Steady-state ROI: the first quarter warms
/// the residency cache and the admission EWMAs; counters, latency
/// histograms and timing restart at the warm-up marker. A closed run with a
/// `dump_label` keeps its --dump text.
[[nodiscard]] LoadResult run_load(const Options& opts, const char* name,
                                  const tdo::serve::SchedulerParams& params,
                                  bool open,
                                  const char* dump_label = nullptr) {
  Platform platform{opts.accelerators, {}, opts.topology};
  ServingState state{platform, opts};
  tdo::serve::Scheduler scheduler{params, *platform.runtime};
  const std::uint64_t target = opts.total_requests();

  // Deterministic jittered arrivals around the configured rate; client
  // round-robin keeps per-client request ordering sane.
  std::vector<Duration> arrivals;
  if (open) {
    tdo::support::Rng jitter{opts.seed ^ 0x5eedull};
    const double gap_us = 1e6 / opts.open_rate_rps;
    double at_us = 1.0;
    for (std::uint64_t r = 0; r < target; ++r) {
      arrivals.push_back(Duration::from_us(at_us));
      at_us += gap_us * jitter.uniform(0.5, 1.5);
    }
  }
  OpenSource open_source{arrivals, [&](std::size_t r) {
                           auto request = state.next_request(
                               opts, r % state.clients.size());
                           request.arrival = arrivals[r];
                           return request;
                         }};
  ClosedSource closed_source = state.closed(opts);
  tdo::serve::Source& source =
      open ? static_cast<tdo::serve::Source&>(open_source) : closed_source;

  tdo::support::StatsSnapshot roi = platform.system.snapshot();
  Duration t0 = platform.system.global_time();
  std::optional<std::uint64_t> roi_at;
  const tdo::serve::Warmup warmup{
      std::max<std::uint64_t>(state.clients.size(), target / 4),
      [&](std::uint64_t completed) {
        scheduler.reset_latency_stats();
        roi = platform.system.snapshot();
        t0 = platform.system.global_time();
        roi_at = completed;
      }};
  const auto finished = drive(scheduler, source, target,
                              tdo::serve::Advance::kWhenIdle, warmup);
  BENCH_CHECK(finished.status());
  const std::uint64_t roi_completed =
      roi_at ? finished->size() - *roi_at : 0;
  const Duration elapsed = platform.system.global_time() - t0;

  LoadResult result;
  result.throughput_rps = static_cast<double>(roi_completed) /
                          std::max(elapsed.seconds(), 1e-12);
  // Per-deadline-class tails: BENCH_*.json wants class-resolved latency,
  // not just the merged histogram the table shows.
  Json classes = Json::object();
  for (std::size_t c = 0; c < tdo::serve::kDeadlineClasses; ++c) {
    const auto cls = static_cast<DeadlineClass>(c);
    const auto hist = scheduler.class_latency(cls);
    if (hist.count() == 0) continue;
    Json cj = Json::object();
    cj.set("count", Json::number(hist.count()));
    cj.set("p50_us", Json::number(hist.quantile(0.50).microseconds()));
    cj.set("p95_us", Json::number(hist.quantile(0.95).microseconds()));
    cj.set("p99_us", Json::number(hist.quantile(0.99).microseconds()));
    classes.set(tdo::serve::to_string(cls), std::move(cj));
  }
  const auto all = merged_latency(scheduler);
  const Duration p50 = all.quantile(0.50);
  const Duration p95 = all.quantile(0.95);
  result.p99 = all.quantile(0.99);
  // Modeled energy over the ROI, all sinks.
  const tdo::support::StatsSnapshot end = platform.system.snapshot();
  const double energy_uj =
      (total_energy_pj(end) - total_energy_pj(roi)) * 1e-6;
  const auto delta = end.delta_since(roi);
  const auto ratio = [](std::uint64_t part, std::uint64_t whole,
                        double fallback) {
    return whole == 0 ? fallback
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const std::uint64_t hits = delta.counter_or("residency.hits");
  const double hit_rate =
      ratio(hits, hits + delta.counter_or("residency.misses"), 0.0);
  const double fallback_ratio = ratio(delta.counter_or("stream.cpu_fallbacks"),
                                      delta.counter_or("stream.enqueued"), 0.0);
  const double mean_batch = ratio(delta.counter_or("serve.completed"),
                                  delta.counter_or("serve.launches"), 1.0);
  const std::uint64_t rejected = end.counter_or("serve.rejected");
  const std::uint64_t affinity = end.counter_or("serve.affinity_routed");

  result.row = {name,
                strprintf("%.0f", result.throughput_rps),
                strprintf("%.1f", p50.microseconds()),
                strprintf("%.1f", p95.microseconds()),
                strprintf("%.1f", result.p99.microseconds()),
                strprintf("%.1f%%", hit_rate * 100.0),
                strprintf("%.1f%%", fallback_ratio * 100.0),
                strprintf("%.2f", mean_batch),
                std::to_string(affinity),
                std::to_string(rejected)};
  Json& j = result.json;
  j.set("throughput_rps", Json::number(result.throughput_rps));
  j.set("p50_us", Json::number(p50.microseconds()));
  j.set("p95_us", Json::number(p95.microseconds()));
  j.set("p99_us", Json::number(result.p99.microseconds()));
  j.set("classes", std::move(classes));
  j.set("hit_rate", Json::number(hit_rate));
  j.set("fallback_ratio", Json::number(fallback_ratio));
  j.set("mean_batch", Json::number(mean_batch));
  j.set("energy_uj", Json::number(energy_uj));
  j.set("edp_uj_s", Json::number(energy_uj * elapsed.seconds()));
  j.set("completed", Json::number(end.counter_or("serve.completed")));
  j.set("rejected", Json::number(rejected));
  j.set("affinity_routed", Json::number(affinity));
  if (opts.dump && dump_label != nullptr) {
    result.dump = dump_text(dump_label, platform, *finished,
                            end.counter_or("serve.far_routed"));
  }
  return result;
}

/// Adaptive-admission convergence load: mixed-intensity sequential
/// requests, either at one static threshold or under the adaptive
/// controller. Returns the elapsed time and the final min_macs_per_write.
[[nodiscard]] std::pair<Duration, double> run_admission_load(
    const Options& opts, bool adaptive, double static_threshold) {
  tdo::rt::RuntimeConfig config;
  config.stream.min_macs_per_write = adaptive ? 0.0 : static_threshold;
  Platform platform{1, config};

  tdo::serve::SchedulerParams params;
  params.batching = false;  // per-request launches: the threshold's domain
  params.residency_affinity = false;
  params.admission.adaptive = adaptive;
  params.admission.probe_period = 8;
  tdo::serve::Scheduler scheduler{params, *platform.runtime};

  // Mixed intensities: m sweeps the ladder around the knee; every request is
  // uncacheable so each one pays (or dodges) the programming cost the
  // threshold arbitrates.
  const std::vector<std::uint64_t> ms{1, 2, 4, 8, 16, 32, 64};
  const std::uint64_t n = 64, k = 64;
  const std::size_t rounds = opts.smoke ? 6 : 16;

  std::vector<tdo::sim::VirtAddr> va_a, va_b, va_c;
  for (const std::uint64_t m : ms) {
    va_a.push_back(
        platform.upload_or_die(random_matrix(m * k, 1.0, opts.seed + m)));
    va_b.push_back(platform.upload_or_die(
        random_matrix(k * n, 1.0, opts.seed + 200 + m)));
    va_c.push_back(platform.upload_or_die(std::vector<float>(m * n, 0.0f)));
  }

  const Duration t0 = platform.system.global_time();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t s = 0; s < ms.size(); ++s) {
      // Fresh activations ride the scheduler's measured upload path, feeding
      // the adaptive min_async_bytes break-even estimate.
      BENCH_CHECK(scheduler.upload(va_a[s], va_a[s], ms[s] * k * 4));
      auto request = sgemm_request(0, DeadlineClass::kStandard, ms[s], n, k,
                                   va_a[s], va_b[s], va_c[s]);
      request.cacheable = false;
      BENCH_CHECK(scheduler.submit(request).status());
      BENCH_CHECK(scheduler.drain());  // sequential: isolate per-site costs
    }
  }
  return {platform.system.global_time() - t0,
          scheduler.admission().report().min_macs_per_write};
}

// --- thread-parallel submission experiments ---
//
// The container may have a single core, so every headline number here is
// *simulated*: submitter threads advance per-shard simulated clocks
// (SchedulerParams::submit_cost per request), and the tables read those
// clocks back. Real OS threads still run the ring/atomic paths, so a
// ThreadSanitizer build exercises the actual concurrency.

/// Submit-scaling run: N real threads push pre-built requests through the
/// scheduler's sharded submission ring, each charged `submit_cost` on its
/// own simulated shard clock. Submitted-request throughput is the request
/// count over the widest shard clock — deterministic regardless of OS
/// interleaving (end-to-end completion rate can wiggle with dispatch order).
struct SubmitScale {
  double submit_rps = 0.0;
  double e2e_rps = 0.0;
  std::uint64_t ring_contended = 0;
  std::uint64_t latency_contended = 0;
  std::uint64_t stream_ring_contended = 0;
  std::uint64_t rejected = 0;
};

[[nodiscard]] SubmitScale run_submit_scaling(const Options& opts,
                                             std::size_t threads) {
  Platform platform{opts.accelerators, {}, opts.topology};
  ServingState state{platform, opts};

  tdo::serve::SchedulerParams params = serving_params(opts);
  params.submit_cost = Duration::from_us(2.0).ticks();
  tdo::serve::Scheduler scheduler{params, *platform.runtime};

  const std::uint64_t total = opts.total_requests();
  std::vector<tdo::serve::Request> requests;
  requests.reserve(total);
  for (std::uint64_t r = 0; r < total; ++r) {
    requests.push_back(state.next_request(opts, r % state.clients.size()));
  }

  // Shard clocks start at current simulated time; their widest advance is
  // the N-wide submission span.
  scheduler.sync_submit_clocks();
  const tdo::sim::Tick base = scheduler.max_submit_clock();
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> submitters;
  submitters.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::uint64_t r = t; r < total; r += threads) {
        if (!scheduler.submit_from_thread(requests[r]).is_ok()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  const tdo::sim::Tick span = scheduler.max_submit_clock() - base;

  // Join the submitters' timelines before driving: requests carry arrival
  // stamps from the shard clocks, so simulated time first catches up to the
  // last submission, then the driver pumps the backlog to completion.
  platform.system.events().advance_to(scheduler.max_submit_clock());
  const std::uint64_t accepted = total - rejected.load();
  OpenSource backlog{{}, nullptr};
  const auto finished = drive(scheduler, backlog, accepted,
                              tdo::serve::Advance::kEveryRound);
  BENCH_CHECK(finished.status());

  return {static_cast<double>(accepted) /
              std::max(tdo::sim::from_ticks(span).seconds(), 1e-12),
          static_cast<double>(finished->size()) /
              std::max(platform.system.global_time().seconds(), 1e-12),
          scheduler.ring_lock_contended(), scheduler.latency_lock_contended(),
          platform.runtime->stream().ring_lock_contended(), rejected.load()};
}

/// Matched-arrival contended run: one external arrival schedule shared by
/// every thread count, at a demand rate one submitter cannot sustain
/// (submit_cost > gap). Request latency counts from the *external* arrival,
/// so the front-end backlog a lone submitter accumulates shows up in p99 —
/// and extra submitter threads remove it. Single-threaded simulated
/// replay: fully deterministic.
struct ContendedLoad {
  Duration p50, p99;
  Duration worst_wait;  ///< max submission-pipeline delay vs external arrival
};

[[nodiscard]] ContendedLoad run_contended_loop(const Options& opts,
                                               std::size_t threads) {
  Platform platform{opts.accelerators, {}, opts.topology};
  ServingState state{platform, opts};
  tdo::serve::Scheduler scheduler{serving_params(opts), *platform.runtime};

  const std::uint64_t total = opts.total_requests();
  // Demand every 40 us; each submission pipelines 120 us of front-end work.
  // One thread falls behind (3x oversubscribed), four keep up with margin.
  const Duration gap = Duration::from_us(40.0);
  const Duration submit_cost = Duration::from_us(120.0);
  std::vector<Duration> arrival, ready;
  std::vector<Duration> clocks(threads, platform.system.global_time());
  Duration at = platform.system.global_time() + Duration::from_us(1.0);
  Duration worst_wait = Duration::zero();
  for (std::uint64_t r = 0; r < total; ++r) {
    Duration& clock = clocks[r % threads];
    clock = std::max(clock, at) + submit_cost;
    arrival.push_back(at);
    ready.push_back(clock);
    worst_wait = std::max(worst_wait, clock - at);
    at += gap;
  }
  OpenSource source{ready, [&](std::size_t r) {
                      auto request =
                          state.next_request(opts, r % state.clients.size());
                      request.arrival = arrival[r];
                      return request;
                    }};
  BENCH_CHECK(drive(scheduler, source, total).status());

  const auto all = merged_latency(scheduler);
  return {all.quantile(0.50), all.quantile(0.99), worst_wait};
}

// --- overload-hardening experiments (--overload) ---
//
// The suite that gates the serving layer's overload hardening: calibrated
// overload points (shed vs no-shed vs uncontended interactive p99), the
// weighted-DRR share table, the tenant-scale flat-cost table, and — with
// --threads — a cross-thread flood that exercises the pump-time per-tenant
// bound under real submitters. `--overload` runs only this suite, so CI can
// gate it separately from the headline serving experiments.

/// One calibrated load point: batch-class heavies from tenant 0 paced at
/// `load_factor` x the measured service rate, a modest interactive stream
/// from tenant 1 across the first 85% of the heavy horizon (steady-state
/// overload only — once arrivals stop, shedding winds down and the residual
/// backlog coalesces into full-width batches, a drain-down artifact the
/// shed-vs-no-shed comparison is not about).
struct OverloadPoint {
  double load_factor = 0.0;
  Duration interactive_p50, interactive_p99;
  std::uint64_t interactive_done = 0;
  std::uint64_t shed = 0;
};

/// What one metrics-sampled overload point recorded (--metrics): the SLO
/// monitor's breach sequence plus the exported time-series JSON.
struct MetricsCapture {
  std::vector<tdo::obs::SloBreach> breaches;
  std::uint64_t samples = 0;
  std::uint64_t evicted = 0;
  std::string json;  ///< the point's tdo.metrics.v1 export
};

[[nodiscard]] OverloadPoint run_overload_point(
    const Options& opts, bool shed_enabled, double load_factor,
    MetricsCapture* metrics = nullptr) {
  Platform platform{1};

  constexpr std::uint64_t kHeavyM = 64, kLightM = 8, kN = 64, kK = 64;
  constexpr std::size_t kPool = 8;
  const auto va_b =
      platform.upload_or_die(random_matrix(kK * kN, 1.0, opts.seed + 500));
  const auto heavy_a = platform.upload_or_die(
      random_matrix(kHeavyM * kK, 1.0, opts.seed + 501));
  const auto light_a = platform.upload_or_die(
      random_matrix(kLightM * kK, 1.0, opts.seed + 502));
  std::vector<tdo::sim::VirtAddr> heavy_c, light_c;
  for (std::size_t p = 0; p < kPool; ++p) {
    heavy_c.push_back(
        platform.upload_or_die(std::vector<float>(kHeavyM * kN, 0.0f)));
    light_c.push_back(
        platform.upload_or_die(std::vector<float>(kLightM * kN, 0.0f)));
  }

  tdo::serve::SchedulerParams params;
  params.shed.enabled = shed_enabled;
  params.batcher.max_batch = 4;
  params.batcher.max_wait = Duration::from_us(10.0);
  // Static admission: the shedder's capacity estimate is the scheduler's own
  // service EWMA, and adaptive knob retunes under overload would move the
  // host/device knee mid-run.
  params.admission.adaptive = false;
  tdo::serve::Scheduler scheduler{params, *platform.runtime};

  const auto make = [&](bool heavy, std::size_t index) {
    return heavy ? sgemm_request(0, DeadlineClass::kBatch, kHeavyM, kN, kK,
                                 heavy_a, va_b, heavy_c[index % kPool])
                 : sgemm_request(1, DeadlineClass::kInteractive, kLightM, kN,
                                 kK, light_a, va_b, light_c[index % kPool]);
  };

  // Warm the service EWMA and measure the uncontended heavy service time
  // that calibrates the offered load.
  auto& events = platform.system.events();
  for (std::size_t i = 0; i < 12; ++i) {
    BENCH_CHECK(scheduler.submit(make(true, i)).status());
    BENCH_CHECK(scheduler.drain());
    BENCH_CHECK(scheduler.submit(make(false, i)).status());
    BENCH_CHECK(scheduler.drain());
  }
  const tdo::sim::Tick measure_start = events.now();
  for (std::size_t i = 0; i < 8; ++i) {
    BENCH_CHECK(scheduler.submit(make(true, i)).status());
    BENCH_CHECK(scheduler.drain());
  }
  const tdo::sim::Tick heavy_service =
      std::max<tdo::sim::Tick>((events.now() - measure_start) / 8, 1);
  (void)scheduler.take_completions();
  scheduler.reset_latency_stats();

  // Metrics sampling + SLO monitor over the measured window only (warm-up
  // excluded, same ROI discipline the histograms use). Windows and the
  // interactive latency target are calibrated from the measured heavy
  // service time, so the same specs hold across machines and --seed.
  std::optional<tdo::obs::SloMonitor> slo;
  if (metrics != nullptr) {
    tdo::obs::SloParams slo_params;
    slo_params.fast_window_ticks = 6 * heavy_service;
    slo_params.slow_window_ticks = 18 * heavy_service;
    std::vector<tdo::obs::SloSpec> specs;
    // At 0.5x load the windowed mean interactive latency sits well under
    // one heavy service time (most requests wait behind nothing; the
    // unlucky ones behind a fraction of one heavy job), while a no-shed
    // flood queues interactive arrivals behind a standing heavy backlog,
    // pushing the mean past several heavy service times. 2x splits the two
    // regimes with margin on both sides.
    specs.push_back(
        tdo::obs::SloSpec{"interactive", 2 * heavy_service, 0.02});
    slo.emplace(slo_params, std::move(specs));
    slo->attach(platform.system.stats());
    tdo::obs::MetricsParams metrics_params;
    metrics_params.sample_every =
        std::max<std::uint64_t>(heavy_service / 4, 1);
    auto& registry = tdo::obs::MetricsRegistry::instance();
    registry.start(&platform.system.stats(), metrics_params);
    registry.attach_slo(&*slo);
  }

  constexpr int kHeavy = 96;
  constexpr int kLight = 24;
  tdo::support::Rng rng{opts.seed ^ 0x0f0adull};
  struct Arrival {
    tdo::sim::Tick at = 0;
    bool heavy = false;
  };
  const tdo::sim::Tick start = events.now();
  const tdo::sim::Tick heavy_gap = std::max<tdo::sim::Tick>(
      static_cast<tdo::sim::Tick>(static_cast<double>(heavy_service) /
                                  load_factor),
      1);
  std::vector<Arrival> schedule;
  const auto add_stream = [&](int count, tdo::sim::Tick gap, bool heavy) {
    for (int i = 0; i < count; ++i) {
      const auto jitter = static_cast<tdo::sim::Tick>(
          rng.uniform_int(0, static_cast<std::int64_t>(gap / 4) + 1));
      schedule.push_back(Arrival{
          start + static_cast<tdo::sim::Tick>(i) * gap + jitter, heavy});
    }
  };
  add_stream(kHeavy, heavy_gap, true);
  add_stream(kLight,
             std::max<tdo::sim::Tick>(static_cast<tdo::sim::Tick>(kHeavy) *
                                          heavy_gap * 85 / (100 * kLight),
                                      1),
             false);
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  std::vector<Duration> due;
  for (const Arrival& arrival : schedule) {
    due.push_back(tdo::sim::from_ticks(arrival.at));
  }
  OpenSource source{std::move(due), [&](std::size_t i) {
                      return make(schedule[i].heavy, i);
                    }};
  BENCH_CHECK(drive(scheduler, source, schedule.size(),
                    tdo::serve::Advance::kEveryRound)
                  .status());

  if (metrics != nullptr) {
    auto& registry = tdo::obs::MetricsRegistry::instance();
    registry.force_sample(events.now());  // final state always recorded
    std::ostringstream json;
    registry.export_json(json);
    metrics->json = json.str();
    metrics->samples = registry.samples().size();
    metrics->evicted = registry.evicted();
    metrics->breaches = slo->breaches();
    registry.attach_slo(nullptr);
    registry.stop();
    slo->detach(platform.system.stats());
  }

  const auto interactive =
      scheduler.class_latency(DeadlineClass::kInteractive);
  return {load_factor, interactive.quantile(0.50), interactive.quantile(0.99),
          interactive.count(), scheduler.counters().shed.value()};
}

/// One fixed small-GEMM working set on a single-accelerator platform: one
/// weight and one activation matrix, `pool` rotating outputs.
struct SmallGemm {
  std::uint64_t m, n, k;
  tdo::sim::VirtAddr a = 0, b = 0;
  std::vector<tdo::sim::VirtAddr> c;

  SmallGemm(Platform& platform, std::uint64_t m_, std::uint64_t n_,
            std::uint64_t k_, std::uint64_t seed, std::size_t pool)
      : m{m_}, n{n_}, k{k_} {
    b = platform.upload_or_die(random_matrix(k * n, 1.0, seed));
    a = platform.upload_or_die(random_matrix(m * k, 1.0, seed + 1));
    for (std::size_t p = 0; p < pool; ++p) {
      c.push_back(platform.upload_or_die(std::vector<float>(m * n, 0.0f)));
    }
  }

  [[nodiscard]] tdo::serve::Request request(std::uint32_t tenant,
                                            std::size_t index) const {
    return sgemm_request(tenant, DeadlineClass::kStandard, m, n, k, a, b,
                         c[index % c.size()]);
  }
};

/// One trial of a tenant-scale row: host nanoseconds of scheduling work per
/// served request with the per-tenant maps holding `tenants` entries. The
/// maps are pre-populated through set_tenant_weight (registration is the
/// cheap part); the timed region drives a fixed request count, at most 64
/// in flight, through the full submit -> pump -> complete path, so the
/// measured cost is the DRR active-list churn plus map lookups — flat when
/// pop_next_request is O(1), linear in `tenants` if a full-scan scheduler
/// ever regresses.
[[nodiscard]] double run_scale_trial(const Options& opts, Platform& platform,
                                     const SmallGemm& gemm,
                                     std::size_t tenants) {
  tdo::serve::SchedulerParams params;
  params.admission.adaptive = false;
  tdo::serve::Scheduler scheduler{params, *platform.runtime};
  for (std::size_t t = 0; t < tenants; ++t) {
    scheduler.set_tenant_weight(static_cast<std::uint32_t>(t), 1);
  }

  constexpr std::size_t kInFlight = 64;
  const std::size_t requests = opts.smoke ? 1024 : 4096;
  const std::size_t stride = std::max<std::size_t>(tenants / requests, 1);
  const auto run = [&]() -> double {
    std::size_t submitted = 0;
    ClosedSource source{
        kInFlight, requests / kInFlight, [&](std::size_t, std::size_t) {
          const std::size_t r = submitted++;
          return gemm.request(
              static_cast<std::uint32_t>((r * stride) % tenants), r);
        }};
    const auto t0 = std::chrono::steady_clock::now();
    BENCH_CHECK(drive(scheduler, source, source.target(),
                      tdo::serve::Advance::kEveryRound)
                    .status());
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(requests);
  };
  // The untimed pass warms allocator and caches after the previous trial.
  (void)run();
  return run();
}

// --- pseudo-asynchronous host/device split experiment ---

/// Runtime knobs of the split experiment: a four-worker host pool and no
/// admission threshold, isolating the split effect.
[[nodiscard]] tdo::rt::RuntimeConfig split_config() {
  tdo::rt::RuntimeConfig config;
  config.split.enabled = true;
  config.split.pool.workers = 4;
  config.stream.min_macs_per_write = 0.0;
  return config;
}

/// A d x d x d sgemm's operands on `platform` (seeds seed, seed+1).
struct SquareGemm {
  tdo::sim::VirtAddr a = 0, b = 0, c = 0;

  SquareGemm(Platform& platform, std::uint64_t d, std::uint64_t seed)
      : a{platform.upload_or_die(random_matrix(d * d, 1.0, seed))},
        b{platform.upload_or_die(random_matrix(d * d, 1.0, seed + 1))},
        c{platform.upload_or_die(std::vector<float>(d * d, 0.0f))} {}
};

/// One static point of the split sweep: `reps` back-to-back d^3 GEMMs at
/// a fixed host fraction. --dump prints the point's stripe accounting.
[[nodiscard]] Duration run_split_load(const Options& opts, double fraction,
                                      std::size_t reps) {
  tdo::rt::RuntimeConfig config = split_config();
  config.split.cpu_fraction = fraction;
  Platform platform{1, config};

  const std::uint64_t d = opts.smoke ? 128 : 256;
  const SquareGemm gemm{platform, d, opts.seed + 301};
  const Duration t0 = platform.system.global_time();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    BENCH_CHECK(platform.runtime->sgemm_async(
        d, d, d, 1.0f, gemm.a, d, gemm.b, d, 0.0f, gemm.c, d,
        tdo::cim::StationaryOperand::kB));
    BENCH_CHECK(platform.runtime->synchronize());  // the stripe join point
  }
  const Duration elapsed = platform.system.global_time() - t0;
  if (opts.dump) {
    const auto& pool = platform.runtime->host_pool().counters();
    // One stripe per split call: the device ran the rest of each split GEMM.
    const std::uint64_t stripes = pool.jobs.value();
    const std::uint64_t dev_macs = stripes * d * d * d - pool.macs.value();
    // Mean host-stripe span: the join latency per stripe.
    const Duration stripe_mean =
        stripes > 0 ? tdo::sim::from_ticks(pool.busy_ticks.value() / stripes)
                    : Duration{};
    std::printf(
        "  static split %-7.4f -> %-12s (stripes %llu, host/dev MACs "
        "%llu/%llu, stripe mean %s)\n",
        fraction, elapsed.to_string().c_str(),
        static_cast<unsigned long long>(stripes),
        static_cast<unsigned long long>(pool.macs.value()),
        static_cast<unsigned long long>(dev_macs),
        stripe_mean.to_string().c_str());
  }
  return elapsed;
}

// --- SLO burn-rate experiment (--metrics) ---

/// Self-gated burn-rate check: the monitor must stay silent on a healthy
/// 0.5x point and must page (>= 1 interactive latency breach) on a 3x
/// batch-class flood with shedding disabled. The overloaded point's sampled
/// series is exported to the --metrics path.
void metrics_experiment(const Options& opts, Report& report) {
  std::printf("\n");
  MetricsCapture low, high;
  const OverloadPoint low_point =
      run_overload_point(opts, /*shed_enabled=*/true, 0.5, &low);
  const OverloadPoint high_point =
      run_overload_point(opts, /*shed_enabled=*/false, 3.0, &high);

  TextTable table(
      "SLO burn-rate monitor (interactive: latency 2x heavy svc, shed 2%)");
  table.set_header({"Config", "Load", "Samples", "Breaches", "First breach"});
  const auto add = [&](const std::string& name, const OverloadPoint& p,
                       const MetricsCapture& m) {
    std::string first = "-";
    if (!m.breaches.empty()) {
      const auto& b = m.breaches.front();
      first = strprintf("%s.%s @ %.0f us", b.cls.c_str(), b.kind.c_str(),
                        static_cast<double>(b.tick) / 1e6);
    }
    table.add_row({name, strprintf("%.1fx", p.load_factor),
                   std::to_string(m.samples),
                   std::to_string(m.breaches.size()), first});
  };
  add("shed 0.5x", low_point, low);
  add("no-shed 3.0x", high_point, high);
  table.print(std::cout);

  std::uint64_t high_interactive_latency = 0;
  for (const auto& breach : high.breaches) {
    if (breach.cls == "interactive" && breach.kind == "latency") {
      high_interactive_latency += 1;
    }
  }
  report.gates.push_back(
      {low.breaches.empty(), true,
       strprintf("SLO monitor fired %zu breach(es) at 0.5x offered load",
                 low.breaches.size())});
  report.gates.push_back({high_interactive_latency > 0, true,
                          "no interactive latency breach at 3.0x offered "
                          "load with shedding disabled"});

  std::ofstream out(opts.metrics_path, std::ios::binary);
  report.gates.push_back(
      {static_cast<bool>(out), true,
       "cannot open --metrics path " + opts.metrics_path});
  if (out) {
    out << high.json;
    std::printf("metrics: %llu samples (%llu evicted) -> %s\n",
                static_cast<unsigned long long>(high.samples),
                static_cast<unsigned long long>(high.evicted),
                opts.metrics_path.c_str());
  }

  Json slo = Json::object();
  slo.set("low_breaches",
          Json::number(static_cast<std::uint64_t>(low.breaches.size())));
  slo.set("high_breaches",
          Json::number(static_cast<std::uint64_t>(high.breaches.size())));
  slo.set("high_interactive_latency_breaches",
          Json::number(high_interactive_latency));
  slo.set("high_samples", Json::number(high.samples));
  report.json.set("slo", std::move(slo));
}

// --- simulation-time tracing experiment (--trace) ---

/// Tail-decomposition table: per deadline class, the mean and the p99
/// request's latency split into the seven critical-path segments.
void print_decomposition(const std::vector<tdo::obs::RequestPath>& paths) {
  TextTable table("Critical-path decomposition (per class, us)");
  std::vector<std::string> header{"Class", "Metric", "n", "e2e"};
  for (std::size_t s = 0; s < tdo::obs::kSegmentCount; ++s) {
    header.emplace_back(tdo::obs::segment_name(s));
  }
  table.set_header(header);

  const auto us = [](double ticks) { return strprintf("%.1f", ticks / 1e6); };
  for (std::size_t c = 0; c < tdo::serve::kDeadlineClasses; ++c) {
    const char* cls = tdo::serve::to_string(static_cast<DeadlineClass>(c));
    std::vector<const tdo::obs::RequestPath*> in_class;
    for (const auto& path : paths) {
      if (path.cls == cls) in_class.push_back(&path);
    }
    if (in_class.empty()) continue;
    std::sort(in_class.begin(), in_class.end(),
              [](const auto* a, const auto* b) { return a->e2e() < b->e2e(); });

    std::vector<std::string> mean_row{cls, "mean",
                                      std::to_string(in_class.size())};
    double e2e_sum = 0.0;
    std::array<double, tdo::obs::kSegmentCount> seg_sum{};
    for (const auto* path : in_class) {
      e2e_sum += static_cast<double>(path->e2e());
      for (std::size_t s = 0; s < tdo::obs::kSegmentCount; ++s) {
        seg_sum[s] += static_cast<double>(path->seg[s]);
      }
    }
    const double n = static_cast<double>(in_class.size());
    mean_row.push_back(us(e2e_sum / n));
    for (const double sum : seg_sum) mean_row.push_back(us(sum / n));
    table.add_row(mean_row);

    const std::size_t rank = (in_class.size() * 99 + 99) / 100;  // ceil(.99n)
    const auto* p99 = in_class[rank - 1];
    std::vector<std::string> tail_row{cls, "p99", "1",
                                      us(static_cast<double>(p99->e2e()))};
    for (const std::uint64_t seg : p99->seg) {
      tail_row.push_back(us(static_cast<double>(seg)));
    }
    table.add_row(tail_row);
  }
  table.print(std::cout);
}

/// Per-class joules-per-segment table (--dump companion to the ticks one):
/// each class's share of every segment's attributed energy, split in
/// proportion to the class's segment ticks.
void print_energy_table(const std::vector<tdo::obs::RequestPath>& paths,
                        const tdo::obs::EnergyBreakdown& breakdown) {
  const tdo::obs::PerClassEnergy per_class =
      tdo::obs::per_class_energy(paths, breakdown);
  TextTable table("Per-class energy attribution (per segment, nJ)");
  std::vector<std::string> header{"Class", "total"};
  for (std::size_t s = 0; s < tdo::obs::kSegmentCount; ++s) {
    header.emplace_back(tdo::obs::segment_name(s));
  }
  table.set_header(header);
  const auto nj = [](double fj) { return strprintf("%.2f", fj * 1e-6); };
  for (const auto& [cls, seg_fj] : per_class) {
    double total = 0.0;
    for (const double fj : seg_fj) total += fj;
    std::vector<std::string> row{cls, nj(total)};
    for (const double fj : seg_fj) row.push_back(nj(fj));
    table.add_row(row);
  }
  std::vector<std::string> all{"(all)",
                               nj(static_cast<double>(breakdown.total_fj))};
  for (const std::uint64_t fj : breakdown.seg_fj) {
    all.push_back(nj(static_cast<double>(fj)));
  }
  table.add_row(all);
  table.print(std::cout);
}

/// Dedicated traced serving run (the headline experiments deliberately run
/// untraced so their numbers stay bit-identical with tracing off). The
/// fleet is forced two-tier and the pseudo-async split is enabled so every
/// span family — engine jobs, DMA copy windows, far-link responses,
/// host-pool stripes, per-class request spans — appears in one trace.
void trace_experiment(const Options& opts, Report& report) {
  auto& tracer = tdo::obs::Tracer::instance();
  tracer.start({});

  tdo::rt::RuntimeConfig config;
  config.split.enabled = true;
  config.split.cpu_fraction = 1.0 / 16.0;
  config.split.min_macs = 1;  // serve-sized GEMMs sit below the default gate
  config.split.pool.workers = 2;
  // Serve-sized activation uploads (m*k floats) ride the async DMA path so
  // the trace carries dma/<accel>.ch<k> copy-window spans.
  config.xfer.min_async_bytes = 256;
  std::optional<tdo::topo::TopologySpec> spec = opts.topology;
  if (!spec.has_value()) spec = tdo::topo::TopologySpec{1, 2, 2.0};
  Platform platform{spec->device_count(), config, spec};
  ServingState state{platform, opts};

  // Metrics ride the traced run so the counter trajectories land as
  // Perfetto counter tracks under the same spans (50 us sample grid).
  auto& metrics_registry = tdo::obs::MetricsRegistry::instance();
  tdo::obs::MetricsParams metrics_params;
  metrics_params.sample_every = 50'000'000;
  metrics_registry.start(&platform.system.stats(), metrics_params);

  tdo::serve::SchedulerParams params = serving_params(opts);
  // Caller-centric by default: near fills to depth first and the overflow
  // spills to the far pool, so far-link response spans are guaranteed under
  // closed-loop pressure. An explicit --placement wins.
  params.placement = opts.placement_set
                         ? opts.placement
                         : tdo::topo::Placement::kCallerCentric;
  // Static knobs: adaptive admission would override the forced split
  // fraction with its cold EWMA and starve the host-pool track.
  params.admission.adaptive = false;
  tdo::serve::Scheduler scheduler{params, *platform.runtime};

  // Fresh activations arrive through the measured upload path — the copy's
  // DMA window (and any contention stall) lands in the trace.
  ClosedSource source = state.closed(opts, opts.m * opts.k * sizeof(float));
  const auto finished = drive(scheduler, source, source.target());
  BENCH_CHECK(finished.status());

  tracer.pump();
  metrics_registry.force_sample(platform.system.events().now());
  const std::uint64_t metrics_samples = metrics_registry.samples().size();
  metrics_registry.append_counter_tracks();
  metrics_registry.stop();
  tracer.pump();
  const std::vector<tdo::obs::TraceEvent> events = tracer.sorted_events();
  const std::uint64_t dropped = tracer.dropped();
  const std::vector<tdo::obs::RequestPath> paths =
      tdo::obs::decompose(events);
  bool reconciled = true;  // every path: segment sum == e2e exactly
  std::size_t joined = 0;  // request spans that joined their engine job
  for (const auto& path : paths) {
    reconciled = reconciled && path.segment_sum() == path.e2e();
    joined += path.device_joined ? 1 : 0;
  }
  std::size_t span_track_kinds = 0;
  for (const char* kind :
       {"engine/", "dma/", "link/", "sched/", "host_pool/"}) {
    span_track_kinds += std::any_of(
        events.begin(), events.end(), [&](const tdo::obs::TraceEvent& e) {
          return e.phase == tdo::obs::Phase::kSpan &&
                 e.track.rfind(kind, 0) == 0;
        });
  }

  // Per-segment energy attribution over the same span population, checked
  // two ways: the integer-femtojoule segment buckets must sum exactly to
  // the span-derived total (no joule double-counted or lost in the
  // segment mapping), and that total must match the live accumulators the
  // cost model charged (no charged joule missing a span).
  const tdo::obs::EnergyBreakdown energy = tdo::obs::attribute_energy(events);
  double accumulated_pj = 0.0;
  for (const auto& [name, pj] : platform.system.snapshot().energies_pj) {
    // The attributable sinks: the six per-accelerator engine buckets
    // ("<accel>.energy.<sink>"), the host worker pool, and the far link.
    // "host.energy" (synchronous host-CPU fallback) has no spans and is
    // deliberately outside the attribution.
    if (name.find(".energy.") != std::string::npos ||
        name == "host_pool.energy" || name == "farlink.energy") {
      accumulated_pj += pj;
    }
  }
  const double span_pj = static_cast<double>(energy.total_fj) * 1e-3;
  // Tiny fJ-vs-double rounding tolerance.
  const bool energy_matches_accumulators =
      std::abs(span_pj - accumulated_pj) <=
      1e-6 * std::max(1.0, accumulated_pj);
  std::ofstream out(opts.trace_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open --trace path %s\n",
                 opts.trace_path.c_str());
    std::exit(1);
  }
  tracer.export_json(out);
  tracer.stop();

  std::printf(
      "\nTrace: %zu events -> %s (%llu dropped); %zu/%zu request spans "
      "device-joined; %zu/5 span track kinds\n",
      events.size(), opts.trace_path.c_str(),
      static_cast<unsigned long long>(dropped), joined, paths.size(),
      span_track_kinds);
  const auto share = [&](std::size_t s) {
    return energy.total_fj == 0
               ? 0.0
               : 100.0 * static_cast<double>(energy.seg_fj[s]) /
                     static_cast<double>(energy.total_fj);
  };
  std::printf(
      "Energy attribution: %.3f uJ over %llu spans (weights %.1f%%, "
      "stream %.1f%%, dma %.1f%%, link %.1f%%); %llu metrics samples\n",
      static_cast<double>(energy.total_fj) * 1e-9,
      static_cast<unsigned long long>(energy.spans_counted),
      share(tdo::obs::kSegWeights), share(tdo::obs::kSegStream),
      share(tdo::obs::kSegDmaWait), share(tdo::obs::kSegLink),
      static_cast<unsigned long long>(metrics_samples));
  if (opts.dump) {
    print_decomposition(paths);
    print_energy_table(paths, energy);
  }

  auto& gates = report.gates;
  gates.push_back({reconciled, true,
                   "critical-path segments do not sum to the end-to-end "
                   "latency on every request span"});
  gates.push_back({paths.size() == finished->size(), true,
                   strprintf("%zu request spans for %zu completions",
                             paths.size(), finished->size())});
  gates.push_back({span_track_kinds >= 5, true,
                   strprintf("only %zu of the 5 span track kinds (engine, "
                             "dma, link, sched, host_pool) appear in the "
                             "trace",
                             span_track_kinds)});
  gates.push_back(
      {joined > 0, true, "no request span joined its engine job span"});
  gates.push_back({dropped == 0, true,
                   strprintf("%llu trace events dropped (shard overflow)",
                             static_cast<unsigned long long>(dropped))});
  gates.push_back(
      {energy.segment_sum() == energy.total_fj && energy.total_fj > 0 &&
           energy.host_pool_fj > 0,
       true,
       strprintf("per-segment energy does not reconcile exactly (segment sum "
                 "%llu fJ vs span total %llu fJ, host-pool %llu fJ)",
                 static_cast<unsigned long long>(energy.segment_sum()),
                 static_cast<unsigned long long>(energy.total_fj),
                 static_cast<unsigned long long>(energy.host_pool_fj))});
  gates.push_back({energy_matches_accumulators, true,
                   strprintf("span-derived energy %.3f pJ diverges from the "
                             "live accumulators %.3f pJ (some charged joule "
                             "has no span)",
                             span_pj, accumulated_pj)});
  gates.push_back({metrics_samples > 0, true,
                   "metrics sampler took no samples during the traced run"});

  Json t = Json::object();
  t.set("events", Json::number(static_cast<std::uint64_t>(events.size())));
  t.set("request_spans",
        Json::number(static_cast<std::uint64_t>(paths.size())));
  t.set("metrics_samples", Json::number(metrics_samples));
  Json energy_json = Json::object();
  energy_json.set("total_fj", Json::number(energy.total_fj));
  energy_json.set("host_pool_fj", Json::number(energy.host_pool_fj));
  energy_json.set("link_fj", Json::number(energy.link_fj));
  Json segments = Json::object();
  for (std::size_t s = 0; s < tdo::obs::kSegmentCount; ++s) {
    segments.set(tdo::obs::segment_name(s), Json::number(energy.seg_fj[s]));
  }
  energy_json.set("segments_fj", std::move(segments));
  t.set("energy", std::move(energy_json));
  report.json.set("trace", std::move(t));
}

// --- the experiments ---

/// Closed loop, full scheduler (dynamic batching + residency-affinity
/// placement, then also adaptive admission) vs the no-batching FIFO
/// baseline, plus an open loop at the configured arrival rate (reporting
/// only).
void serving_experiment(const Options& opts, Report& report) {
  const auto closed = [&](const char* name, bool batching, bool adaptive,
                          const char* dump_label) {
    tdo::serve::SchedulerParams params = serving_params(opts);
    params.batching = batching;
    params.residency_affinity = batching;
    params.placement = opts.placement;
    params.admission.adaptive = adaptive;
    return run_load(opts, name, params, /*open=*/false, dump_label);
  };
  LoadResult baseline =
      closed("closed FIFO baseline", false, false, "baseline");
  LoadResult full = closed("closed batch+affinity", true, false,
                           "batch+affinity");
  LoadResult adaptive = closed("closed +adaptive", true, true, nullptr);
  LoadResult open = run_load(opts, "open full scheduler",
                             serving_params(opts), /*open=*/true);

  TextTable table("Serving scheduler - Zipf(" +
                  std::to_string(opts.zipf_alpha) + ") tenants, " +
                  std::to_string(opts.accelerators) + " accelerator(s)");
  table.set_header({"Config", "Req/s", "p50 us", "p95 us", "p99 us",
                    "Hit rate", "Fallback", "Batch", "Affinity", "Rejected"});
  for (const LoadResult* run : {&baseline, &full, &adaptive, &open}) {
    table.add_row(run->row);
  }
  table.print(std::cout);
  std::printf("%s%s", baseline.dump.c_str(), full.dump.c_str());

  report.gates.push_back(
      {full.throughput_rps > baseline.throughput_rps && full.p99 < baseline.p99,
       true,
       strprintf("full scheduler does not strictly beat the no-batching FIFO "
                 "baseline (throughput %.0f vs %.0f rps, p99 %.1f vs %.1f us)",
                 full.throughput_rps, baseline.throughput_rps,
                 full.p99.microseconds(), baseline.p99.microseconds())});
  report.json.set("closed_fifo", std::move(baseline.json));
  report.json.set("closed_batch_affinity", std::move(full.json));
  report.json.set("closed_adaptive", std::move(adaptive.json));
  report.json.set("open_loop", std::move(open.json));
}

/// Adaptive-admission convergence: a static sweep over the
/// min_macs_per_write ladder on a mixed-intensity load finds the best
/// static threshold; the adaptive controller must land within one rung.
void admission_experiment(const Options& opts, Report& report) {
  std::printf("\nAdmission convergence (static sweep vs adaptive EWMA):\n");
  // The sweep and the controller share one ladder, so "within one rung" is
  // well defined.
  const tdo::serve::AdmissionController ladder{{}, 0.0, 0};
  Duration best = Duration::from_sec(1e18);
  double best_static = 0.0;
  int best_rung = 0;
  const int rungs = opts.smoke ? 8 : 10;
  for (int i = 0; i < rungs; ++i) {
    const double threshold = ladder.rung(i);
    const Duration elapsed =
        run_admission_load(opts, /*adaptive=*/false, threshold).first;
    std::printf("  static min_macs_per_write %-8.0f -> %s\n", threshold,
                elapsed.to_string().c_str());
    if (elapsed < best) {
      best = elapsed;
      best_static = threshold;
      best_rung = i;
    }
  }
  const auto [adaptive_time, knob] =
      run_admission_load(opts, /*adaptive=*/true, 0.0);
  const int adaptive_rung = ladder.rung_index(knob);
  std::printf("  adaptive                      -> %s (knob %.0f, rung %d; "
              "best static %.0f, rung %d)\n",
              adaptive_time.to_string().c_str(), knob, adaptive_rung,
              best_static, best_rung);
  report.gates.push_back(
      {std::abs(adaptive_rung - best_rung) <= 1, true,
       strprintf("adaptive admission (rung %d) not within one ladder step of "
                 "the best static threshold (rung %d)",
                 adaptive_rung, best_rung)});
}

/// Pseudo-async host/device split: a static sweep over the split-fraction
/// ladder, then the scheduler's auto-tuner on the same GEMM. Full runs gate
/// that some split beats device-only and that the auto-tuned fraction lands
/// within one rung of the swept optimum.
void split_experiment(const Options& opts, Report& report) {
  std::printf("\nPseudo-async host/device split (%s GEMM, static sweep vs "
              "auto-tune):\n",
              opts.smoke ? "128^3" : "256^3");
  const tdo::serve::AdmissionController ladder{{}, 0.0, 0};
  const std::size_t reps = opts.smoke ? 2 : 3;
  const int rungs = 10;
  Duration device_only, best = Duration::from_sec(1e18);
  int best_rung = 0;
  for (int i = 0; i <= rungs; ++i) {
    const Duration elapsed = run_split_load(opts, ladder.split_rung(i), reps);
    if (i == 0) device_only = elapsed;  // rung 0 splits nothing off
    if (elapsed < best) {
      best = elapsed;
      best_rung = i;
    }
  }

  // Auto-tune: the scheduler feeds the admission controller's device and
  // host EWMAs (device jobs + pool stripes + host probes) and pushes the
  // quantized ideal fraction into the runtime at each dispatch.
  Platform platform{1, split_config()};
  tdo::serve::SchedulerParams params;
  params.batching = false;
  params.residency_affinity = false;
  params.admission.adaptive = true;
  params.admission.probe_period = 4;
  tdo::serve::Scheduler scheduler{params, *platform.runtime};
  const std::uint64_t d = opts.smoke ? 128 : 256;
  const SquareGemm gemm{platform, d, opts.seed + 311};
  const std::size_t adaptive_reps = opts.smoke ? 6 : 14;
  for (std::size_t rep = 0; rep < adaptive_reps; ++rep) {
    auto request = sgemm_request(0, DeadlineClass::kStandard, d, d, d, gemm.a,
                                 gemm.b, gemm.c);
    request.cacheable = false;
    BENCH_CHECK(scheduler.submit(request).status());
    BENCH_CHECK(scheduler.drain());
  }
  const double adaptive_fraction = platform.runtime->split_fraction();
  const int adaptive_rung = ladder.split_rung_index(adaptive_fraction);
  std::printf(
      "  device-only %s; best static split %.4f (rung %d) -> %s; auto-tuned "
      "%.4f (rung %d)\n",
      device_only.to_string().c_str(), ladder.split_rung(best_rung),
      best_rung, best.to_string().c_str(), adaptive_fraction, adaptive_rung);

  // Simulated-deterministic, but smoke shrinks the GEMM below the margins
  // these gates assume — report-only there.
  report.gates.push_back(
      {best_rung > 0 && best < device_only, false,
       strprintf("no static split fraction beats device-only (best rung %d)",
                 best_rung)});
  report.gates.push_back(
      {std::abs(adaptive_rung - best_rung) <= 1, false,
       strprintf("auto-tuned split fraction %.4f (rung %d) not within one "
                 "ladder rung of the swept optimum (rung %d)",
                 adaptive_fraction, adaptive_rung, best_rung)});
}

/// Thread-parallel submission (--threads): submit scaling over a thread
/// ladder, then the matched-arrival tail. Full runs with >= 2 threads gate
/// near-linear submit scaling and a p99 that beats the lone submitter's.
void threads_experiment(const Options& opts, Report& report) {
  std::vector<std::size_t> ladder{1, 2, 4, 8};
  if (std::find(ladder.begin(), ladder.end(), opts.threads) == ladder.end()) {
    ladder.push_back(opts.threads);
    std::sort(ladder.begin(), ladder.end());
  }
  const auto rung_of_threads = static_cast<std::size_t>(
      std::find(ladder.begin(), ladder.end(), opts.threads) - ladder.begin());

  TextTable submit_table("Thread-parallel submission (simulated clocks, "
                         "submit cost 2 us)");
  std::vector<std::string> header{"Threads", "Submit req/s", "Scaling",
                                  "E2E req/s"};
  if (opts.dump) {
    header.insert(header.end(), {"Ring lock", "Latency lock", "Stream lock"});
  }
  header.push_back("Rejected");
  submit_table.set_header(header);
  std::vector<SubmitScale> scaling;
  for (const std::size_t threads : ladder) {
    scaling.push_back(run_submit_scaling(opts, threads));
    const SubmitScale& s = scaling.back();
    std::vector<std::string> row{
        std::to_string(threads), strprintf("%.0f", s.submit_rps),
        strprintf("%.2fx", s.submit_rps / scaling.front().submit_rps),
        strprintf("%.0f", s.e2e_rps)};
    if (opts.dump) {
      row.push_back(std::to_string(s.ring_contended));
      row.push_back(std::to_string(s.latency_contended));
      row.push_back(std::to_string(s.stream_ring_contended));
    }
    row.push_back(std::to_string(s.rejected));
    submit_table.add_row(row);
  }
  std::printf("\n");
  submit_table.print(std::cout);

  TextTable tail_table("Matched-arrival tail latency (demand 25k req/s, "
                       "submit cost 120 us)");
  tail_table.set_header(
      {"Threads", "p50 us", "p99 us", "Worst front-end wait us"});
  std::vector<ContendedLoad> contended;
  for (const std::size_t threads : ladder) {
    contended.push_back(run_contended_loop(opts, threads));
    const ContendedLoad& c = contended.back();
    tail_table.add_row({std::to_string(threads),
                        strprintf("%.1f", c.p50.microseconds()),
                        strprintf("%.1f", c.p99.microseconds()),
                        strprintf("%.1f", c.worst_wait.microseconds())});
  }
  std::printf("\n");
  tail_table.print(std::cout);

  if (opts.threads < 2) return;
  // Simulated-deterministic, but smoke shrinks the load below the margins
  // these gates assume — report-only there.
  const double ratio =
      scaling[rung_of_threads].submit_rps / scaling.front().submit_rps;
  const double need = 0.75 * static_cast<double>(opts.threads);
  report.gates.push_back(
      {ratio >= need, false,
       strprintf("%zu-thread submitted-request throughput only %.2fx the "
                 "1-thread rate (need >= %.2fx)",
                 opts.threads, ratio, need)});
  const ContendedLoad& tail = contended[rung_of_threads];
  report.gates.push_back(
      {tail.p99 < contended.front().p99, false,
       strprintf("%zu-thread p99 %.1f us does not strictly beat the 1-thread "
                 "p99 %.1f us",
                 opts.threads, tail.p99.microseconds(),
                 contended.front().p99.microseconds())});
}

void summary(const Options&, Report&) {
  std::printf(
      "\nDynamic batching coalesces the Zipf head into shared-weight "
      "launches,\nresidency affinity pins them to the accelerator already "
      "holding the\nweights, and the admission EWMA re-derives the offload "
      "knee at runtime.\n");
}

/// Calibrated overload points: shedding must fire at 3x offered load and
/// never at 0.5x, and the shed run's interactive p99 must strictly beat the
/// no-shed reference while staying within 3x of the uncontended tail.
void shedding_experiment(const Options& opts, Report& report) {
  constexpr double kOverloadFactor = 3.0;  // offered load vs capacity
  const OverloadPoint uncontended =
      run_overload_point(opts, /*shed_enabled=*/true, 0.5);
  const OverloadPoint shed =
      run_overload_point(opts, /*shed_enabled=*/true, kOverloadFactor);
  const OverloadPoint no_shed =
      run_overload_point(opts, /*shed_enabled=*/false, kOverloadFactor);

  TextTable points("Overload shedding - interactive tail (1 accelerator, "
                   "batch-class flood)");
  points.set_header({"Config", "Load", "Intr p50 us", "Intr p99 us",
                     "Intr done", "Shed"});
  const auto add_point = [&](const char* name, const OverloadPoint& p) {
    points.add_row({name, strprintf("%.1fx", p.load_factor),
                    strprintf("%.1f", p.interactive_p50.microseconds()),
                    strprintf("%.1f", p.interactive_p99.microseconds()),
                    std::to_string(p.interactive_done),
                    std::to_string(p.shed)});
  };
  add_point("shed uncontended", uncontended);
  add_point("shed overloaded", shed);
  add_point("no-shed overloaded", no_shed);
  points.print(std::cout);

  auto& gates = report.gates;
  gates.push_back({shed.shed > 0, true,
                   strprintf("shedding never fired at %.1fx offered load",
                             kOverloadFactor)});
  gates.push_back(
      {uncontended.shed == 0, true,
       strprintf("shedding fired %llu times at 0.5x offered load",
                 static_cast<unsigned long long>(uncontended.shed))});
  gates.push_back({shed.interactive_p99 < no_shed.interactive_p99, true,
                   strprintf("shed interactive p99 %.1f us does not strictly "
                             "beat the no-shed reference %.1f us",
                             shed.interactive_p99.microseconds(),
                             no_shed.interactive_p99.microseconds())});
  gates.push_back({shed.interactive_p99.picoseconds() <=
                       3.0 * uncontended.interactive_p99.picoseconds(),
                   true,
                   strprintf("shed interactive p99 %.1f us exceeds 3x the "
                             "uncontended value %.1f us",
                             shed.interactive_p99.microseconds(),
                             uncontended.interactive_p99.microseconds())});

  const auto point_json = [](const OverloadPoint& p) {
    Json j = Json::object();
    j.set("load_factor", Json::number(p.load_factor));
    j.set("interactive_p50_us",
          Json::number(p.interactive_p50.microseconds()));
    j.set("interactive_p99_us",
          Json::number(p.interactive_p99.microseconds()));
    j.set("interactive_done", Json::number(p.interactive_done));
    j.set("shed", Json::number(p.shed));
    return j;
  };
  report.json.set("shed_uncontended", point_json(uncontended));
  report.json.set("shed_overloaded", point_json(shed));
  report.json.set("no_shed_overloaded", point_json(no_shed));
}

/// Weighted-DRR share measurement: three tenants with 3:2:1 weights, all
/// backlogged on one device with batching off (completion order is pull
/// order), shares counted over a window cut before the heaviest tenant's
/// queue can run dry. Each share must land within 15% of its weight.
void drr_experiment(const Options& opts, Report& report) {
  Platform platform{1};
  const SmallGemm gemm{platform, 8, 32, 32, opts.seed + 510, 8};

  const std::vector<std::uint32_t> weights{3, 2, 1};
  const std::size_t per_tenant = opts.smoke ? 48 : 120;
  tdo::serve::SchedulerParams params;
  params.batching = false;  // completion order == DRR pull order
  params.admission.adaptive = false;
  params.max_queue_per_tenant = per_tenant;
  tdo::serve::Scheduler scheduler{params, *platform.runtime};
  for (std::size_t t = 0; t < weights.size(); ++t) {
    scheduler.set_tenant_weight(static_cast<std::uint32_t>(t), weights[t]);
  }
  for (std::size_t r = 0; r < per_tenant; ++r) {
    for (std::size_t t = 0; t < weights.size(); ++t) {
      BENCH_CHECK(scheduler
                      .submit(gemm.request(static_cast<std::uint32_t>(t),
                                           r * weights.size() + t))
                      .status());
    }
  }
  BENCH_CHECK(scheduler.drain());
  const auto completions = scheduler.take_completions();

  // While every tenant is backlogged each DRR round serves 3+2+1; the
  // heaviest tenant runs dry first, after per_tenant * (sum/max) total
  // completions — cut the window 10% short of that.
  const std::uint32_t sum_w =
      std::accumulate(weights.begin(), weights.end(), 0u);
  const std::uint32_t max_w = *std::max_element(weights.begin(), weights.end());
  const std::size_t window = per_tenant * sum_w / max_w * 9 / 10;
  std::vector<std::size_t> counts(weights.size(), 0);
  for (std::size_t i = 0; i < window && i < completions.size(); ++i) {
    counts[completions[i].tenant] += 1;
  }

  TextTable drr("Weighted DRR shares (backlogged, batching off)");
  drr.set_header({"Tenant", "Weight", "Share", "Expected", "Error"});
  Json drr_json = Json::array();
  bool within_tolerance = true;
  for (std::size_t t = 0; t < weights.size(); ++t) {
    const double share =
        static_cast<double>(counts[t]) / static_cast<double>(window);
    const double expected =
        static_cast<double>(weights[t]) / static_cast<double>(sum_w);
    const double error = share / expected - 1.0;
    within_tolerance = within_tolerance && std::abs(error) <= 0.15;
    drr.add_row({std::to_string(t), std::to_string(weights[t]),
                 strprintf("%.1f%%", share * 100.0),
                 strprintf("%.1f%%", expected * 100.0),
                 strprintf("%+.1f%%", error * 100.0)});
    Json j = Json::object();
    j.set("weight", Json::number(static_cast<std::uint64_t>(weights[t])));
    j.set("share", Json::number(share));
    j.set("expected", Json::number(expected));
    drr_json.push(std::move(j));
  }
  std::printf("\n");
  drr.print(std::cout);
  report.gates.push_back({within_tolerance, true,
                          "a weighted-DRR share is more than 15% off its "
                          "configured weight"});
  report.json.set("drr_shares", std::move(drr_json));
}

void scale_experiment(const Options& opts, Report& report) {
  std::vector<std::size_t> scales{100, 1000, 10000};
  if (!opts.smoke) scales.push_back(100000);
  // Every trial runs on one platform, so its memory layout is common to all
  // tenant counts, and trials go round-robin over the counts, so a shift in
  // machine speed lands on every count alike. Each count keeps its fastest
  // trial.
  Platform platform{1};
  const SmallGemm gemm{platform, 4, 32, 32, opts.seed + 520, 16};
  constexpr int kTrials = 9;
  std::vector<double> ns(scales.size(), std::numeric_limits<double>::infinity());
  for (int trial = 0; trial < kTrials; ++trial) {
    for (std::size_t i = 0; i < scales.size(); ++i) {
      ns[i] = std::min(ns[i], run_scale_trial(opts, platform, gemm, scales[i]));
    }
  }
  TextTable scale("Tenant-scale pump cost (fixed request count, "
                  "pre-registered tenants)");
  scale.set_header({"Tenants", "ns/request", "vs 10^2"});
  for (std::size_t i = 0; i < scales.size(); ++i) {
    scale.add_row({std::to_string(scales[i]), strprintf("%.0f", ns[i]),
                   strprintf("%.2fx", ns[i] / ns.front())});
  }
  std::printf("\n");
  scale.print(std::cout);
  const double worst_ratio = ns.back() / ns.front();
  report.gates.push_back(
      {worst_ratio <= 1.25, true,
       strprintf("per-request pump cost grows %.2fx from %zu to %zu tenants "
                 "(flat-cost gate is 1.25x)",
                 worst_ratio, scales.front(), scales.back())});
}

/// Cross-thread flood for the pump-time tenant bound (--threads): N
/// submitter threads push well past max_queue_per_tenant through the
/// sharded ring while the driver is idle, then the driver drains. Every
/// ring-accepted request must come back exactly once — as a completion or a
/// pump-time rejection — and the bound must actually reject.
void flood_experiment(const Options& opts, Report& report) {
  Platform platform{1};
  const SmallGemm gemm{platform, 4, 32, 32, opts.seed + 530, 1};

  tdo::serve::SchedulerParams params;
  params.admission.adaptive = false;
  params.max_queue_per_tenant = 32;
  tdo::serve::Scheduler scheduler{params, *platform.runtime};

  constexpr std::uint32_t kTenants = 4;
  const std::size_t per_thread = 256;
  std::atomic<std::uint64_t> ring_rejected{0};
  std::vector<std::thread> submitters;
  submitters.reserve(opts.threads);
  for (std::size_t t = 0; t < opts.threads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t r = 0; r < per_thread; ++r) {
        const auto tenant = static_cast<std::uint32_t>((t + r) % kTenants);
        if (!scheduler.submit_from_thread(gemm.request(tenant, 0)).is_ok()) {
          ring_rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  BENCH_CHECK(scheduler.drain());
  (void)scheduler.take_completions();

  const std::uint64_t accepted =
      opts.threads * per_thread - ring_rejected.load();
  const std::uint64_t completed = scheduler.counters().completed.value();
  // Rejected here means dropped by the pump-time per-tenant bound.
  const std::uint64_t rejected = scheduler.counters().rejected.value();
  std::printf("\nCross-thread flood (%zu threads, tenant bound 32): "
              "%llu accepted -> %llu completed + %llu rejected at pump\n",
              opts.threads, static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(rejected));
  report.gates.push_back(
      {completed + rejected == accepted, true,
       "flood accounting mismatch (accepted != completed + rejected)"});
  report.gates.push_back(
      {rejected > 0, true,
       "the pump-time per-tenant bound never rejected during the flood"});
}

[[nodiscard]] bool always(const Options&) { return true; }

/// The headline suite, in print order.
constexpr Experiment kServingSuite[] = {
    {"serving", always, serving_experiment},
    {"trace", [](const Options& o) { return !o.trace_path.empty(); },
     trace_experiment},
    {"metrics", [](const Options& o) { return !o.metrics_path.empty(); },
     metrics_experiment},
    {"admission", always, admission_experiment},
    {"split", always, split_experiment},
    {"threads", [](const Options& o) { return o.threads > 0; },
     threads_experiment},
    {"summary", always, summary},
};

/// `--overload`: only the overload-hardening suite, so CI can gate it
/// separately from the headline experiments.
constexpr Experiment kOverloadSuite[] = {
    {"shedding", always, shedding_experiment},
    {"drr", always, drr_experiment},
    {"tenant-scale", always, scale_experiment},
    {"flood", [](const Options& o) { return o.threads > 0; },
     flood_experiment},
};

// --- command line ---

enum class Parsed { kRun, kHelp, kBad };

[[nodiscard]] Parsed parse_options(int argc, char** argv, Options& opts) {
  // --smoke shrinks the load first, so explicit load flags override it
  // wherever they appear on the line.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
      opts.tenants = 2;
      opts.clients_per_tenant = 3;
      opts.requests_per_client = 6;
      opts.weight_sets = 4;
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") continue;
    if (arg == "--overload") {
      opts.overload = true;
      continue;
    }
    if (arg == "--dump") {
      opts.dump = true;
      continue;
    }
    if (arg == "--help" || i + 1 >= argc) {
      return arg == "--help" ? Parsed::kHelp : Parsed::kBad;
    }
    const char* value = argv[++i];
    // A whole number in [min, max]; a finite real >= 0 (> 0 when
    // `positive`, for values a zero would divide by).
    const auto count = [&](auto& out, std::uint64_t min, std::uint64_t max) {
      const auto parsed = parse_count(value, min, max);
      if (parsed) out = *parsed;
      return parsed.has_value();
    };
    const auto real = [&](double& out, bool positive) {
      const auto parsed = parse_real(value, positive);
      if (parsed) out = *parsed;
      return parsed.has_value();
    };
    bool ok = true;
    if (arg == "--tenants") {
      ok = count(opts.tenants, 1, kMaxFlagCount);
    } else if (arg == "--clients") {
      ok = count(opts.clients_per_tenant, 1, kMaxFlagCount);
    } else if (arg == "--requests") {
      ok = count(opts.requests_per_client, 1, kMaxFlagCount);
    } else if (arg == "--weights") {
      ok = count(opts.weight_sets, 1, kMaxFlagCount);
    } else if (arg == "--accels") {
      ok = count(opts.accelerators, 1, kMaxFlagCount);
    } else if (arg == "--batch-max") {
      ok = count(opts.batch_max, 1, kMaxFlagCount);
    } else if (arg == "--threads") {
      ok = count(opts.threads, 0, 1024);
    } else if (arg == "--seed") {
      ok = count(opts.seed, 0, UINT64_MAX);
    } else if (arg == "--alpha") {
      ok = real(opts.zipf_alpha, false);
    } else if (arg == "--max-wait-us") {
      ok = real(opts.max_wait_us, false);
    } else if (arg == "--rate-rps") {
      ok = real(opts.open_rate_rps, true);
    } else if (arg == "--trace") {
      opts.trace_path = value;
    } else if (arg == "--metrics") {
      opts.metrics_path = value;
    } else if (arg == "--placement") {
      const std::string policy = value;
      opts.placement_set = true;
      if (policy == "blind") {
        opts.placement = tdo::topo::Placement::kBlind;
      } else if (policy == "caller") {
        opts.placement = tdo::topo::Placement::kCallerCentric;
      } else {
        ok = policy == "buffer";
        opts.placement = tdo::topo::Placement::kBufferCentric;
      }
    } else if (arg == "--topology") {
      const auto spec = tdo::topo::parse_topology_spec(value);
      ok = spec.has_value() && spec->device_count() > 0;
      if (ok) {
        opts.topology = *spec;
        opts.accelerators = spec->device_count();
      }
    } else {
      return Parsed::kBad;
    }
    if (!ok) {
      std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), value);
      return Parsed::kBad;
    }
  }
  return Parsed::kRun;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  const Parsed parsed = parse_options(argc, argv, opts);
  if (parsed != Parsed::kRun) {
    std::printf(
        "usage: bench_serve_loop [--smoke] [--overload] [--dump]\n"
        "       [--tenants N] [--clients C] [--requests R] [--weights W]\n"
        "       [--alpha Z] [--accels A] [--batch-max B] [--max-wait-us U]\n"
        "       [--rate-rps X] [--seed S] [--threads T]\n"
        "       [--topology near:N,far:M[xL]] [--trace out.json]\n"
        "       [--metrics out.json] [--placement blind|caller|buffer]\n");
    return parsed == Parsed::kHelp ? 0 : 1;
  }

  Report report;
  std::vector<const char*> declared_by;  // gate index -> experiment name
  const std::span<const Experiment> suite =
      opts.overload ? std::span<const Experiment>{kOverloadSuite}
                    : std::span<const Experiment>{kServingSuite};
  for (const Experiment& experiment : suite) {
    if (!experiment.applies(opts)) continue;
    experiment.run(opts, report);
    declared_by.resize(report.gates.size(), experiment.name);
  }

  bool ok = true;
  for (std::size_t i = 0; i < report.gates.size(); ++i) {
    const Gate& gate = report.gates[i];
    if (gate.holds || (opts.smoke && !gate.smoke)) continue;
    std::fprintf(stderr, "FAILED: %s: %s\n", declared_by[i],
                 gate.failure.c_str());
    ok = false;
  }
  report.json.set("ok", Json::boolean(ok));
  tdo::benchutil::write_bench_json(
      opts.overload ? "serve_loop_overload" : "serve_loop",
      std::move(report.json));
  return ok ? 0 : 1;
}
