// Sweep: two-tier CIM fabric - local crossbars vs CXL-style far pools.
//
// Models the disaggregated-memory serving scenario: a few near accelerators
// on the host bus plus a pool of far accelerators behind a contended link
// with a latency multiplier L (DMA derated by L, completions delivered as
// withhold-response messages over the link). A Zipf-weighted serving loop
// runs against the fabric twice per configuration:
//
//   * aware  - the runtime carries the topo::Topology map: placement weighs
//     queue depth by the link multiplier, so near crossbars absorb work
//     until their queues are ~L jobs deep and only the spill rides the far
//     pool (the DTO_IS_NUMA_AWARE analogue);
//   * blind  - no topology attached: flat round-robin over all devices, the
//     pre-tier baseline.
//
// The table shows the placement knee over L x load: at L >= 3 the sweep
// *enforces* that aware placement strictly beats blind round-robin on both
// p99 latency and EDP (exit 1 otherwise). A second experiment migrates a
// resident weight tile near->far over the peer-to-peer path and over the
// host-bounce reference path and enforces that P2P is strictly faster on
// migrated-bytes latency.
//
// `--smoke` runs one tiny configuration of each experiment (CI gate).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cim/accelerator.hpp"
#include "runtime/cim_blas.hpp"
#include "serve/scheduler.hpp"
#include "sim/system.hpp"
#include "support/fixed_point.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "topo/topology.hpp"

namespace {

using tdo::benchutil::Fabric;
using tdo::benchutil::kMaxFlagCount;
using tdo::benchutil::parse_count;
using tdo::benchutil::ZipfSampler;
using tdo::benchutil::random_matrix;
using tdo::support::Duration;
using tdo::support::Energy;

struct TopoConfig {
  std::size_t near = 2;
  std::size_t far = 2;
  double mult = 4.0;   // far-link latency multiplier L
  bool aware = true;   // topology-aware placement vs blind round-robin
  std::size_t weight_sets = 6;
  std::size_t requests = 64;
  std::uint64_t m = 32, n = 64, k = 64;
  double zipf_s = 1.0;
};

struct TopoResult {
  Duration p99;
  Duration mean;
  Duration runtime;
  double edp = 0.0;
  std::uint64_t near_jobs = 0;
  std::uint64_t far_jobs = 0;
  std::uint64_t link_contended_ticks = 0;
  std::uint64_t withheld_responses = 0;
  bool correct = true;
};

[[nodiscard]] tdo::support::StatusOr<TopoResult> run_serving(
    const TopoConfig& cfg) {
  tdo::rt::RuntimeConfig rt_config;
  // Deep enough queues that the near tier can actually back up past the
  // multiplier - the spill knee the sweep is after. (With depth < L the
  // near queue never costs more than an idle far device and the far pool
  // sits unused.)
  rt_config.stream.depth = 8;
  rt_config.residency.enabled = true;
  Fabric fabric{{cfg.near, cfg.far, cfg.mult}, rt_config};
  if (cfg.aware) fabric.runtime->set_topology(&fabric.topology);
  TDO_RETURN_IF_ERROR(fabric.runtime->init(0));

  tdo::serve::SchedulerParams serve_params;
  // Static admission knobs: the sweep compares placement policies, and
  // adaptive probing would route a few requests to the host on both sides
  // of the comparison for no informational gain here. Batching is off for
  // the same reason - per-request launches keep the load a stream of
  // individually-placed jobs, which is what the placement knee is about.
  serve_params.admission.adaptive = false;
  serve_params.batching = false;
  serve_params.max_queue_per_tenant = cfg.requests + 1;
  tdo::serve::Scheduler scheduler{serve_params, *fabric.runtime};

  const std::uint64_t elems_b = cfg.k * cfg.n;
  const std::uint64_t elems_a = cfg.m * cfg.k;
  const std::uint64_t elems_c = cfg.m * cfg.n;
  std::vector<tdo::sim::VirtAddr> weights(cfg.weight_sets);
  std::vector<std::vector<float>> weight_data(cfg.weight_sets);
  for (std::size_t w = 0; w < cfg.weight_sets; ++w) {
    weight_data[w] = random_matrix(elems_b, 1.0, 100 + w);
    auto va = fabric.upload(weight_data[w]);
    if (!va.is_ok()) return va.status();
    weights[w] = *va;
  }
  const std::vector<float> input = random_matrix(elems_a, 1.0, 7);
  auto va_a = fabric.upload(input);
  if (!va_a.is_ok()) return va_a.status();
  std::vector<tdo::sim::VirtAddr> va_c(cfg.requests);
  for (std::size_t r = 0; r < cfg.requests; ++r) {
    auto c = fabric.upload(std::vector<float>(elems_c, 0.0f));
    if (!c.is_ok()) return c.status();
    va_c[r] = *c;
  }

  // Warm-up: program every weight set once. This is where placement earns
  // its keep - the tile a weight set is programmed on is where every future
  // request for it streams (residency affinity), so blind round-robin
  // parks ~half the sets behind the far link and pays the multiplier on
  // every hit-path stream phase afterwards, while aware placement keeps
  // them on near silicon until the near tier genuinely runs out of queue.
  for (std::size_t w = 0; w < cfg.weight_sets; ++w) {
    auto id = scheduler.submit(tdo::serve::sgemm_request(
        0, tdo::serve::DeadlineClass::kStandard, cfg.m, cfg.n, cfg.k,
        va_a.value(), weights[w], va_c[w % cfg.requests]));
    if (!id.is_ok()) return id.status();
  }
  TDO_RETURN_IF_ERROR(scheduler.drain());
  (void)scheduler.take_completions();

  // ROI: steady-state Zipf traffic over the warmed caches.
  ZipfSampler zipf{cfg.weight_sets, cfg.zipf_s, 42};
  std::vector<std::size_t> choice(cfg.requests);
  const auto before = fabric.system.snapshot();
  const Duration t0 = fabric.system.global_time();
  for (std::size_t r = 0; r < cfg.requests; ++r) {
    choice[r] = zipf.next();
    auto id = scheduler.submit(tdo::serve::sgemm_request(
        static_cast<std::uint32_t>(r % 4),
        tdo::serve::DeadlineClass::kStandard, cfg.m, cfg.n, cfg.k,
        va_a.value(), weights[choice[r]], va_c[r]));
    if (!id.is_ok()) return id.status();
  }
  TDO_RETURN_IF_ERROR(scheduler.drain());
  const Duration t1 = fabric.system.global_time();
  const auto delta = fabric.system.snapshot().delta_since(before);

  TopoResult result;
  result.runtime = t1 - t0;
  std::vector<Duration> latencies;
  for (const auto& completion : scheduler.take_completions()) {
    latencies.push_back(completion.latency());
  }
  if (latencies.size() != cfg.requests) {
    return tdo::support::internal_error("lost completions");
  }
  std::sort(latencies.begin(), latencies.end(),
            [](Duration a, Duration b) { return a.ticks() < b.ticks(); });
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(latencies.size())));
  result.p99 = latencies[rank == 0 ? 0 : rank - 1];
  Duration sum;
  for (const Duration d : latencies) sum += d;
  result.mean = Duration::from_ps(sum.picoseconds() /
                                  static_cast<double>(latencies.size()));
  Energy energy;
  for (const auto& [name, pj] : delta.energies_pj) {
    (void)name;
    energy += Energy::from_pj(pj);
  }
  result.edp = tdo::support::energy_delay_product(energy, result.runtime);
  for (std::size_t d = 0; d < fabric.accels.size(); ++d) {
    const std::uint64_t jobs = fabric.accels[d]->jobs_completed();
    if (d < cfg.near) {
      result.near_jobs += jobs;
    } else {
      result.far_jobs += jobs;
      result.withheld_responses += fabric.accels[d]->withheld_responses();
    }
  }
  result.link_contended_ticks = fabric.far_link->contended_ticks();

  // Validate the last request against a host reference (quantization-level
  // tolerance) - far placement and withheld responses must not change math.
  const auto correct = fabric.matches_gemm(
      va_c[cfg.requests - 1], input, weight_data[choice[cfg.requests - 1]],
      cfg.m, cfg.n, cfg.k, 0.5);
  if (!correct.is_ok()) return correct.status();
  result.correct = *correct;
  return result;
}

struct MigrationResult {
  Duration elapsed;    ///< migrate + drain, measured from quiescent
  bool adopted = false;  ///< destination serves the tile as a residency hit
  bool correct = true;
};

/// Programs one weight tile on the near device, migrates it to the far
/// device over the requested path, and times the transfer from a quiescent
/// runtime. A follow-up GEMM must hit the migrated tile and stay bit-exact
/// with the host reference.
[[nodiscard]] tdo::support::StatusOr<MigrationResult> run_migration(
    const TopoConfig& cfg, bool peer_to_peer) {
  tdo::rt::RuntimeConfig rt_config;
  rt_config.residency.enabled = true;
  Fabric fabric{{cfg.near, cfg.far, cfg.mult}, rt_config};
  if (cfg.aware) fabric.runtime->set_topology(&fabric.topology);
  TDO_RETURN_IF_ERROR(fabric.runtime->init(0));
  auto& runtime = *fabric.runtime;

  const std::uint64_t elems_b = cfg.k * cfg.n;
  const std::vector<float> b_data = random_matrix(elems_b, 1.0, 11);
  const std::vector<float> a_data = random_matrix(cfg.m * cfg.k, 1.0, 12);
  auto va_b = fabric.upload(b_data);
  if (!va_b.is_ok()) return va_b.status();
  auto va_a = fabric.upload(a_data);
  if (!va_a.is_ok()) return va_a.status();
  auto va_c = fabric.upload(std::vector<float>(cfg.m * cfg.n, 0.0f));
  if (!va_c.is_ok()) return va_c.status();

  // Prime: one cacheable GEMM programs the tile on a near crossbar.
  TDO_RETURN_IF_ERROR(runtime.sgemm_async(
      cfg.m, cfg.n, cfg.k, 1.0f, *va_a, cfg.k, *va_b, cfg.n, 0.0f, *va_c,
      cfg.n, tdo::cim::StationaryOperand::kB, /*cacheable=*/true));
  TDO_RETURN_IF_ERROR(runtime.synchronize());

  // The dispatch path's tile key for a single-tile stationary-B GEMM.
  auto pa_b = fabric.system.mmu().translate(*va_b);
  if (!pa_b.is_ok()) return pa_b.status();
  double max_abs = 0.0;
  for (const float v : b_data) {
    max_abs = std::max(max_abs, static_cast<double>(std::fabs(v)));
  }
  tdo::rt::WeightKey key;
  key.rect = tdo::rt::Rect{*pa_b, cfg.n * 4, cfg.n * 4, cfg.k};
  key.ld = cfg.n;
  key.scale = tdo::support::QuantScale::for_max_abs(max_abs).scale;
  key.layout = tdo::cim::StationaryOperand::kB;
  key.rows = static_cast<std::uint32_t>(cfg.k);
  key.cols = static_cast<std::uint32_t>(cfg.n);

  const int to_device = static_cast<int>(cfg.near);  // first far device
  const Duration t0 = fabric.system.global_time();
  TDO_RETURN_IF_ERROR(runtime.migrate_residency(key, to_device, peer_to_peer));
  TDO_RETURN_IF_ERROR(runtime.synchronize());
  MigrationResult result;
  result.elapsed = fabric.system.global_time() - t0;

  // The migrated tile must serve the next request as a hit on the far
  // device, with results matching the host reference.
  const auto& res = runtime.residency().counters();
  const std::uint64_t hits_before = res.hits.value();
  TDO_RETURN_IF_ERROR(runtime.sgemm_async(
      cfg.m, cfg.n, cfg.k, 1.0f, *va_a, cfg.k, *va_b, cfg.n, 0.0f, *va_c,
      cfg.n, tdo::cim::StationaryOperand::kB, /*cacheable=*/true));
  TDO_RETURN_IF_ERROR(runtime.synchronize());
  result.adopted =
      res.hits.value() > hits_before && res.migrations.value() == 1;

  const auto correct = fabric.matches_gemm(*va_c, a_data, b_data, cfg.m,
                                           cfg.n, cfg.k, 0.5);
  if (!correct.is_ok()) return correct.status();
  result.correct = *correct;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t requests = 64;
  std::size_t weight_sets = 6;
  std::string trace_path;
  tdo::topo::TopologySpec spec;
  spec.near = 2;
  spec.far = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    bool ok = arg != "--help" && i + 1 < argc;
    if (ok) {
      const char* value = argv[++i];
      if (arg == "--trace") {
        trace_path = value;
      } else if (arg == "--requests") {
        const auto count = parse_count(value, 1, kMaxFlagCount);
        ok = count.has_value();
        if (ok) requests = *count;
      } else if (arg == "--weight-sets") {
        const auto count = parse_count(value, 1, kMaxFlagCount);
        ok = count.has_value();
        if (ok) weight_sets = *count;
      } else if (arg == "--topology") {
        const auto parsed = tdo::topo::parse_topology_spec(value);
        ok = parsed.has_value();
        if (ok) spec = *parsed;
      } else {
        ok = false;
      }
      if (!ok) std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), value);
    }
    if (!ok) {
      std::printf(
          "usage: bench_sweep_topology [--smoke] [--requests R] "
          "[--weight-sets W] [--topology near:N,far:M[xL]] "
          "[--trace out.json]\n");
      return arg == "--help" ? 0 : 1;
    }
  }
  if (spec.far == 0) {
    std::fprintf(stderr, "the sweep needs at least one far device\n");
    return 1;
  }
  tdo::benchutil::TraceSession trace{trace_path};
  using tdo::support::TextTable;

  const std::vector<double> multipliers =
      smoke ? std::vector<double>{4.0} : std::vector<double>{1.5, 2.0, 4.0, 8.0};
  const std::vector<std::size_t> loads =
      smoke ? std::vector<std::size_t>{12} : std::vector<std::size_t>{16, requests};

  TextTable table(
      "Topology sweep - near crossbars vs far CIM pool, aware vs blind "
      "placement");
  table.set_header({"Link x", "Requests", "Placement", "p99", "Mean",
                    "Runtime", "EDP", "Near jobs", "Far jobs", "Link cont.",
                    "Withheld", "Correct"});

  bool gates_ok = true;
  tdo::benchutil::Json points = tdo::benchutil::Json::array();
  for (const double mult : multipliers) {
    for (const std::size_t load : loads) {
      TopoResult results[2];
      for (const bool aware : {false, true}) {
        TopoConfig cfg;
        cfg.near = spec.near;
        cfg.far = spec.far;
        cfg.mult = mult;
        cfg.aware = aware;
        cfg.weight_sets = smoke ? 4 : weight_sets;
        cfg.requests = load;
        const auto result = run_serving(cfg);
        if (!result.is_ok()) {
          std::cerr << result.status().to_string() << "\n";
          return 1;
        }
        results[aware ? 1 : 0] = *result;
        char linkx[32], edp[32];
        std::snprintf(linkx, sizeof linkx, "%.1f", mult);
        std::snprintf(edp, sizeof edp, "%.3e", result->edp);
        table.add_row({linkx, std::to_string(load),
                       aware ? "aware" : "blind",
                       result->p99.to_string(), result->mean.to_string(),
                       result->runtime.to_string(), edp,
                       std::to_string(result->near_jobs),
                       std::to_string(result->far_jobs),
                       std::to_string(result->link_contended_ticks),
                       std::to_string(result->withheld_responses),
                       result->correct ? "yes" : "NO"});
        gates_ok = gates_ok && result->correct;
        {
          using tdo::benchutil::Json;
          Json p = Json::object();
          p.set("link_multiplier", Json::number(mult));
          p.set("requests", Json::number(static_cast<std::uint64_t>(load)));
          p.set("aware", Json::boolean(aware));
          p.set("p99_us", Json::number(result->p99.microseconds()));
          p.set("mean_us", Json::number(result->mean.microseconds()));
          p.set("runtime_s", Json::number(result->runtime.seconds()));
          p.set("edp", Json::number(result->edp));
          p.set("near_jobs", Json::number(result->near_jobs));
          p.set("far_jobs", Json::number(result->far_jobs));
          p.set("link_contended_ticks",
                Json::number(result->link_contended_ticks));
          p.set("correct", Json::boolean(result->correct));
          points.push(std::move(p));
        }
      }
      if (mult >= 3.0) {
        // The placement gate: past 3x link latency, topology-aware placement
        // must strictly beat blind round-robin on tail latency and EDP.
        const TopoResult& blind = results[0];
        const TopoResult& aware = results[1];
        if (aware.p99.ticks() >= blind.p99.ticks()) {
          std::fprintf(stderr,
                       "GATE FAILED: aware p99 %s !< blind p99 %s at %.1fx\n",
                       aware.p99.to_string().c_str(),
                       blind.p99.to_string().c_str(), mult);
          gates_ok = false;
        }
        if (aware.edp >= blind.edp) {
          std::fprintf(stderr,
                       "GATE FAILED: aware EDP %.3e !< blind EDP %.3e at "
                       "%.1fx\n",
                       aware.edp, blind.edp, mult);
          gates_ok = false;
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nNear crossbars absorb work until their queues run ~L jobs "
               "deep; only the spill rides the far pool, so the aware rows "
               "keep the tail on near silicon while blind round-robin pays "
               "the link on half its requests.\n\n";

  // --- migration: peer-to-peer vs host-bounce ---
  TextTable migration_table("Residency migration near->far, one weight tile");
  migration_table.set_header(
      {"Path", "Migrated latency", "Adopted", "Correct"});
  Duration elapsed[2];
  for (const bool p2p : {false, true}) {
    TopoConfig cfg;
    cfg.near = 1;
    cfg.far = 1;
    cfg.mult = smoke ? 4.0 : multipliers.back();
    const auto result = run_migration(cfg, p2p);
    if (!result.is_ok()) {
      std::cerr << result.status().to_string() << "\n";
      return 1;
    }
    elapsed[p2p ? 1 : 0] = result->elapsed;
    migration_table.add_row({p2p ? "peer-to-peer" : "host-bounce",
                             result->elapsed.to_string(),
                             result->adopted ? "yes" : "NO",
                             result->correct ? "yes" : "NO"});
    gates_ok = gates_ok && result->adopted && result->correct;
  }
  migration_table.print(std::cout);
  if (elapsed[1].ticks() >= elapsed[0].ticks()) {
    std::fprintf(stderr,
                 "GATE FAILED: P2P migration %s !< host-bounce %s\n",
                 elapsed[1].to_string().c_str(),
                 elapsed[0].to_string().c_str());
    gates_ok = false;
  }
  std::cout << "\nPeer-to-peer migration moves the tile in one dev->dev hop; "
               "the host-bounce reference serializes two transfers through a "
               "host staging buffer and drains between them.\n";

  {
    using tdo::benchutil::Json;
    Json results = Json::object();
    results.set("points", std::move(points));
    Json migration = Json::object();
    migration.set("host_bounce_us", Json::number(elapsed[0].microseconds()));
    migration.set("peer_to_peer_us", Json::number(elapsed[1].microseconds()));
    results.set("migration", std::move(migration));
    results.set("ok", Json::boolean(gates_ok));
    tdo::benchutil::write_bench_json("sweep_topology", std::move(results));
  }

  if (!gates_ok) {
    std::cerr << "FAILED: a topology gate did not hold\n";
    return 1;
  }
  return 0;
}
