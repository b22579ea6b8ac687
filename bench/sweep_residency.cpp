// Sweep: weight-residency cache capacity x accelerators on a serving loop.
//
// Models the ROADMAP's repeated-inference scenario: W distinct weight sets
// (stationary B matrices resident on device), a stream of requests whose
// weight-set choice follows a Zipf distribution (a few hot models take most
// of the traffic, a long tail takes the rest), each request a GEMM against
// its weight set. Without the residency cache every request reprograms the
// crossbar; with it, hot weight sets stay programmed and requests route to
// the accelerator that holds them.
//
// For each {capacity x accelerators x cache on/off} configuration the sweep
// prints the hit rate, crossbar weight writes (performed vs saved), runtime,
// EDP, and the PCM lifetime extension factor Eq. (1) attributes to the
// avoided writes.
//
// `--smoke` runs a single tiny configuration (CI bench-rot guard).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cim/accelerator.hpp"
#include "pcm/endurance.hpp"
#include "runtime/cim_blas.hpp"
#include "sim/system.hpp"
#include "topo/topology.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using tdo::benchutil::kMaxFlagCount;
using tdo::benchutil::parse_count;
using tdo::benchutil::parse_real;
using tdo::benchutil::ZipfSampler;
using tdo::benchutil::random_matrix;
using tdo::support::Duration;
using tdo::support::Energy;

struct LoopConfig {
  std::size_t accelerators = 1;
  std::uint32_t capacity_rows = 0;  // 0 = full crossbar
  bool cache = true;
  std::size_t weight_sets = 8;
  std::size_t requests = 64;
  std::uint64_t m = 32, n = 64, k = 64;
  double zipf_s = 1.0;
  /// Two-tier fabric (--topology near:N,far:M[xL]); nullopt = flat fleet.
  std::optional<tdo::topo::TopologySpec> topology;
};

struct LoopResult {
  double hit_rate = 0.0;
  std::uint64_t weight_writes = 0;
  std::uint64_t weight_writes_saved = 0;
  std::uint64_t evictions = 0;
  Duration runtime;
  double edp = 0.0;
  double lifetime_x = 1.0;
  bool correct = true;
  std::uint64_t near_jobs = 0;  ///< per-tier occupancy (--dump columns)
  std::uint64_t far_jobs = 0;
  std::uint64_t link_contended = 0;
  std::uint64_t withheld = 0;
};

[[nodiscard]] tdo::support::StatusOr<LoopResult> run_loop(const LoopConfig& cfg) {
  tdo::rt::RuntimeConfig rt_config;
  rt_config.stream.depth = 2;
  rt_config.residency.enabled = cfg.cache;
  rt_config.residency.capacity_rows = cfg.capacity_rows;
  tdo::topo::TopologySpec flat;
  flat.near = cfg.accelerators;
  tdo::benchutil::Fabric fabric{cfg.topology.value_or(flat), rt_config};
  if (cfg.topology.has_value()) {
    fabric.runtime->set_topology(&fabric.topology);
  }
  TDO_RETURN_IF_ERROR(fabric.runtime->init(0));

  const std::uint64_t elems_b = cfg.k * cfg.n;
  const std::uint64_t elems_a = cfg.m * cfg.k;
  const std::uint64_t elems_c = cfg.m * cfg.n;
  // W weight sets, plus a small rotating pool of request inputs/outputs so
  // consecutive requests do not collide on C (the serving analogue of
  // per-request activation buffers) and the stream can pipeline.
  std::vector<tdo::sim::VirtAddr> weights(cfg.weight_sets);
  std::vector<std::vector<float>> weight_data(cfg.weight_sets);
  for (std::size_t w = 0; w < cfg.weight_sets; ++w) {
    weight_data[w] = random_matrix(elems_b, 1.0, 100 + w);
    auto va = fabric.upload(weight_data[w]);
    if (!va.is_ok()) return va.status();
    weights[w] = *va;
  }
  constexpr std::size_t kPool = 4;
  const std::vector<float> input = random_matrix(elems_a, 1.0, 7);
  std::vector<tdo::sim::VirtAddr> va_a(kPool), va_c(kPool);
  for (std::size_t p = 0; p < kPool; ++p) {
    auto a = fabric.upload(input);
    if (!a.is_ok()) return a.status();
    va_a[p] = *a;
    auto c = fabric.upload(std::vector<float>(elems_c, 0.0f));
    if (!c.is_ok()) return c.status();
    va_c[p] = *c;
  }

  ZipfSampler zipf{cfg.weight_sets, cfg.zipf_s, 42};
  std::size_t last_w = 0;
  std::size_t last_pool = 0;

  const auto before = fabric.system.snapshot();
  const Duration t0 = fabric.system.global_time();
  for (std::size_t r = 0; r < cfg.requests; ++r) {
    const std::size_t w = zipf.next();
    const std::size_t pool = r % kPool;
    TDO_RETURN_IF_ERROR(fabric.runtime->sgemm_async(
        cfg.m, cfg.n, cfg.k, 1.0f, va_a[pool], cfg.k, weights[w], cfg.n, 0.0f,
        va_c[pool], cfg.n, tdo::cim::StationaryOperand::kB,
        /*cacheable=*/true));
    last_w = w;
    last_pool = pool;
  }
  TDO_RETURN_IF_ERROR(fabric.runtime->synchronize());
  const Duration t1 = fabric.system.global_time();
  const auto delta = fabric.system.snapshot().delta_since(before);

  LoopResult result;
  result.runtime = t1 - t0;
  auto report = fabric.accels.front()->report();
  for (std::size_t i = 1; i < fabric.accels.size(); ++i) {
    const auto rep = fabric.accels[i]->report();
    report.weight_writes8 += rep.weight_writes8;
    report.weight_writes_saved8 += rep.weight_writes_saved8;
  }
  for (std::size_t i = 0; i < fabric.accels.size(); ++i) {
    if (fabric.topology.tier(i) == tdo::topo::Topology::kFarTier) {
      result.far_jobs += fabric.accels[i]->jobs_completed();
    } else {
      result.near_jobs += fabric.accels[i]->jobs_completed();
    }
  }
  if (fabric.far_link) {
    result.link_contended = fabric.far_link->contended_ticks();
    result.withheld = fabric.far_link->responses();
  }
  result.weight_writes = report.weight_writes8;
  result.weight_writes_saved = report.weight_writes_saved8;
  const auto& res = fabric.runtime->residency().counters();
  result.evictions = res.evictions.value();
  const std::uint64_t hits = res.hits.value();
  const std::uint64_t lookups = hits + res.misses.value();
  result.hit_rate = lookups == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(lookups);
  Energy energy;
  for (const auto& [name, pj] : delta.energies_pj) {
    (void)name;
    energy += Energy::from_pj(pj);
  }
  result.edp = tdo::support::energy_delay_product(energy, result.runtime);
  result.lifetime_x = tdo::pcm::lifetime_extension(result.weight_writes,
                                                   result.weight_writes_saved);

  // Validate the last request against a host reference (quantization-level
  // tolerance).
  const auto correct = fabric.matches_gemm(
      va_c[last_pool], input, weight_data[last_w], cfg.m, cfg.n, cfg.k, 0.5);
  if (!correct.is_ok()) return correct.status();
  result.correct = *correct;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Capacity-planning knobs (ROADMAP follow-up): the Zipf skew, weight-set
  // universe, and request count are CLI flags so the sweep doubles as a
  // what-if tool for sizing per-accelerator row capacity under a workload's
  // real popularity curve.
  bool smoke = false;
  bool dump = false;
  double alpha = 1.0;
  std::size_t weight_sets = 8;
  std::size_t requests = 64;
  std::string trace_path;
  std::optional<tdo::topo::TopologySpec> topology;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg == "--dump") {
      dump = true;
      continue;
    }
    bool ok = arg != "--help" && i + 1 < argc;
    if (ok) {
      const char* value = argv[++i];
      if (arg == "--trace") {
        trace_path = value;
      } else if (arg == "--alpha") {
        const auto parsed = parse_real(value, /*positive=*/false);
        ok = parsed.has_value();
        if (ok) alpha = *parsed;
      } else if (arg == "--weight-sets") {
        const auto count = parse_count(value, 1, kMaxFlagCount);
        ok = count.has_value();
        if (ok) weight_sets = *count;
      } else if (arg == "--requests") {
        const auto count = parse_count(value, 1, kMaxFlagCount);
        ok = count.has_value();
        if (ok) requests = *count;
      } else if (arg == "--topology") {
        const auto spec = tdo::topo::parse_topology_spec(value);
        ok = spec.has_value() && spec->device_count() > 0;
        if (ok) topology = *spec;
      } else {
        ok = false;
      }
      if (!ok) std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), value);
    }
    if (!ok) {
      std::printf(
          "usage: bench_sweep_residency [--smoke] [--dump] [--alpha Z] "
          "[--weight-sets W]\n"
          "       [--requests R] [--topology near:N,far:M[xL]] "
          "[--trace out.json]\n");
      return arg == "--help" ? 0 : 1;
    }
  }
  tdo::benchutil::TraceSession trace{trace_path};
  using tdo::support::TextTable;

  std::vector<std::size_t> accel_counts = smoke ? std::vector<std::size_t>{2}
                                                : std::vector<std::size_t>{1, 2, 4};
  // A topology spec fixes the fleet shape, so the accelerator-count
  // dimension collapses to that one configuration.
  if (topology.has_value()) accel_counts = {topology->device_count()};
  // Capacities in crossbar rows: 64 holds one 64-row tile per accelerator,
  // 128 two, 256 (the full crossbar) four.
  std::vector<std::uint32_t> capacities =
      smoke ? std::vector<std::uint32_t>{128}
            : std::vector<std::uint32_t>{64, 128, 0};

  char title[160];
  std::snprintf(title, sizeof title,
                "Residency sweep - serving loop, Zipf(%.2f) requests over "
                "%zu weight sets",
                alpha, weight_sets);
  TextTable table(title);
  std::vector<std::string> header{"Accels", "Cap rows", "Cache", "Hit rate",
                                  "Writes8", "Saved8", "Evictions", "Runtime",
                                  "EDP", "Lifetime x", "Correct"};
  if (dump) {
    // Per-tier queue/occupancy split (all jobs land near on a flat fleet).
    header.insert(header.end(),
                  {"Near jobs", "Far jobs", "Link cont.", "Withheld"});
  }
  table.set_header(header);

  bool all_correct = true;
  tdo::benchutil::Json points = tdo::benchutil::Json::array();
  for (const std::size_t accelerators : accel_counts) {
    for (const std::uint32_t capacity : capacities) {
      for (const bool cache : {false, true}) {
        LoopConfig cfg;
        cfg.accelerators = accelerators;
        cfg.capacity_rows = capacity;
        cfg.cache = cache;
        cfg.zipf_s = alpha;
        cfg.weight_sets = weight_sets;
        cfg.requests = smoke ? 12 : requests;
        cfg.topology = topology;
        const auto result = run_loop(cfg);
        if (!result.is_ok()) {
          std::cerr << result.status().to_string() << "\n";
          return 1;
        }
        char hit[32], edp[32], life[32];
        std::snprintf(hit, sizeof hit, "%.1f%%", result->hit_rate * 100.0);
        std::snprintf(edp, sizeof edp, "%.3e", result->edp);
        std::snprintf(life, sizeof life, "%.2f", result->lifetime_x);
        std::vector<std::string> row{std::to_string(accelerators),
                                     capacity == 0 ? "full"
                                                   : std::to_string(capacity),
                                     cache ? "on" : "off", hit,
                                     std::to_string(result->weight_writes),
                                     std::to_string(result->weight_writes_saved),
                                     std::to_string(result->evictions),
                                     result->runtime.to_string(), edp, life,
                                     result->correct ? "yes" : "NO"};
        if (dump) {
          row.insert(row.end(), {std::to_string(result->near_jobs),
                                 std::to_string(result->far_jobs),
                                 std::to_string(result->link_contended),
                                 std::to_string(result->withheld)});
        }
        table.add_row(row);
        all_correct = all_correct && result->correct;
        {
          using tdo::benchutil::Json;
          Json p = Json::object();
          p.set("accelerators",
                Json::number(static_cast<std::uint64_t>(accelerators)));
          p.set("capacity_rows",
                Json::number(static_cast<std::uint64_t>(capacity)));
          p.set("cache", Json::boolean(cache));
          p.set("hit_rate", Json::number(result->hit_rate));
          p.set("weight_writes8", Json::number(result->weight_writes));
          p.set("weight_writes_saved8",
                Json::number(result->weight_writes_saved));
          p.set("evictions", Json::number(result->evictions));
          p.set("runtime_s", Json::number(result->runtime.seconds()));
          p.set("edp", Json::number(result->edp));
          p.set("lifetime_x", Json::number(result->lifetime_x));
          p.set("correct", Json::boolean(result->correct));
          points.push(std::move(p));
        }
      }
    }
  }
  table.print(std::cout);

  {
    tdo::benchutil::Json results = tdo::benchutil::Json::object();
    results.set("points", std::move(points));
    results.set("ok", tdo::benchutil::Json::boolean(all_correct));
    tdo::benchutil::write_bench_json("sweep_residency", std::move(results));
  }

  std::cout << "\nHot weight sets stay programmed: the cache turns the "
               "Zipf head's reprogramming cost into hits, and affinity "
               "routing keeps each hot set pinned to one accelerator's "
               "crossbar rows.\n";
  if (!all_correct) {
    std::cerr << "FAILED: a configuration produced incorrect results\n";
    return 1;
  }
  return 0;
}
