// tdo_bench: measures the simulator in wall-clock time, end to end and per
// layer, on one workload per process.
//
// Usage:
//   tdo_bench --workload NAME [--seed N] [--trace-file PATH] [--smoke]
//
// A pass does its own set-up (timed as setup_s) and then a fixed amount of
// work (timed as wall_s). Each workload runs a fixed number of passes
// (WorkloadSpec::passes; --smoke: exactly one, on small inputs,
// cross-checked against the library's PolyBench harness). Pass times are
// reported as their 10th percentile over those passes (kPassTimeQuantile
// explains why), everything else as medians. The result is one JSON
// document on stdout; benchmark/run.py builds this program, runs it and
// prints the metrics.
//
// With --trace-file, odd passes run with the span recorder on (spans.hpp):
// per-layer wall times and self times come from those passes, end-to-end
// times from the untraced ones, and the first traced pass is written to the
// file as Chrome trace JSON.
//
// Workloads (README.md explains why each exists):
//   pb_host      all 7 PolyBench kernels, host-only program (the -O3 bar)
//   pb_cim_gemm  gemm, 2mm, 3mm, conv through the full TDO-CIM flow
//   pb_cim_gemv  gesummv, bicg, mvt through the full TDO-CIM flow
//   serve_steady open-loop serving, jittered arrivals at 20k req/s
//   serve_bursty same fleet and mean rate, 2 ms at 60k / 6 ms at 6.7k req/s
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cim/accelerator.hpp"
#include "core/pipeline.hpp"
#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "frontend/parser.hpp"
#include "polybench/harness.hpp"
#include "polybench/workloads.hpp"
#include "runtime/cim_blas.hpp"
#include "serve/scheduler.hpp"
#include "sim/system.hpp"
#include "spans.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "topo/topology.hpp"

#ifndef TDO_BENCH_BUILD_TYPE
#define TDO_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef TDO_BENCH_COMPILER
#define TDO_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace tdo;
using tdo_bench::Layer;
using tdo_bench::SpanRecorder;
using Clock = std::chrono::steady_clock;
using support::Duration;

SpanRecorder g_spans;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload definitions ---------------------------------------------------

enum class Kind { kPbHost, kPbCim, kServe };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Fixed, so two builds compute every statistic over the same number of
  /// samples (and the serve workloads over the same traffic variants). Sized
  /// so one workload process takes about 10 to 30 s on a 4-vCPU Xeon VM.
  std::size_t passes;
  std::vector<std::string> kernels;  // PolyBench workloads
  bool bursty = false;               // serve workloads
};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs{
      {"pb_host", Kind::kPbHost, 3,
       {"2mm", "3mm", "gemm", "conv", "gesummv", "bicg", "mvt"}},
      {"pb_cim_gemm", Kind::kPbCim, 5, {"gemm", "2mm", "3mm", "conv"}},
      {"pb_cim_gemv", Kind::kPbCim, 64, {"gesummv", "bicg", "mvt"}},
      {"serve_steady", Kind::kServe, 16, {}, false},
      {"serve_bursty", Kind::kServe, 20, {}, true},
  };
  return specs;
}

// Serving fleet and traffic (README.md, "Workloads").
constexpr std::size_t kNearDevices = 2;
constexpr std::size_t kFarDevices = 2;
constexpr double kFarMultiplier = 3.0;
constexpr std::size_t kStreamDepth = 2;
constexpr std::size_t kTenants = 16;
constexpr std::size_t kClientsPerTenant = 4;
constexpr std::size_t kWeightSets = 16;
constexpr double kZipfAlpha = 1.0;
constexpr std::uint64_t kM = 1, kN = 64, kK = 64;
constexpr std::size_t kOutputPool = 6;  // rotating outputs per client
constexpr std::size_t kCheckEvery = 16;  // one checked request per 16
constexpr double kMeanRateRps = 20000.0;
constexpr double kBurstRateRps = 60000.0;
constexpr double kBurstUs = 2000.0;
constexpr double kQuietUs = 6000.0;
constexpr std::size_t kServeRequests = 10000;
constexpr std::size_t kSmokeServeRequests = 2000;
constexpr double kSloUs = 500.0;
constexpr std::size_t kLadderRequests = 5000;
constexpr double kLadderRps[] = {10e3, 15e3, 20e3, 25e3, 30e3, 35e3, 40e3};
/// Backlog floor for the ladder's growth test: one full batch of slack.
constexpr std::uint64_t kBacklogFloor = 8;

// --- metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every metric the benchmark reports, in output order. BENCHMARK.json
/// mirrors the names and units; run.py checks that the two agree.
constexpr MetricDef kMetrics[] = {
    // end to end (untraced passes)
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"fail_frac", "fraction"},
    // simulated-clock results of the modeled machine
    {"sim_runtime_us", "us"},
    {"sim_edp_js", "J.s"},
    {"sim_p50_us", "us"},
    {"sim_p99_us", "us"},
    {"sim_interactive_p99_us", "us"},
    {"sim_slo_frac", "fraction"},
    {"sim_max_rps", "req/s"},
    // compile
    {"compile.parse_us", "us"},
    {"compile.compile_us", "us"},
    {"compile.kernels_detected", "count"},
    {"compile.fusion_groups", "count"},
    {"compile.kernels_tiled", "count"},
    {"compile.program_items", "count"},
    // host
    {"host.run_s", "s"},
    {"host.sim_minst", "Minst"},
    {"host.ns_per_inst", "ns"},
    {"host.io_ms", "ms"},
    {"host.platform_ms", "ms"},
    {"host.l1d_miss_ratio", "fraction"},
    {"host.l2_misses", "count"},
    {"host.stall_cycles", "count"},
    {"host.dram_accesses", "count"},
    // runtime
    {"runtime.cim_run_s", "s"},
    {"runtime.commands", "count"},
    {"runtime.cpu_fallbacks", "count"},
    {"runtime.hazard_syncs", "count"},
    {"runtime.copy_kib", "KiB"},
    {"runtime.host_copies", "count"},
    {"runtime.ioctls", "count"},
    {"runtime.cache_flushes", "count"},
    {"runtime.residency_hit_ratio", "fraction"},
    {"runtime.us_per_command", "us"},
    // device
    {"device.jobs", "count"},
    {"device.jobs_failed", "count"},
    {"device.macs", "count"},
    {"device.weight_writes", "count"},
    {"device.macs_per_write", "ratio"},
    {"device.ns_per_mac", "ns"},
    {"device.ns_per_write", "ns"},
    {"device.dma_contended_ticks", "tick"},
    {"device.overlapped_copy_kib", "KiB"},
    // serve
    {"serve.submit_ms", "ms"},
    {"serve.pump_s", "s"},
    {"serve.advance_ms", "ms"},
    {"serve.pumps", "count"},
    {"serve.idle_pump_ratio", "fraction"},
    {"serve.launches", "count"},
    {"serve.mean_batch", "requests"},
    {"serve.affinity_ratio", "fraction"},
    {"serve.far_routed", "count"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.queue_p99_us", "us"},
    {"serve.gen_lag_max_us", "us"},
    {"topo.link_contended_ticks", "tick"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    // traced passes
    {"trace.compile.self_s", "s"},
    {"trace.host.self_s", "s"},
    {"trace.runtime.self_s", "s"},
    {"trace.device.self_s", "s"},
    {"trace.serve.self_s", "s"},
    {"trace.coverage_frac", "fraction"},
    {"trace_overhead_frac", "fraction"},
};

/// Per-layer wall metrics: the summed duration of spans with a given name,
/// scaled to the metric's unit.
struct SpanMetric {
  std::string_view span;
  const char* metric;
  double scale;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"frontend::parse_kernel", "compile.parse_us", 1e6},
    {"core::compile", "compile.compile_us", 1e6},
    {"Interpreter::run(host)", "host.run_s", 1.0},
    {"Interpreter::prepare", "host.io_ms", 1e3},
    {"Interpreter::set_array", "host.io_ms", 1e3},
    {"Interpreter::get_array", "host.io_ms", 1e3},
    {"check_outputs", "host.io_ms", 1e3},
    {"sim::System", "host.platform_ms", 1e3},
    {"cim::Accelerator", "host.platform_ms", 1e3},
    {"rt::CimRuntime", "host.platform_ms", 1e3},
    {"Interpreter::run(cim)", "runtime.cim_run_s", 1.0},
    {"Scheduler::submit", "serve.submit_ms", 1e3},
    {"Scheduler::pump", "serve.pump_s", 1.0},
    {"Scheduler::advance_to_next_event", "serve.advance_ms", 1e3},
};

/// Metrics that only traced passes measure (medians over traced passes).
[[nodiscard]] bool traced_only(std::string_view name) {
  if (name.starts_with("trace") || name == "host.ns_per_inst" ||
      name == "runtime.us_per_command" || name == "device.ns_per_mac" ||
      name == "device.ns_per_write") {
    return true;
  }
  for (const auto& m : kSpanMetrics) {
    if (name == m.metric) return true;
  }
  return false;
}

using Values = std::map<std::string, double>;

/// FNV-1a over every simulated output of a pass (the determinism guard).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
    add(std::uint64_t{s.size()});
  }
  void add(const support::StatsSnapshot& s) {
    for (const auto& [name, value] : s.counters) {
      add(name);
      add(value);
    }
    for (const auto& [name, pj] : s.energies_pj) {
      add(name);
      add(pj);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  bool traced = false;
  std::uint64_t variant = 0;  // traffic variant (serve workloads)
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Values values;  // per-pass metric values and raw counters ("raw.*")

  void fail(std::string message) {
    failed += 1;
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
};

/// The add_*_counters functions accumulate the ROI counter deltas the
/// per-layer metrics are built from. A workload calls only those of the
/// layers it drives, so its result carries no counts of layers it never
/// calls.
[[nodiscard]] double counter(const support::StatsSnapshot& d,
                             const std::string& name) {
  return static_cast<double>(d.counter_or(name));
}

void add_host_counters(const support::StatsSnapshot& d, Values& v) {
  v["raw.host.instructions"] += counter(d, "host.instructions");
  v["raw.l1d.hits"] += counter(d, "l1d.hits");
  v["raw.l1d.misses"] += counter(d, "l1d.misses");
  v["host.l2_misses"] += counter(d, "l2.misses");
  v["host.stall_cycles"] += counter(d, "host.stall_cycles");
  v["host.dram_accesses"] += counter(d, "mem.dram_accesses");
}

/// Runtime and device counts. `accels` are the stats prefixes of the
/// accelerator instances.
void add_offload_counters(const support::StatsSnapshot& d,
                          const std::vector<std::string>& accels, Values& v) {
  const auto c = [&](const std::string& name) { return counter(d, name); };
  v["runtime.commands"] += c("stream.enqueued");
  v["runtime.cpu_fallbacks"] += c("stream.cpu_fallbacks");
  v["runtime.hazard_syncs"] += c("stream.hazard_syncs");
  v["runtime.copy_kib"] += c("stream.copy_bytes") / 1024.0;
  v["runtime.host_copies"] += c("xfer.host_copies");
  v["runtime.ioctls"] += c("driver.ioctls");
  v["runtime.cache_flushes"] += c("driver.cache_flushes");
  v["raw.residency.hits"] += c("residency.hits");
  v["raw.residency.misses"] += c("residency.misses");
  for (const std::string& p : accels) {
    v["device.jobs"] += c(p + ".jobs");
    v["device.jobs_failed"] += c(p + ".jobs_failed");
    v["device.dma_contended_ticks"] += c(p + ".dma.contended_copy_ticks");
    v["device.overlapped_copy_kib"] +=
        c(p + ".dma.overlapped_copy_bytes") / 1024.0;
  }
}

void add_serve_counters(const support::StatsSnapshot& d, Values& v) {
  const auto c = [&](const std::string& name) { return counter(d, name); };
  v["serve.launches"] += c("serve.launches");
  v["raw.serve.completed"] += c("serve.completed");
  v["raw.serve.affinity_routed"] += c("serve.affinity_routed");
  v["raw.serve.queue_routed"] += c("serve.queue_routed");
  v["serve.far_routed"] += c("serve.far_routed");
  v["serve.rejected"] += c("serve.rejected");
  v["serve.shed"] += c("serve.shed");
  v["topo.link_contended_ticks"] += c("farlink.contended_ticks");
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- PolyBench workloads ----------------------------------------------------

/// What one kernel run produced, kept for the digest and the smoke
/// cross-check against pb::run_host / pb::run_cim.
struct KernelOutcome {
  Duration runtime;
  support::StatsSnapshot delta;
  cim::AcceleratorReport accel;
  double max_abs_error = 0.0;
  bool correct = false;
};

/// One kernel through the flow of polybench/harness.cpp::run_program, with
/// one span per call into a layer. Returns an error message, or "".
std::string run_kernel(const pb::Workload& w, bool use_cim, Values& v,
                       KernelOutcome& out) {
  g_spans.set_item(w.name);
  auto fn = g_spans.call("frontend::parse_kernel", Layer::kCompile,
                         [&] { return frontend::parse_kernel(w.source); });
  if (!fn.is_ok()) return "parse: " + fn.status().to_string();

  exec::Program program;
  rt::RuntimeConfig rt_config;
  if (use_cim) {
    core::CompileResult compiled = g_spans.call(
        "core::compile", Layer::kCompile, [&] { return core::compile(*fn); });
    rt_config.stream.min_macs_per_write =
        std::max(rt_config.stream.min_macs_per_write,
                 compiled.stream_min_macs_per_write);
    v["compile.kernels_detected"] +=
        static_cast<double>(compiled.detection.kernels.size());
    v["compile.fusion_groups"] +=
        static_cast<double>(compiled.fusion_groups.size());
    for (const auto& r : compiled.reports) {
      v["compile.kernels_tiled"] += r.tiled ? 1.0 : 0.0;
    }
    v["compile.program_items"] +=
        static_cast<double>(compiled.cim_program.items.size());
    program = std::move(compiled.cim_program);
  } else {
    program = g_spans.call("exec::host_only_program", Layer::kHost,
                           [&] { return exec::host_only_program(*fn); });
  }

  auto system = g_spans.call("sim::System", Layer::kHost,
                             [] { return std::make_unique<sim::System>(); });
  auto accel = g_spans.call("cim::Accelerator", Layer::kDevice, [&] {
    return std::make_unique<cim::Accelerator>(cim::AcceleratorParams{},
                                              *system);
  });
  auto runtime = g_spans.call("rt::CimRuntime", Layer::kRuntime, [&] {
    return std::make_unique<rt::CimRuntime>(rt_config, *system, *accel);
  });
  exec::Interpreter interp{*system, use_cim ? runtime.get() : nullptr};
  support::Status st = g_spans.call("Interpreter::prepare", Layer::kHost,
                                    [&] { return interp.prepare(program); });
  if (!st.is_ok()) return "prepare: " + st.to_string();
  for (const auto& [name, data] : w.inputs) {
    st = g_spans.call("Interpreter::set_array", Layer::kHost,
                      [&] { return interp.set_array(name, data); });
    if (!st.is_ok()) return "set_array: " + st.to_string();
  }

  const auto before = g_spans.call("System::snapshot", Layer::kHost,
                                   [&] { return system->snapshot(); });
  const Duration t0 = system->global_time();
  st = use_cim ? g_spans.call("Interpreter::run(cim)", Layer::kRuntime,
                              [&] { return interp.run(program); })
               : g_spans.call("Interpreter::run(host)", Layer::kHost,
                              [&] { return interp.run(program); });
  if (!st.is_ok()) return "run: " + st.to_string();
  const Duration t1 = system->global_time();
  out.delta = g_spans
                  .call("System::snapshot", Layer::kHost,
                        [&] { return system->snapshot(); })
                  .delta_since(before);
  out.runtime = t1 - t0;
  out.accel = accel->report();
  // A host-only program never schedules an event.
  if (use_cim) {
    v["sim.events"] += static_cast<double>(system->events().executed());
  }

  for (const std::string& name : w.outputs) {
    auto got = g_spans.call("Interpreter::get_array", Layer::kHost,
                            [&] { return interp.get_array(name); });
    if (!got.is_ok()) return "get_array: " + got.status().to_string();
    const auto& expected = w.expected.at(name);
    if (got->size() != expected.size()) return "output size mismatch on " + name;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      out.max_abs_error = std::max(
          out.max_abs_error,
          static_cast<double>(std::fabs((*got)[i] - expected[i])));
    }
  }
  out.correct = out.max_abs_error <= w.tolerance;
  return "";
}

struct PbPass {
  PassResult result;
  std::map<std::string, KernelOutcome> kernels;
};

PbPass run_pb_pass(const WorkloadSpec& spec, pb::Preset preset,
                   std::mt19937_64& order_rng) {
  const bool use_cim = spec.kind == Kind::kPbCim;
  PbPass pass;
  PassResult& r = pass.result;

  const auto setup_start = Clock::now();
  std::vector<pb::Workload> workloads;
  {
    const SpanRecorder::Scope root{g_spans, "setup", Layer::kBench};
    for (const std::string& name : spec.kernels) {
      auto w = g_spans.call("pb::make_workload", Layer::kBench,
                            [&] { return pb::make_workload(name, preset); });
      if (!w.is_ok()) {
        r.fail(name + ": " + w.status().to_string());
        return pass;
      }
      workloads.push_back(std::move(*w));
    }
  }
  r.setup_s = seconds_since(setup_start);

  // The seed permutes the kernel order; each kernel gets a fresh platform,
  // so simulated outputs do not depend on the order.
  std::vector<std::size_t> order(workloads.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), order_rng);

  const auto work_start = Clock::now();
  {
    const SpanRecorder::Scope root{g_spans, "work", Layer::kBench};
    for (const std::size_t i : order) {
      const pb::Workload& w = workloads[i];
      KernelOutcome out;
      r.attempted += 1;
      const std::string error = run_kernel(w, use_cim, r.values, out);
      if (!error.empty()) {
        r.fail(w.name + ": " + error);
        continue;
      }
      if (!out.correct) {
        r.fail(w.name + ": max abs error " + std::to_string(out.max_abs_error) +
               " > tolerance " + std::to_string(w.tolerance));
      }
      add_host_counters(out.delta, r.values);
      if (use_cim) {
        add_offload_counters(out.delta, {"cim"}, r.values);
        r.values["raw.device.macs"] += static_cast<double>(out.accel.mac8_ops);
        r.values["raw.device.writes"] +=
            static_cast<double>(out.accel.weight_writes8);
      }
      pass.kernels.emplace(w.name, std::move(out));
    }
  }
  r.wall_s = seconds_since(work_start);

  // Name order, not run order, so the results are bit-identical per seed.
  double log_runtime = 0.0;
  double log_edp = 0.0;
  Digest digest;
  for (const auto& [name, out] : pass.kernels) {
    double energy_pj = 0.0;
    for (const auto& [sink, pj] : out.delta.energies_pj) energy_pj += pj;
    log_runtime += std::log(out.runtime.microseconds());
    log_edp += std::log(energy_pj * 1e-12 * out.runtime.seconds());
    digest.add(name);
    digest.add(std::uint64_t{out.runtime.ticks()});
    digest.add(out.delta);
    digest.add(out.max_abs_error);
  }
  r.digest = digest.value();
  if (!pass.kernels.empty()) {
    const auto n = static_cast<double>(pass.kernels.size());
    r.values["sim_runtime_us"] = std::exp(log_runtime / n);
    r.values["sim_edp_js"] = std::exp(log_edp / n);
  }
  return pass;
}

/// Smoke-mode guard: the benchmark's replicated flow must reproduce the
/// library harness exactly, or the layer split above measures a different
/// program than the one the paper figures come from.
void cross_check_harness(const WorkloadSpec& spec, pb::Preset preset,
                         PbPass& pass) {
  PassResult& r = pass.result;
  for (const auto& [name, mine] : pass.kernels) {
    auto w = pb::make_workload(name, preset);
    if (!w.is_ok()) {
      r.fail("cross-check " + name + ": " + w.status().to_string());
      continue;
    }
    auto ref = spec.kind == Kind::kPbCim ? pb::run_cim(*w) : pb::run_host(*w);
    if (!ref.is_ok()) {
      r.fail("cross-check " + name + ": " + ref.status().to_string());
      continue;
    }
    double energy_pj = 0.0;
    for (const auto& [n, pj] : mine.delta.energies_pj) energy_pj += pj;
    const auto& d = mine.delta;
    const bool same =
        ref->runtime.ticks() == mine.runtime.ticks() &&
        ref->total_energy.picojoules() == energy_pj &&
        ref->host_instructions == d.counter_or("host.instructions") &&
        ref->mac_ops == mine.accel.mac8_ops &&
        ref->cim_writes == mine.accel.weight_writes8 &&
        ref->stream_commands == d.counter_or("stream.enqueued") &&
        ref->stream_fallbacks == d.counter_or("stream.cpu_fallbacks") &&
        ref->copy_bytes == d.counter_or("stream.copy_bytes") &&
        ref->host_copies == d.counter_or("xfer.host_copies") &&
        ref->hazard_syncs == d.counter_or("stream.hazard_syncs") &&
        ref->residency_hits == d.counter_or("residency.hits") &&
        ref->residency_misses == d.counter_or("residency.misses") &&
        ref->max_abs_error == mine.max_abs_error;
    if (!same) r.fail("cross-check " + name + ": differs from the harness");
  }
}

// --- serving workloads -------------------------------------------------------

/// Zipf(alpha) over {0, ..., count-1} by inverse CDF (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t count, double alpha) {
    double total = 0.0;
    for (std::size_t i = 1; i <= count; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), alpha);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  [[nodiscard]] std::size_t draw(support::Rng& rng) const {
    const double u = rng.uniform(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Four accelerators, two near and two behind one shared far link.
struct Fleet {
  std::unique_ptr<sim::System> system;
  std::unique_ptr<topo::Link> link;
  topo::Topology topology;
  std::vector<std::unique_ptr<cim::Accelerator>> accels;
  std::vector<std::string> prefixes;
  std::unique_ptr<rt::CimRuntime> runtime;

  support::Status bring_up() {
    system = g_spans.call("sim::System", Layer::kHost,
                          [] { return std::make_unique<sim::System>(); });
    topo::LinkParams lp;
    lp.latency_multiplier = kFarMultiplier;
    lp.name = "farlink";
    link = std::make_unique<topo::Link>(lp);
    link->register_stats(system->stats());
    for (std::size_t i = 0; i < kNearDevices + kFarDevices; ++i) {
      const bool far = i >= kNearDevices;
      auto params = cim::instance_params(cim::AcceleratorParams{}, i);
      if (far) {
        params.dma.bandwidth_bytes_per_sec /= kFarMultiplier;
        params.dma.burst_setup = Duration::from_ps(
            params.dma.burst_setup.picoseconds() * kFarMultiplier);
      }
      prefixes.push_back(params.name);
      accels.push_back(g_spans.call("cim::Accelerator", Layer::kDevice, [&] {
        return std::make_unique<cim::Accelerator>(params, *system);
      }));
      if (far) {
        accels.back()->set_response_link(link.get());
        topology.add_device(topo::Topology::kFarTier, link.get());
      } else {
        topology.add_device(topo::Topology::kNearTier);
      }
    }
    rt::RuntimeConfig config;
    config.stream.depth = kStreamDepth;
    runtime = g_spans.call("rt::CimRuntime", Layer::kRuntime, [&] {
      return std::make_unique<rt::CimRuntime>(config, *system,
                                              *accels.front());
    });
    for (std::size_t i = 1; i < accels.size(); ++i) {
      runtime->add_accelerator(*accels[i]);
    }
    runtime->set_topology(&topology);
    return g_spans.call("CimRuntime::init", Layer::kRuntime,
                        [&] { return runtime->init(0); });
  }

  support::StatusOr<sim::VirtAddr> upload(const std::vector<float>& data) {
    return g_spans.call("upload", Layer::kRuntime,
                        [&]() -> support::StatusOr<sim::VirtAddr> {
      auto va = runtime->malloc_device(data.size() * sizeof(float));
      if (!va.is_ok()) return va.status();
      auto pa = system->mmu().translate(*va);
      if (!pa.is_ok()) return pa.status();
      system->memory().write(
          *pa, std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                         data.size() * sizeof(float)));
      return *va;
    });
  }

  support::StatusOr<std::vector<float>> download(sim::VirtAddr va,
                                                 std::size_t count) const {
    auto pa = system->mmu().translate(va);
    if (!pa.is_ok()) return pa.status();
    std::vector<float> out(count);
    system->memory().read(
        *pa, std::span(reinterpret_cast<std::uint8_t*>(out.data()),
                       count * sizeof(float)));
    return out;
  }

  [[nodiscard]] cim::AcceleratorReport accel_totals() const {
    cim::AcceleratorReport total;
    for (const auto& a : accels) {
      const auto r = a->report();
      total.mac8_ops += r.mac8_ops;
      total.weight_writes8 += r.weight_writes8;
    }
    return total;
  }
};

struct Traffic {
  bool bursty = false;
  std::size_t requests = kServeRequests;
  double rate_rps = kMeanRateRps;  // steady traffic only
};

struct Arrival {
  Duration due;
  std::uint32_t client = 0;
  std::uint32_t weight = 0;
  std::int32_t checked = -1;  // index into the dedicated outputs, or -1
};

PassResult run_serve_pass(std::uint64_t seed, const Traffic& traffic) {
  PassResult r;
  const std::size_t clients = kTenants * kClientsPerTenant;
  Fleet fleet;
  std::vector<std::vector<float>> weights(kWeightSets);
  std::vector<std::vector<float>> activations(clients);
  std::vector<sim::VirtAddr> va_w, va_a, va_checked;
  std::vector<std::vector<sim::VirtAddr>> va_out(clients);
  std::vector<Arrival> schedule;
  std::optional<serve::Scheduler> scheduler;

  const auto setup_start = Clock::now();
  {
    const SpanRecorder::Scope root{g_spans, "setup", Layer::kBench};
    if (auto st = fleet.bring_up(); !st.is_ok()) {
      r.fail("bring-up: " + st.to_string());
      return r;
    }
    support::Rng values{mix_seed(seed, 3)};
    const auto random_vector = [&](std::size_t count) {
      std::vector<float> out(count);
      for (float& x : out) x = values.uniform_f(-1.0f, 1.0f);
      return out;
    };
    support::Status st;
    const auto keep = [&](support::StatusOr<sim::VirtAddr> va,
                          std::vector<sim::VirtAddr>& into) {
      if (!va.is_ok()) st = va.status();
      into.push_back(va.is_ok() ? *va : 0);
    };
    for (auto& w : weights) {
      w = random_vector(kK * kN);
      keep(fleet.upload(w), va_w);
    }
    for (std::size_t c = 0; c < clients; ++c) {
      activations[c] = random_vector(kM * kK);
      keep(fleet.upload(activations[c]), va_a);
      for (std::size_t p = 0; p < kOutputPool; ++p) {
        keep(fleet.upload(std::vector<float>(kM * kN, 0.0f)), va_out[c]);
      }
    }

    g_spans.call("schedule", Layer::kBench, [&] {
      const Zipf zipf{kWeightSets, kZipfAlpha};
      support::Rng zipf_rng{mix_seed(seed, 1)};
      support::Rng jitter{mix_seed(seed, 2)};
      support::Rng pick{mix_seed(seed, 4)};
      const double quiet_rps =
          (kMeanRateRps * (kBurstUs + kQuietUs) - kBurstRateRps * kBurstUs) /
          kQuietUs;
      double at_us = 1.0;
      std::size_t checked_in_block = 0;
      for (std::size_t i = 0; i < traffic.requests; ++i) {
        if (i % kCheckEvery == 0) {
          checked_in_block = static_cast<std::size_t>(
              pick.uniform_int(0, kCheckEvery - 1));
        }
        Arrival a;
        a.due = Duration::from_us(at_us);
        a.client = static_cast<std::uint32_t>(i % clients);
        a.weight = static_cast<std::uint32_t>(zipf.draw(zipf_rng));
        if (i % kCheckEvery == checked_in_block) {
          a.checked = static_cast<std::int32_t>(va_checked.size());
          keep(fleet.upload(std::vector<float>(kM * kN, 0.0f)), va_checked);
        }
        schedule.push_back(a);
        double rate = traffic.rate_rps;
        if (traffic.bursty) {
          rate = std::fmod(at_us, kBurstUs + kQuietUs) < kBurstUs
                     ? kBurstRateRps
                     : quiet_rps;
        }
        at_us += 1e6 / rate * jitter.uniform(0.5, 1.5);
      }
    });
    if (!st.is_ok()) {
      r.fail("upload: " + st.to_string());
      return r;
    }

    serve::SchedulerParams params;
    params.batcher.max_batch = 8;
    params.batcher.max_wait = Duration::from_us(25.0);
    params.admission.adaptive = false;
    params.admission.probe_period = 0;
    g_spans.call("serve::Scheduler", Layer::kServe,
                 [&] { scheduler.emplace(params, *fleet.runtime); });
  }
  r.setup_s = seconds_since(setup_start);

  sim::System& system = *fleet.system;
  const std::size_t total = schedule.size();
  const std::size_t warmup = total / 4;
  std::vector<serve::Completion> records;
  records.reserve(total);
  std::vector<std::uint32_t> index_of_id;
  std::vector<char> failed(total, 0);
  std::vector<std::size_t> sent_per_client(clients, 0);
  std::uint64_t submitted = 0, refused = 0, pumps = 0, idle_pumps = 0;
  std::uint64_t outstanding_half = 0, outstanding_last = 0;
  double gen_lag_max_us = 0.0;

  support::StatsSnapshot delta;
  cim::AcceleratorReport accel_before, accel_after;
  std::uint64_t events = 0;
  std::vector<std::vector<float>> checked_out(va_checked.size());
  const auto work_start = Clock::now();
  {
    const SpanRecorder::Scope root{g_spans, "work", Layer::kBench};
    const auto before = g_spans.call("System::snapshot", Layer::kHost,
                                     [&] { return system.snapshot(); });
    accel_before = fleet.accel_totals();
    events = system.events().executed();
    std::size_t next = 0;
    const auto take = [&] {
      auto done = g_spans.call("Scheduler::take_completions", Layer::kServe,
                               [&] { return scheduler->take_completions(); });
      for (auto& c : done) records.push_back(c);
      return !done.empty();
    };
    while (records.size() + refused < total) {
      const Duration now = system.global_time();
      bool progressed = false;
      while (next < total && schedule[next].due <= now) {
        const Arrival& a = schedule[next];
        serve::Request request;
        request.tenant = static_cast<std::uint32_t>(a.client / kClientsPerTenant);
        request.deadline = static_cast<serve::DeadlineClass>(
            request.tenant % serve::kDeadlineClasses);
        request.m = kM;
        request.n = kN;
        request.k = kK;
        request.a = va_a[a.client];
        request.b = va_w[a.weight];
        request.c = a.checked >= 0
                        ? va_checked[static_cast<std::size_t>(a.checked)]
                        : va_out[a.client][sent_per_client[a.client]++ %
                                           kOutputPool];
        request.lda = kK;
        request.ldb = kN;
        request.ldc = kN;
        request.cacheable = true;
        request.arrival = a.due;
        gen_lag_max_us = std::max(gen_lag_max_us, (now - a.due).microseconds());
        auto id = g_spans.call("Scheduler::submit", Layer::kServe,
                               [&] { return scheduler->submit(request); });
        if (id.is_ok()) {
          if (index_of_id.size() <= *id) index_of_id.resize(*id + 1);
          index_of_id[*id] = static_cast<std::uint32_t>(next);
          submitted += 1;
        } else {
          refused += 1;
          failed[next] = 1;
        }
        next += 1;
        progressed = true;
        const std::uint64_t outstanding = submitted - records.size();
        if (next == total / 2) outstanding_half = outstanding;
        if (next == total) outstanding_last = outstanding;
      }
      if (auto st = g_spans.call("Scheduler::pump", Layer::kServe,
                                 [&] { return scheduler->pump(); });
          !st.is_ok()) {
        r.fail("pump: " + st.to_string());
        break;
      }
      pumps += 1;
      const bool harvested = take();
      if (!progressed && !harvested) idle_pumps += 1;
      if (progressed || harvested) continue;
      std::optional<sim::Tick> wake;
      if (next < total) wake = schedule[next].due.ticks();
      const bool advanced =
          g_spans.call("Scheduler::advance_to_next_event", Layer::kServe,
                       [&] { return scheduler->advance_to_next_event(wake); });
      if (!advanced) {
        if (auto st = g_spans.call("Scheduler::drain", Layer::kServe,
                                   [&] { return scheduler->drain(); });
            !st.is_ok()) {
          r.fail("drain: " + st.to_string());
          break;
        }
        take();
        if (next >= total) break;
      }
    }
    if (auto st = g_spans.call("Scheduler::drain", Layer::kServe,
                               [&] { return scheduler->drain(); });
        !st.is_ok()) {
      r.fail("drain: " + st.to_string());
    }
    take();

    // Checked outputs against a float reference within the quantization
    // bound of polybench/workloads.cpp::gemm_tolerance (unit-range operands).
    constexpr double e = 1.0 / 127.0;
    const double tolerance = static_cast<double>(kK) * (2.0 * e + e * e) + 1e-3;
    g_spans.call("check_outputs", Layer::kHost, [&] {
      for (const serve::Completion& c : records) {
        const std::size_t i =
            c.id < index_of_id.size() ? index_of_id[c.id] : total;
        if (i >= total) {
          r.fail("completion for unknown request " + std::to_string(c.id));
          continue;
        }
        if (c.outcome != serve::Completion::Outcome::kDone) {
          failed[i] = 1;
          continue;
        }
        const Arrival& a = schedule[i];
        if (a.checked < 0) continue;
        const auto slot = static_cast<std::size_t>(a.checked);
        auto got = fleet.download(va_checked[slot], kM * kN);
        if (!got.is_ok()) {
          failed[i] = 1;
          continue;
        }
        const auto& x = activations[a.client];
        const auto& w = weights[a.weight];
        for (std::uint64_t j = 0; j < kN; ++j) {
          double ref = 0.0;
          for (std::uint64_t k = 0; k < kK; ++k) {
            ref += static_cast<double>(x[k]) * w[k * kN + j];
          }
          if (std::fabs((*got)[j] - ref) > tolerance) failed[i] = 1;
        }
        checked_out[slot] = std::move(*got);
      }
    });

    delta = g_spans
                .call("System::snapshot", Layer::kHost,
                      [&] { return system.snapshot(); })
                .delta_since(before);
    accel_after = fleet.accel_totals();
    events = system.events().executed() - events;
  }
  r.wall_s = seconds_since(work_start);

  r.attempted = total;
  for (std::size_t i = 0; i < total; ++i) {
    if (failed[i] != 0) r.fail("request " + std::to_string(i) + " failed");
  }
  if (records.size() + refused != total) {
    r.fail("lost requests: " + std::to_string(total - records.size() - refused));
  }

  Values& v = r.values;
  add_host_counters(delta, v);
  add_offload_counters(delta, fleet.prefixes, v);
  add_serve_counters(delta, v);
  v["raw.device.macs"] =
      static_cast<double>(accel_after.mac8_ops - accel_before.mac8_ops);
  v["raw.device.writes"] = static_cast<double>(accel_after.weight_writes8 -
                                               accel_before.weight_writes8);
  v["sim.events"] = static_cast<double>(events);
  v["serve.pumps"] = static_cast<double>(pumps);
  v["serve.idle_pump_ratio"] = ratio(static_cast<double>(idle_pumps),
                                     static_cast<double>(pumps));
  v["serve.gen_lag_max_us"] = gen_lag_max_us;
  v["raw.outstanding_half"] = static_cast<double>(outstanding_half);
  v["raw.outstanding_last"] = static_cast<double>(outstanding_last);

  std::vector<double> latency, interactive, queue;
  std::uint64_t within_slo = 0;
  for (std::size_t n = 0; n < records.size(); ++n) {
    const serve::Completion& c = records[n];
    if (c.outcome != serve::Completion::Outcome::kDone) continue;
    const double us = c.latency().microseconds();
    within_slo += us <= kSloUs ? 1 : 0;
    if (n < warmup) continue;
    latency.push_back(us);
    queue.push_back(c.queue_delay().microseconds());
    if (c.deadline == serve::DeadlineClass::kInteractive) interactive.push_back(us);
  }
  v["sim_p50_us"] = quantile(latency, 0.50);
  v["sim_p99_us"] = quantile(latency, 0.99);
  v["sim_interactive_p99_us"] = quantile(interactive, 0.99);
  v["serve.queue_p99_us"] = quantile(queue, 0.99);
  v["sim_slo_frac"] =
      ratio(static_cast<double>(within_slo), static_cast<double>(total));

  Digest digest;
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  for (const serve::Completion& c : records) {
    digest.add(c.id);
    digest.add(std::uint64_t{static_cast<std::uint8_t>(c.outcome)});
    digest.add(std::uint64_t{c.done.ticks()});
    digest.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.device)));
    digest.add(std::uint64_t{c.batch_size});
  }
  for (const auto& out : checked_out) {
    for (const float f : out) digest.add(std::uint64_t{std::bit_cast<std::uint32_t>(f)});
  }
  r.digest = digest.value();
  return r;
}

/// Highest ladder rate whose p99 meets the latency limit without a growing
/// backlog (outstanding requests at the last arrival at most twice those at
/// the half-way arrival, with a floor of one batch).
double max_sustainable_rps(std::uint64_t seed) {
  double best = 0.0;
  for (const double rps : kLadderRps) {
    const PassResult p = run_serve_pass(seed, Traffic{false, kLadderRequests, rps});
    const auto get = [&](const char* name) { return p.values.at(name); };
    const bool backlog_ok =
        get("raw.outstanding_last") <=
        2.0 * std::max(get("raw.outstanding_half"),
                       static_cast<double>(kBacklogFloor));
    if (p.failed == 0 && get("sim_p99_us") <= kSloUs && backlog_ok) best = rps;
  }
  return best;
}

// --- driver -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string trace_file;
  bool smoke = false;  // one pass on small inputs, cross-checked
};

void usage() {
  std::fprintf(stderr,
               "usage: tdo_bench --workload NAME [--seed N] "
               "[--trace-file PATH] [--smoke]\nworkloads:");
  for (const auto& s : workload_specs()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-file" && has_value) {
      o.trace_file = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty()) return std::nullopt;
  return o;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Wall time per unit of simulated work, from one traced pass's spans and
/// counters (so numerator and denominator describe the same traffic). Each
/// ratio exists only where the workload drives its layer.
void derive_traced(Values& v) {
  const auto at = [&](const char* name) {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
  };
  const double drive_s = at("runtime.cim_run_s") + at("serve.pump_s") +
                         at("serve.advance_ms") * 1e-3;
  if (v.contains("host.run_s")) {
    v["host.ns_per_inst"] =
        ratio(at("host.run_s") * 1e9, at("raw.host.instructions"));
  }
  if (v.contains("runtime.commands")) {
    v["runtime.us_per_command"] =
        ratio((at("runtime.cim_run_s") + at("serve.pump_s")) * 1e6,
              at("runtime.commands"));
  }
  if (v.contains("raw.device.macs")) {
    v["device.ns_per_mac"] = ratio(drive_s * 1e9, at("raw.device.macs"));
    v["device.ns_per_write"] = ratio(drive_s * 1e9, at("raw.device.writes"));
  }
}

/// Pass times are reported as this nearest-rank quantile over the
/// workload's fixed pass count (the fastest pass when fewer than 10 ran):
/// on a machine whose cores are shared with other tenants, identical passes
/// switch in blocks of seconds between a fast mode and one 40% or more
/// slower, and a run can sit mostly in either. The fast passes measure what
/// the code costs; a median measures how much of the run the slow mode
/// covered.
constexpr double kPassTimeQuantile = 0.10;

/// Pass-time quantiles and medians over passes plus the derived per-layer
/// ratios. Wall-clock metrics come from the passes that measured them:
/// end-to-end times from untraced passes, span-based metrics from traced
/// ones. Simulated counts come from traffic variant 0. Derived metrics
/// exist only where their source counts do.
Values aggregate(const std::vector<PassResult>& passes) {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> setup, wall, overhead;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    for (const auto& [name, value] : p.values) {
      const bool use = traced_only(name)           ? p.traced
                       : name == "sim.ns_per_event" ? !p.traced
                                                    : p.variant == 0;
      if (use) samples[name].push_back(value);
    }
    if (p.traced) {
      overhead.push_back(p.wall_s / passes[i - 1].wall_s - 1.0);
    } else {
      setup.push_back(p.setup_s);
      wall.push_back(p.wall_s);
    }
  }
  Values v;
  for (auto& [name, s] : samples) v[name] = median(std::move(s));
  const auto at = [&](const char* name) {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
  };
  v["setup_s"] = quantile(setup, kPassTimeQuantile);
  v["wall_s"] = quantile(wall, kPassTimeQuantile);
  if (!overhead.empty()) v["trace_overhead_frac"] = median(overhead);
  if (v.contains("raw.host.instructions")) {
    v["host.sim_minst"] = at("raw.host.instructions") * 1e-6;
    v["host.l1d_miss_ratio"] =
        ratio(at("raw.l1d.misses"), at("raw.l1d.hits") + at("raw.l1d.misses"));
  }
  if (v.contains("raw.residency.hits")) {
    v["runtime.residency_hit_ratio"] =
        ratio(at("raw.residency.hits"),
              at("raw.residency.hits") + at("raw.residency.misses"));
  }
  if (v.contains("raw.device.macs")) {
    const double macs = at("raw.device.macs");
    const double writes = at("raw.device.writes");
    v["device.macs"] = macs;
    v["device.weight_writes"] = writes;
    v["device.macs_per_write"] = ratio(macs, writes);
  }
  if (v.contains("serve.launches")) {
    v["serve.mean_batch"] =
        ratio(at("raw.serve.completed"), at("serve.launches"));
    v["serve.affinity_ratio"] =
        ratio(at("raw.serve.affinity_routed"),
              at("raw.serve.affinity_routed") + at("raw.serve.queue_routed"));
  }
  return v;
}

int run(const Options& opts) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& s : workload_specs()) {
    if (opts.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
    usage();
    return 2;
  }
  const bool trace = !opts.trace_file.empty();
  const pb::Preset preset = opts.smoke ? pb::Preset::kTest : pb::Preset::kPaper;
  const Traffic traffic{spec->bursty,
                        opts.smoke ? kSmokeServeRequests : kServeRequests,
                        kMeanRateRps};
  std::mt19937_64 order_rng{mix_seed(opts.seed, 5)};

  // Serve passes come in pairs that replay one traffic variant: the second
  // of each pair guards determinism (and is the traced one in trace mode),
  // while successive pairs draw fresh traffic from the seed, so the
  // reported wall time covers many traffic draws instead of hanging on one.
  // PolyBench inputs do not depend on the seed; every pass replays them.
  const auto traffic_seed = [&](std::uint64_t variant) {
    return mix_seed(opts.seed, 1000 + variant);
  };
  const std::size_t pass_count = opts.smoke ? 1 : spec->passes;
  std::vector<PassResult> passes;
  bool trace_written = false;
  for (std::size_t i = 0; i < pass_count; ++i) {
    const bool traced = trace && i % 2 == 1;
    g_spans.clear();
    g_spans.set_enabled(traced);
    g_spans.set_item("pass " + std::to_string(i));
    PassResult r;
    if (spec->kind == Kind::kServe) {
      r = run_serve_pass(traffic_seed(i / 2), traffic);
      r.variant = i / 2;
    } else {
      PbPass pb_pass = run_pb_pass(*spec, preset, order_rng);
      if (opts.smoke) cross_check_harness(*spec, preset, pb_pass);
      r = std::move(pb_pass.result);
    }
    r.traced = traced;
    if (traced) {
      const auto self = tdo_bench::self_times(g_spans.spans(), "work");
      for (std::size_t l = 1; l < tdo_bench::kLayerCount; ++l) {
        if (!self.seen[l]) continue;
        r.values[std::string{"trace."} + tdo_bench::kLayerNames[l] + ".self_s"] =
            self.self_s[l];
      }
      r.values["trace.coverage_frac"] = self.coverage();
      for (const auto& s : g_spans.spans()) {
        for (const auto& m : kSpanMetrics) {
          if (m.span == s.name) {
            r.values[m.metric] +=
                static_cast<double>(s.end_ns - s.start_ns) * 1e-9 * m.scale;
          }
        }
      }
      derive_traced(r.values);
      if (!trace_written) {
        std::ofstream out(opts.trace_file, std::ios::binary);
        g_spans.write_chrome_json(out);
        trace_written = true;
        if (!out) r.fail("cannot write trace file " + opts.trace_file);
      }
    } else if (r.values.contains("sim.events")) {
      r.values["sim.ns_per_event"] =
          ratio(r.wall_s * 1e9, r.values["sim.events"]);
    }
    for (const PassResult& earlier : passes) {
      if (earlier.variant != r.variant) continue;
      if (earlier.digest != r.digest) {
        r.failed = r.attempted;
        r.errors.push_back("pass " + std::to_string(i) +
                           ": sim_digest differs from an earlier pass with "
                           "the same inputs");
      }
      break;
    }
    passes.push_back(std::move(r));
  }
  g_spans.set_enabled(false);
  g_spans.clear();

  Values v = aggregate(passes);
  if (trace && std::string_view{spec->name} == "serve_steady") {
    v["sim_max_rps"] = max_sustainable_rps(traffic_seed(0));
  }
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  }
  v["fail_frac"] = ratio(static_cast<double>(failed),
                         static_cast<double>(attempted));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  v["peak_rss_mib"] = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::ostringstream os;
  os << "{\"workload\":";
  write_json_string(os, spec->name);
  os << ",\"seed\":" << opts.seed << ",\"mode\":\""
     << (opts.smoke ? "smoke" : "full") << "\",\"traced\":"
     << (trace ? "true" : "false") << ",\"build_type\":";
  write_json_string(os, TDO_BENCH_BUILD_TYPE);
  os << ",\"compiler\":";
  write_json_string(os, TDO_BENCH_COMPILER);
  os << ",\"passes\":" << passes.size() << ",\"samples\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    os << (i == 0 ? "" : ",") << "{\"traced\":" << (p.traced ? "true" : "false")
       << ",\"variant\":" << p.variant << ",\"setup_s\":" << num(p.setup_s) << ",\"wall_s\":" << num(p.wall_s)
       << ",\"sim_digest\":\"" << hex(p.digest) << "\"}";
  }
  os << "],\"sim_digest\":\"" << hex(passes.empty() ? 0 : passes.front().digest)
     << "\",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"correct\":" << (failed == 0 && attempted > 0 ? "true" : "false")
     << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, errors[i]);
  }
  // Metrics this run did not measure (traced-only ones without --trace-file,
  // counts and ratios of layers the workload never calls) are left out.
  os << "],\"metrics\":{";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    const auto it = v.find(m.name);
    if (it == v.end()) continue;
    os << (first ? "" : ",") << '"' << m.name << "\":{\"value\":"
       << num(it->second) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse_args(argc, argv);
  if (!opts) {
    usage();
    return 2;
  }
  return run(*opts);
}
