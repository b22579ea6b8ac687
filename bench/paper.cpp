// Reproduces the paper's evaluation (Section IV) in one binary, printing in
// this order: Table I, Figure 5, Figure 6 (energy, then EDP), the fusion,
// tiling, double-buffering and wear-leveling ablations, and the design-space
// exploration the paper's conclusion motivates.
//
// Each configuration runs once. Both Figure 6 tables print the same seven
// host and seven host+CIM runs; the ablations and the DSE reuse the default
// gemm and 3mm runs among them wherever a row is that default configuration
// (tests/polybench/harness_test.cpp pins that such runs are interchangeable).
//
// Every run is also a correctness check of the paper's transparency claim:
// a run whose outputs miss the native reference prints
// `FAILED: <section>: <kernel> result incorrect` on stderr and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cim/accelerator.hpp"
#include "core/pipeline.hpp"
#include "pcm/crossbar.hpp"
#include "pcm/endurance.hpp"
#include "pcm/energy_model.hpp"
#include "pcm/wear_leveling.hpp"
#include "polybench/harness.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

namespace pb = tdo::pb;
namespace pcm = tdo::pcm;
using tdo::support::TextTable;

[[noreturn]] void fail(std::string_view section, const std::string& text) {
  std::cerr << "FAILED: " << section << ": " << text << "\n";
  std::exit(1);
}

/// Unwraps one harness run; a failed run or a wrong answer fails the bench.
pb::RunReport checked(std::string_view section,
                      tdo::support::StatusOr<pb::RunReport> report) {
  if (!report.is_ok()) fail(section, report.status().to_string());
  if (!report->correct) fail(section, report->kernel + " result incorrect");
  return *std::move(report);
}

pb::RunReport run_cim(std::string_view section, const pb::Workload& workload,
                      const pb::HarnessOptions& options = {}) {
  return checked(section, pb::run_cim(workload, options));
}

/// Options with a dim x dim crossbar, in the compiler's view of the hardware
/// and in the accelerator model alike.
pb::HarnessOptions with_crossbar(std::uint32_t dim) {
  pb::HarnessOptions options;
  options.compile.crossbar_rows = dim;
  options.compile.crossbar_cols = dim;
  options.accelerator.tile.crossbar.rows = dim;
  options.accelerator.tile.crossbar.cols = dim;
  return options;
}

/// How much longer `slow` takes than `fast`, in percent.
std::string percent_longer(const pb::RunReport& slow,
                           const pb::RunReport& fast) {
  return TextTable::fmt((slow.runtime / fast.runtime - 1.0) * 100.0, 1);
}

/// One PolyBench kernel at the paper preset, run on the host and through
/// the default TDO-CIM flow.
struct KernelRuns {
  pb::Workload workload;
  pb::RunReport host;
  pb::RunReport cim;
};

std::vector<KernelRuns> run_kernels() {
  std::vector<KernelRuns> kernels;
  for (const std::string& name : pb::kernel_names()) {
    auto workload = pb::make_workload(name, pb::Preset::kPaper);
    if (!workload.is_ok()) fail("fig6", workload.status().to_string());
    kernels.push_back({*workload, checked("fig6", pb::run_host(*workload)),
                       run_cim("fig6", *workload)});
  }
  return kernels;
}

const KernelRuns& kernel(const std::vector<KernelRuns>& kernels,
                         std::string_view name) {
  for (const KernelRuns& k : kernels) {
    if (k.workload.name == name) return k;
  }
  fail("fig6", "no " + std::string(name) + " workload");
}

const char* yes_no(bool correct) { return correct ? "yes" : "NO"; }

// --- Table I: CIM and host configuration + energy model --------------------
// Printed straight from the parameter structs every other section charges,
// so this table can never drift from the simulation.
void table1() {
  const pcm::CimEnergyParams e;
  const tdo::cim::AcceleratorParams accel;
  const tdo::sim::SystemParams sys;

  TextTable cim("Table I - CIM parameters");
  cim.set_header({"CIM Parameter", "Value"});
  cim.add_row({"PCM crossbar technology",
               std::to_string(accel.tile.crossbar.rows) + "x" +
                   std::to_string(accel.tile.crossbar.cols) +
                   " @8-bit (2x 4-bit IBM PCM columns)"});
  cim.add_row({"Compute latency / GEMV", e.compute_latency_per_gemv.to_string()});
  cim.add_row({"Write latency / row", e.write_latency_per_row.to_string()});
  cim.add_row({"Compute energy / 8-bit MAC", e.compute_per_mac8.to_string()});
  cim.add_row({"Write energy / 8-bit weight", e.write_per_weight8.to_string()});
  cim.add_row({"Mixed-signal energy / GEMV", e.mixed_signal_per_gemv.to_string()});
  cim.add_row({"I/O buffer energy / byte-access",
               e.buffer_per_byte_access.to_string()});
  cim.add_row({"Digital logic / GEMV weighted sum",
               e.digital_weighted_sum_per_gemv.to_string()});
  cim.add_row({"Digital logic / extra ALU op",
               e.digital_per_extra_alu_op.to_string()});
  cim.add_row({"DMA + micro-engine / op", e.dma_engine_per_op.to_string()});
  cim.add_row({"ADC sharing (columns per ADC)",
               std::to_string(accel.tile.adc.columns_per_adc)});
  cim.print(std::cout);

  TextTable host("Table I - Host CPU spec");
  host.set_header({"Host Parameter", "Value"});
  host.add_row({"Cores", std::to_string(sys.host.cores) + "x Arm-A7 class @ " +
                             sys.host.frequency.to_string()});
  host.add_row({"L1-I / L1-D", std::to_string(sys.l1i.size_bytes / 1024) +
                                   " KiB / " +
                                   std::to_string(sys.l1d.size_bytes / 1024) +
                                   " KiB"});
  host.add_row({"L2 (shared)", std::to_string(sys.l2.size_bytes / 1024 / 1024) +
                                   " MiB"});
  host.add_row({"Energy / instruction (incl. caches)",
                sys.host.energy_per_inst.to_string()});
  host.add_row({"Base CPI (in-order, partial dual-issue)",
                TextTable::fmt(sys.host.base_cpi, 2)});
  host.add_row({"L2 hit / DRAM latency (cycles)",
                std::to_string(sys.latencies.l2_hit_cycles) + " / " +
                    std::to_string(sys.latencies.dram_cycles)});
  host.print(std::cout);
}

// --- Figure 5: fusion vs PCM crossbar lifetime ------------------------------
//
//   SystemLifeTime = CellEndurance * S / B        (Eq. 1)
//
// on the Listing-2 workload (two GEMMs sharing input A). "Naive mapping"
// compiles with fusion disabled: each GEMM keeps its moving operand (B, then
// E) stationary in the crossbar, so both are written. "Smart mapping" enables
// the fusion pass: one batched job keeps the shared A stationary and streams
// B and E, halving the write traffic B and thus doubling the expected
// lifetime, as in the paper.

/// Listing 2 of the paper: two independent GEMMs sharing input A.
pb::Workload make_listing2(std::int64_t n) {
  pb::Workload w;
  w.name = "listing2";
  w.source = "\nkernel listing2(N = " + std::to_string(n) + R"() {
  array float A[N][N];
  array float B[N][N];
  array float E[N][N];
  array float C[N][N];
  array float D[N][N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) {
      C[i][j] = 0.0;
      for (k = 0; k < N; k++)
        C[i][j] += A[i][k] * B[k][j];
    }
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) {
      D[i][j] = 0.0;
      for (k = 0; k < N; k++)
        D[i][j] += A[i][k] * E[k][j];
    }
}
)";
  auto fill = [n](int salt) {
    std::vector<float> m(static_cast<std::size_t>(n * n));
    for (std::int64_t i = 0; i < n * n; ++i) {
      m[static_cast<std::size_t>(i)] =
          static_cast<float>(((i * (salt + 3)) % 13 - 6) / 6.0);
    }
    return m;
  };
  w.inputs["A"] = fill(1);
  w.inputs["B"] = fill(2);
  w.inputs["E"] = fill(3);
  w.inputs["C"] = std::vector<float>(static_cast<std::size_t>(n * n), 0.0f);
  w.inputs["D"] = std::vector<float>(static_cast<std::size_t>(n * n), 0.0f);
  // Native double-precision reference: C = A * B and D = A * E.
  const auto product = [n = static_cast<std::size_t>(n)](
                           const std::vector<float>& x,
                           const std::vector<float>& y) {
    std::vector<float> out(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          acc += static_cast<double>(x[i * n + k]) * y[k * n + j];
        }
        out[i * n + j] = static_cast<float>(acc);
      }
    }
    return out;
  };
  w.expected["C"] = product(w.inputs["A"], w.inputs["B"]);
  w.expected["D"] = product(w.inputs["A"], w.inputs["E"]);
  w.outputs = {"C", "D"};
  // Every input lies in [-1, 1].
  w.tolerance = pb::gemm_tolerance(1.0, n);
  return w;
}

/// Eq. 1 over the paper's 10..40 million write endurance sweep, one row per
/// 5 M writes, for a crossbar of `s_bytes`.
void lifetime_table(const std::string& title,
                    const std::vector<std::string>& header,
                    std::uint64_t s_bytes, const pcm::WriteTraffic& naive,
                    const pcm::WriteTraffic& smart, int precision) {
  TextTable table(title);
  table.set_header(header);
  for (std::uint64_t endurance_m = 10; endurance_m <= 40; endurance_m += 5) {
    const std::uint64_t endurance = endurance_m * 1'000'000ull;
    const double naive_years =
        pcm::system_lifetime_years(endurance, s_bytes, naive);
    const double smart_years =
        pcm::system_lifetime_years(endurance, s_bytes, smart);
    table.add_row({std::to_string(endurance_m),
                   TextTable::fmt(naive_years, precision),
                   TextTable::fmt(smart_years, precision),
                   TextTable::fmt_ratio(smart_years / naive_years)});
  }
  table.print(std::cout);
}

void fig5() {
  const std::int64_t n = 256;
  const pb::Workload workload = make_listing2(n);
  pb::HarnessOptions naive_options;
  naive_options.compile.enable_fusion = false;
  const pb::RunReport smart = run_cim("fig5", workload);
  const pb::RunReport naive = run_cim("fig5", workload, naive_options);

  TextTable traffic("Figure 5 setup - measured crossbar write traffic (Listing 2, N=" +
                    std::to_string(n) + ")");
  traffic.set_header({"Mapping", "Weights written (bytes)", "Kernel time",
                      "Write traffic B (GB/s)"});
  const pcm::WriteTraffic naive_traffic{naive.cim_writes, naive.runtime};
  const pcm::WriteTraffic smart_traffic{smart.cim_writes, smart.runtime};
  traffic.add_row({"Naive (no fusion)", std::to_string(naive.cim_writes),
                   naive.runtime.to_string(),
                   TextTable::fmt(naive_traffic.bytes_per_second() / 1e9, 4)});
  traffic.add_row({"Smart (TDO-CIM fusion)", std::to_string(smart.cim_writes),
                   smart.runtime.to_string(),
                   TextTable::fmt(smart_traffic.bytes_per_second() / 1e9, 4)});
  traffic.print(std::cout);

  const double write_ratio = static_cast<double>(naive.cim_writes) /
                             static_cast<double>(smart.cim_writes);
  std::cout << "Write-traffic reduction from fusion: "
            << TextTable::fmt_ratio(write_ratio)
            << " (paper: 2x for Listing 2)\n\n";

  // Eq. 1 at the paper's scale: S = 512 KB crossbar.
  const std::uint64_t s_bytes = 512ull * 1024;
  lifetime_table("Figure 5 - System lifetime (years) vs PCM cell endurance",
                 {"Endurance (M writes)", "Naive mapping (years)",
                  "Smart mapping (years)", "Smart / Naive"},
                 s_bytes, naive_traffic, smart_traffic, 2);
  std::cout << "Expected shape: smart mapping doubles lifetime at every "
               "endurance point (paper Figure 5).\n\n";

  // Paper-scale projection: squared matrices of 4096 byte-elements.
  // Functionally simulating 2 x 4096^3 MACs is prohibitive, so the write
  // traffic comes from the same Table I latency model the simulator charges
  // (tile count x row-program time + streamed GEMVs).
  const pcm::CimEnergyParams e;
  const std::uint64_t tile = pcm::CrossbarParams{}.rows;
  const std::uint64_t nn = 4096;
  const std::uint64_t tiles_per_gemm = (nn / tile) * (nn / tile);
  const auto write_time =
      e.write_latency_per_row * static_cast<double>(tiles_per_gemm * tile);
  const auto stream_time =
      e.compute_latency_per_gemv * static_cast<double>(tiles_per_gemm * nn);
  const std::uint64_t bytes_per_matrix = nn * nn;
  // Smart: one fused job, A written once, B and E streamed.
  const pcm::WriteTraffic smart_projected{bytes_per_matrix,
                                          write_time + 2.0 * stream_time};
  // Naive: two jobs, B then E written, A streamed twice.
  const pcm::WriteTraffic naive_projected{2 * bytes_per_matrix,
                                          2.0 * (write_time + stream_time)};
  lifetime_table(
      "Figure 5 - paper-scale projection (4096^2 byte matrices, S=512KB)",
      {"Endurance (M writes)", "Naive (years)", "Smart (years)",
       "Smart / Naive"},
      s_bytes, naive_projected, smart_projected, 1);
  std::cout << "Paper Figure 5 spans roughly 0-48 years over the same "
               "endurance interval with a ~2x naive-vs-smart separation.\n";
}

/// Geometric mean, 0 for no values.
double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// --- Figure 6: energy, EDP and runtime per kernel ---------------------------
// Expected shape (paper), left: GEMM-like kernels (2mm, 3mm, gemm, conv) win
// by one-to-two orders of magnitude; GEMV-like kernels (gesummv, bicg, mvt)
// lose (improvement < 1x) because their compute intensity is ~4 orders of
// magnitude lower; the all-kernel geomean sits far below the selective
// (GEMM-like only / cost-model-approved) geomean. Right: EDP improvements up
// to ~612x for GEMM-like kernels (the energy and runtime wins multiply),
// negative (i.e. < 1x) for the GEMV-like kernels, which are both slower and
// less efficient on the CIM device because writes dominate.
void fig6(const std::vector<KernelRuns>& kernels) {
  TextTable energy("Figure 6 (left) - Energy per kernel");
  energy.set_header({"Kernel", "Host (mJ)", "Host+CIM (mJ)", "Improvement",
                     "MACs per cim-write", "CIM result OK"});
  TextTable edp("Figure 6 (right) - EDP and runtime improvement");
  edp.set_header({"Kernel", "Host EDP (J*s)", "CIM EDP (J*s)",
                  "EDP improvement", "Runtime improvement"});
  TextTable stream("Command-stream behaviour per kernel");
  stream.set_header({"Kernel", "Commands", "CPU fallbacks", "Peak in-flight",
                     "Overlap ticks", "Copies", "Copy KiB", "Overlapped KiB",
                     "SG segs", "Contended ticks", "Host memcpys"});

  std::vector<double> energy_gains, selective_gains, edp_gains, rt_gains;
  const double selective_threshold =
      tdo::core::CompileOptions{}.min_macs_per_write;
  for (const auto& [workload, host, cim] : kernels) {
    const std::string& name = workload.name;
    const double energy_improvement = host.total_energy / cim.total_energy;
    const double edp_improvement = host.edp() / cim.edp();
    const double rt_improvement = host.runtime / cim.runtime;
    energy_gains.push_back(energy_improvement);
    // The selective cost model (MACs-per-write threshold) approves exactly
    // the GEMM-like kernels; their geomean is the paper's "Selective" bar.
    if (cim.macs_per_cim_write >= selective_threshold) {
      selective_gains.push_back(energy_improvement);
    }
    edp_gains.push_back(edp_improvement);
    rt_gains.push_back(rt_improvement);
    energy.add_row({name, TextTable::fmt(host.total_energy.millijoules(), 4),
                    TextTable::fmt(cim.total_energy.millijoules(), 4),
                    TextTable::fmt_ratio(energy_improvement),
                    TextTable::fmt(cim.macs_per_cim_write, 1),
                    yes_no(cim.correct)});
    char host_edp[32];
    char cim_edp[32];
    std::snprintf(host_edp, sizeof host_edp, "%.3e", host.edp());
    std::snprintf(cim_edp, sizeof cim_edp, "%.3e", cim.edp());
    edp.add_row({name, host_edp, cim_edp, TextTable::fmt_ratio(edp_improvement),
                 TextTable::fmt_ratio(rt_improvement)});
    stream.add_row({name, std::to_string(cim.stream_commands),
                    std::to_string(cim.stream_fallbacks),
                    std::to_string(cim.stream_occupancy),
                    std::to_string(cim.overlap_ticks),
                    std::to_string(cim.copies_enqueued),
                    std::to_string(cim.copy_bytes / 1024),
                    std::to_string(cim.overlapped_copy_bytes / 1024),
                    std::to_string(cim.copy_segments),
                    std::to_string(cim.copy_contended_ticks),
                    std::to_string(cim.host_copies)});
  }

  energy.add_row({"Geomean (all)", "", "",
                  TextTable::fmt_ratio(geomean(energy_gains)), "", ""});
  energy.add_row({"Selective Geomean (GEMM-like)", "", "",
                  TextTable::fmt_ratio(geomean(selective_gains)), "", ""});
  energy.print(std::cout);
  std::cout << "Paper reference points: Geomean 3.2x, Selective Geomean "
               "32.6x; GEMV-like kernels lose (<1x).\n";

  edp.add_row({"Average (geomean)", "", "",
               TextTable::fmt_ratio(geomean(edp_gains)),
               TextTable::fmt_ratio(geomean(rt_gains))});
  edp.print(std::cout);
  const auto best = std::ranges::max_element(edp_gains);
  std::cout << "Best EDP improvement: " << TextTable::fmt_ratio(*best)
            << " on " << kernels[best - edp_gains.begin()].workload.name
            << " (paper: up to 612x on GEMM-like kernels; GEMV-like lose).\n\n";
  stream.print(std::cout);
  std::cout << "Stream counters track the async offload path over time: more"
               " overlap ticks and higher in-flight peaks mean better"
               " submit/compute pipelining; fallbacks are commands the"
               " dynamic policy kept on the host. Copies are host<->device"
               " transfers riding the stream as DMA commands; overlapped KiB"
               " is the share of that traffic hidden under engine compute"
               " (exact: the engine's own weight/vector DMA occupancy of the"
               " copy channel is subtracted). SG segs counts scatter-gather"
               " segments, contended ticks the time copies waited on channel"
               " contention, host memcpys the blocking fallbacks left.\n";
}

// --- Ablations ---------------------------------------------------------------

using Cells = std::vector<std::string>;
using LabelledRuns = std::vector<std::pair<std::string, const pb::RunReport*>>;

/// Prints one row per labelled run: the label, `cells(run)`, and whether the
/// run's result was correct.
void print_runs(const std::string& title, Cells header,
                const LabelledRuns& runs, Cells (*cells)(const pb::RunReport&)) {
  TextTable table(title);
  header.push_back("Correct");
  table.set_header(std::move(header));
  for (const auto& [label, run] : runs) {
    Cells row = cells(*run);
    row.insert(row.begin(), label);
    row.push_back(yes_no(run->correct));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

Cells writes_energy_runtime(const pb::RunReport& run) {
  return {std::to_string(run.cim_writes), run.total_energy.to_string(),
          run.runtime.to_string()};
}

// Kernel fusion (Section III-B) on 3mm's independent GEMM pair; the ON row is
// Figure 6's 3mm run.
void ablation_fusion(const KernelRuns& mm3) {
  pb::HarnessOptions unfused;
  unfused.compile.enable_fusion = false;
  const pb::RunReport off = run_cim("fusion", mm3.workload, unfused);
  print_runs("Ablation - kernel fusion (3mm, E=A*B and F=C*D fusable)",
             {"Config", "CIM weights written", "Energy", "Runtime"},
             {{"fusion ON (batched)", &mm3.cim}, {"fusion OFF", &off}},
             writes_energy_runtime);
  std::cout << "3mm's fusable pair shares no operand, so fusion saves\n"
               "runtime-call overhead (one batched submit) rather than\n"
               "writes; the shared-input write saving is shown by\n"
               "the Figure 5 section (Listing 2).\n";
}

// Endurance-aware tiling + interchange (Section III-B, Listing 3) on a 512^3
// GEMM whose stationary operand does not fit the 256x256 crossbar. The
// reuse-friendly order programs each stationary tile once; the naive order
// reprograms it per column chunk.
void ablation_tiling() {
  const std::int64_t n = 512;
  pb::Workload w;
  w.name = "big_gemm";
  w.source = "\nkernel big_gemm(SIZE = " + std::to_string(n) + R"() {
  array float A[SIZE][SIZE];
  array float B[SIZE][SIZE];
  array float C[SIZE][SIZE];
  for (i = 0; i < SIZE; i++)
    for (j = 0; j < SIZE; j++)
      for (k = 0; k < SIZE; k++)
        C[i][j] += A[i][k] * B[k][j];
}
)";
  const auto nn = static_cast<std::size_t>(n * n);
  w.inputs["A"] = std::vector<float>(nn, 0.5f);
  w.inputs["B"] = std::vector<float>(nn, 0.25f);
  w.inputs["C"] = std::vector<float>(nn, 0.0f);
  w.expected["C"] =
      std::vector<float>(nn, static_cast<float>(n) * 0.5f * 0.25f);
  w.outputs = {"C"};
  w.tolerance = 2.0;

  pb::HarnessOptions naive;
  naive.compile.enable_tiling = false;
  const pb::RunReport interchanged = run_cim("tiling", w);
  const pb::RunReport naive_order = run_cim("tiling", w, naive);
  print_runs("Ablation - tiling order for oversized GEMM (512^3)",
             {"Tile-loop order", "CIM weights written", "Energy", "Runtime"},
             {{"ii,kk (Listing 3 interchange)", &interchanged},
              {"ii,jj,kk (naive)", &naive_order}},
             writes_energy_runtime);
  std::cout << "Expected: the interchange halves crossbar writes at 512^3 "
               "(N / crossbar_cols = 2 column chunks).\n";
}

// Double buffering at every level of the offload stack.
//
// Engine level (Section II-C: "supports double buffering for all the
// registers in the accelerator to hide the data latency of the memory
// accesses"): job latency with the DMA fill/compute/store pipeline enabled
// vs serialized.
//
// Stream level: an oversized GEMM (k = 2 crossbar heights -> chained tile
// jobs) executed through the asynchronous command stream at depth 2 (jobs
// chain back-to-back on the device, next tile's weight DMA prefetched under
// the current tile's streaming) vs depth 1 (the paper's synchronous
// submit/wait round trips).
//
// Transfer level: host<->device copies riding the stream as DMA commands
// (rectangle-hazard ordered, executing on the otherwise-idle DMA channel)
// vs the paper's blocking host memcpy behind a full drain.
//
// The default gemm run is the ON row of the engine and transfer tables;
// `gemm_128` (gemm on 128x128 crossbars) is the depth-2 row.
void ablation_double_buffer(const KernelRuns& gemm,
                            const pb::RunReport& gemm_128) {
  pb::HarnessOptions serialized;
  serialized.runtime.double_buffering = false;
  const pb::RunReport db_off =
      run_cim("double_buffer", gemm.workload, serialized);
  print_runs("Ablation - micro-engine double buffering (gemm 256^3)",
             {"Config", "Runtime", "Energy"},
             {{"double buffering ON", &gemm.cim},
              {"double buffering OFF", &db_off}},
             [](const pb::RunReport& run) {
               return Cells{run.runtime.to_string(),
                            run.total_energy.to_string()};
             });
  std::cout << "Serializing fill/compute/store lengthens the job by "
            << percent_longer(db_off, gemm.cim)
            << "% (DMA latency no longer hidden).\n\n";

  // A 128x128 crossbar turns the 256^3 GEMM into 4 chained tile jobs; the
  // stream pipelines them, depth 1 reproduces the synchronous round trips.
  pb::HarnessOptions depth1 = with_crossbar(128);
  depth1.runtime.stream.depth = 1;
  const pb::RunReport serial = run_cim("double_buffer", gemm.workload, depth1);
  print_runs(
      "Ablation - stream-level double buffering (gemm 256^3, 128x128 tiles)",
      {"Config", "Runtime", "Overlap ticks", "Peak in-flight"},
      {{"stream depth 2 (async)", &gemm_128},
       {"stream depth 1 (serialized)", &serial}},
      [](const pb::RunReport& run) {
        return Cells{run.runtime.to_string(), std::to_string(run.overlap_ticks),
                     std::to_string(run.stream_occupancy)};
      });
  std::cout << "Serializing the command stream lengthens the kernel by "
            << percent_longer(serial, gemm_128)
            << "% (submit overhead and weight DMA no longer overlapped).\n\n";

  // Transfer engine: the same workload with copies riding the stream vs the
  // synchronous host memcpy path.
  pb::HarnessOptions sync_copies;
  sync_copies.runtime.xfer.async_copies = false;
  const pb::RunReport synchronous =
      run_cim("double_buffer", gemm.workload, sync_copies);
  print_runs("Ablation - async copies on the stream (gemm 256^3)",
             {"Config", "Runtime", "Copies on stream", "Copy KiB",
              "Overlapped KiB"},
             {{"async copies (DMA commands)", &gemm.cim},
              {"synchronous memcpy", &synchronous}},
             [](const pb::RunReport& run) {
               return Cells{run.runtime.to_string(),
                            std::to_string(run.copies_enqueued),
                            std::to_string(run.copy_bytes / 1024),
                            std::to_string(run.overlapped_copy_bytes / 1024)};
             });
  std::cout << "Synchronous copies lengthen the kernel by "
            << percent_longer(synchronous, gemm.cim)
            << "% (transfers stall the host instead of riding the DMA"
               " channel).\n";
}

// Start-gap wear leveling (extension). The paper argues its compile-time
// endurance optimizations are orthogonal to architectural wear leveling
// (Section V). This section composes the two: a skewed row-write trace
// (small stationary tiles always landing on rows 0..k-1, as repeated small
// GEMV offloads do) is replayed with and without the start-gap remapper, and
// the resulting wear skew (max / mean cell writes) is compared.
void ablation_wear_leveling() {
  constexpr std::uint32_t kRows = 64;
  constexpr std::uint32_t kCols = 64;
  constexpr int kJobs = 4096;
  constexpr std::uint32_t kHotRows = 8;  // small stationary tiles

  auto run = [&](bool leveled) {
    pcm::CrossbarParams params;
    params.rows = kRows + 1;  // one spare row for the gap
    params.cols = kCols;
    pcm::Crossbar xbar{params};
    pcm::StartGapRemapper remap{kRows, /*gap_move_interval=*/16};
    tdo::support::Rng rng{11};
    std::vector<std::int8_t> row(kCols);

    for (int job = 0; job < kJobs; ++job) {
      for (std::uint32_t r = 0; r < kHotRows; ++r) {
        for (auto& w : row) {
          w = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
        }
        (void)xbar.write_row(leveled ? remap.physical_row(r) : r, row);
        if (leveled && remap.record_write()) {
          // Gap migration costs one extra row write (the displaced row).
          const std::uint32_t gap = remap.gap_position();
          (void)xbar.write_row(gap == kRows ? 0 : gap + 1, row);
        }
      }
    }
    return std::pair{static_cast<double>(xbar.max_cell_writes()),
                     static_cast<double>(xbar.total_cell_writes()) /
                         ((kRows + 1) * kCols * 2.0)};
  };

  const auto [naive_max, naive_mean] = run(false);
  const auto [leveled_max, leveled_mean] = run(true);

  TextTable table("Ablation - start-gap wear leveling (hot 8-row trace)");
  table.set_header({"Config", "Max cell writes", "Mean cell writes",
                    "Skew (max/mean)"});
  table.add_row({"no wear leveling", TextTable::fmt(naive_max, 0),
                 TextTable::fmt(naive_mean, 1),
                 TextTable::fmt_ratio(naive_max / naive_mean)});
  table.add_row({"start-gap", TextTable::fmt(leveled_max, 0),
                 TextTable::fmt(leveled_mean, 1),
                 TextTable::fmt_ratio(leveled_max / leveled_mean)});
  table.print(std::cout);
  std::cout << "Device lifetime is set by the most-worn cell: start-gap cuts "
               "the wear skew by "
            << TextTable::fmt_ratio((naive_max / naive_mean) /
                                    (leveled_max / leveled_mean))
            << " on this trace, composing with TDO-CIM's compile-time "
               "write reduction.\n";
}

// --- Design-space exploration ------------------------------------------------
// The use-case the paper's conclusion motivates: "We expect our compiler and
// Gem5 emulator to boost researches in the field by providing a transparent
// and automatic flow to compile entire applications on the CIM architecture
// and perform domains-space exploration by tweaking our simulator."
//
// Sweeps the crossbar geometry and the PCM write latency for the gemm
// workload and reports energy / runtime / EDP improvement over the host, all
// through the unmodified compilation flow (the compiler re-plans tiling for
// each geometry). 256x256 and 2.5 us are the default gemm run; 128x128 is
// `gemm_128`.
void dse(const KernelRuns& gemm, const pb::RunReport& gemm_128) {
  const pb::RunReport& host = gemm.host;
  TextTable geometry("DSE - crossbar geometry sweep (gemm 256^3)");
  geometry.set_header({"Crossbar", "Energy improvement", "Runtime improvement",
                       "EDP improvement", "Correct"});
  for (const std::uint32_t dim : {64u, 128u, 256u, 512u}) {
    const pb::RunReport cim =
        dim == 256   ? gemm.cim
        : dim == 128 ? gemm_128
                     : run_cim("dse", gemm.workload, with_crossbar(dim));
    geometry.add_row({std::to_string(dim) + "x" + std::to_string(dim),
                      TextTable::fmt_ratio(host.total_energy / cim.total_energy),
                      TextTable::fmt_ratio(host.runtime / cim.runtime),
                      TextTable::fmt_ratio(host.edp() / cim.edp()),
                      yes_no(cim.correct)});
  }
  geometry.print(std::cout);

  TextTable latency("DSE - PCM write-latency sensitivity (gemm 256^3)");
  latency.set_header({"Write latency / row", "Runtime improvement",
                      "EDP improvement"});
  for (const double us : {0.5, 1.0, 2.5, 5.0, 10.0}) {
    pb::HarnessOptions options;
    options.accelerator.energy.write_latency_per_row =
        tdo::support::Duration::from_us(us);
    const pb::RunReport cim =
        us == 2.5 ? gemm.cim : run_cim("dse", gemm.workload, options);
    latency.add_row({TextTable::fmt(us, 1) + " us",
                     TextTable::fmt_ratio(host.runtime / cim.runtime),
                     TextTable::fmt_ratio(host.edp() / cim.edp())});
  }
  latency.print(std::cout);
  std::cout << "Each design point runs the complete, unmodified compilation\n"
               "flow against a re-parameterized accelerator model.\n";
}

}  // namespace

int main() {
  table1();
  fig5();
  const std::vector<KernelRuns> kernels = run_kernels();
  fig6(kernels);
  const KernelRuns& gemm = kernel(kernels, "gemm");
  ablation_fusion(kernel(kernels, "3mm"));
  ablation_tiling();
  const pb::RunReport gemm_128 =
      run_cim("double_buffer", gemm.workload, with_crossbar(128));
  ablation_double_buffer(gemm, gemm_128);
  ablation_wear_leveling();
  dse(gemm, gemm_128);
  return 0;
}
