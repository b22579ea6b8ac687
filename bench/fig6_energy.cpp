// Reproduces Figure 6 (left): energy (mJ) of the host (Arm-A7) vs host+CIM
// per PolyBench kernel, the MACs-per-CIM-write compute-intensity line, and
// the Geomean / Selective-Geomean summary bars.
//
// Expected shape (paper): GEMM-like kernels (2mm, 3mm, gemm, conv) win by
// one-to-two orders of magnitude; GEMV-like kernels (gesummv, bicg, mvt)
// lose (improvement < 1x) because their compute intensity is ~4 orders of
// magnitude lower; the all-kernel geomean sits far below the selective
// (GEMM-like only / cost-model-approved) geomean.
#include <cmath>
#include <iostream>

#include "core/pipeline.hpp"
#include "polybench/harness.hpp"
#include "support/table.hpp"

int main() {
  using tdo::support::TextTable;
  TextTable table("Figure 6 (left) - Energy per kernel");
  table.set_header({"Kernel", "Host (mJ)", "Host+CIM (mJ)", "Improvement",
                    "MACs per cim-write", "CIM result OK"});

  double log_sum_all = 0.0;
  int count_all = 0;
  double log_sum_selective = 0.0;
  int count_selective = 0;
  const double selective_threshold =
      tdo::core::CompileOptions{}.min_macs_per_write;

  for (const std::string& name : tdo::pb::kernel_names()) {
    auto workload = tdo::pb::make_workload(name, tdo::pb::Preset::kPaper);
    if (!workload.is_ok()) continue;
    const auto host = tdo::pb::run_host(*workload);
    const auto cim = tdo::pb::run_cim(*workload);
    if (!host.is_ok() || !cim.is_ok()) {
      std::cerr << name << " failed: " << host.status() << " / "
                << cim.status() << "\n";
      return 1;
    }
    const double improvement =
        host->total_energy / cim->total_energy;
    log_sum_all += std::log(improvement);
    ++count_all;
    // The selective cost model (MACs-per-write threshold) approves exactly
    // the GEMM-like kernels; their geomean is the paper's "Selective" bar.
    if (cim->macs_per_cim_write >= selective_threshold) {
      log_sum_selective += std::log(improvement);
      ++count_selective;
    }
    table.add_row({name, TextTable::fmt(host->total_energy.millijoules(), 4),
                   TextTable::fmt(cim->total_energy.millijoules(), 4),
                   TextTable::fmt_ratio(improvement),
                   TextTable::fmt(cim->macs_per_cim_write, 1),
                   cim->correct ? "yes" : "NO"});
  }

  const double geomean_all =
      count_all > 0 ? std::exp(log_sum_all / count_all) : 0.0;
  const double geomean_selective =
      count_selective > 0 ? std::exp(log_sum_selective / count_selective) : 0.0;
  table.add_row({"Geomean (all)", "", "", TextTable::fmt_ratio(geomean_all), "", ""});
  table.add_row({"Selective Geomean (GEMM-like)", "", "",
                 TextTable::fmt_ratio(geomean_selective), "", ""});
  table.print(std::cout);
  std::cout << "Paper reference points: Geomean 3.2x, Selective Geomean "
               "32.6x; GEMV-like kernels lose (<1x).\n";
  return 0;
}
