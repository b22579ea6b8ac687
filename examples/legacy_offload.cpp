// Transparent offloading of a legacy application (the paper's headline
// claim): the whole PolyBench 2mm program compiles unchanged; TDO-CIM
// detects both GEMM kernels, keeps the dependent pair unfused, and offloads
// each — no user annotation anywhere.
//
// Compare the "-O3" and "-O3 -enable-loop-tactics" configurations the way
// Section IV does, on the same workload.
#include <iostream>

#include "polybench/harness.hpp"
#include "support/table.hpp"

int main() {
  auto workload = tdo::pb::make_workload("2mm", tdo::pb::Preset::kTest);
  if (!workload.is_ok()) {
    std::cerr << workload.status().to_string() << "\n";
    return 1;
  }

  std::cout << "Legacy source (compiled unchanged):\n"
            << workload->source << "\n";

  const auto host = tdo::pb::run_host(*workload);      // clang -O3
  const auto cim = tdo::pb::run_cim(*workload);        // -enable-loop-tactics
  if (!host.is_ok() || !cim.is_ok()) {
    std::cerr << "run failed: " << host.status().to_string() << " / "
              << cim.status().to_string() << "\n";
    return 1;
  }

  tdo::support::TextTable table("2mm: -O3 vs -O3 -enable-loop-tactics");
  table.set_header({"Metric", "Host (Arm-A7)", "Host + CIM"});
  table.add_row({"energy", host->total_energy.to_string(),
                 cim->total_energy.to_string()});
  table.add_row({"runtime", host->runtime.to_string(), cim->runtime.to_string()});
  table.add_row({"host instructions", std::to_string(host->host_instructions),
                 std::to_string(cim->host_instructions)});
  table.add_row({"result correct", host->correct ? "yes" : "no",
                 cim->correct ? "yes (within quantization bound)" : "NO"});
  table.add_row({"max |error|",
                 tdo::support::TextTable::fmt(host->max_abs_error, 6),
                 tdo::support::TextTable::fmt(cim->max_abs_error, 4)});
  table.print(std::cout);

  std::cout << "Energy improvement: "
            << tdo::support::TextTable::fmt_ratio(host->total_energy /
                                                  cim->total_energy)
            << ", EDP improvement: "
            << tdo::support::TextTable::fmt_ratio(host->edp() / cim->edp())
            << "\n";
  return 0;
}
