// Quickstart: compile a plain C GEMM with TDO-CIM and run it on the
// simulated Arm-A7 + CIM platform.
//
// Shows the full flow of the paper's Figure 4: C text -> front-end -> Loop
// Tactics detection -> runtime-call substitution (Listing 1) -> execution on
// the simulated host + accelerator, with before/after code and energy.
#include <iostream>

#include "cim/accelerator.hpp"
#include "core/pipeline.hpp"
#include "exec/interpreter.hpp"
#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "sim/system.hpp"

int main() {
  // 1. A legacy sequential kernel, written in plain C.
  const std::string source = R"(
kernel gemm(M = 64, N = 64, K = 64, alpha = 1.5, beta = 1.2) {
  array float A[M][K];
  array float B[K][N];
  array float C[M][N];
  for (i = 0; i < M; i++)
    for (j = 0; j < N; j++) {
      C[i][j] = beta * C[i][j];
      for (k = 0; k < K; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
)";

  // 2. Front-end: C text -> affine IR.
  auto fn = tdo::frontend::parse_kernel(source);
  if (!fn.is_ok()) {
    std::cerr << "parse error: " << fn.status().to_string() << "\n";
    return 1;
  }
  std::cout << "=== Input kernel ===\n" << tdo::ir::to_source(*fn) << "\n";

  // 3. Mid-level optimizer: schedule tree + Loop Tactics passes.
  const tdo::core::CompileResult compiled = tdo::core::compile(*fn);
  std::cout << "=== Schedule tree (Polly view) ===\n"
            << compiled.schedule_tree_dump << "\n";
  std::cout << "=== Detected kernels ===\n";
  for (const auto& report : compiled.reports) {
    // Every detected kernel becomes a device call; the stream's dynamic
    // dispatch decides host-vs-device per command at runtime.
    std::cout << "  " << report.description
              << "  [MACs/write=" << report.macs_per_write
              << (report.offloaded ? ", device call]" : ", host]") << "\n";
  }
  std::cout << "\n=== Generated program (Listing 1 style) ===\n"
            << compiled.cim_program.to_source() << "\n";

  // 4. Back-end: execute on the simulated platform.
  tdo::sim::System system;
  tdo::cim::Accelerator accel{{}, system};
  tdo::rt::CimRuntime runtime{{}, system, accel};
  tdo::exec::Interpreter interp{system, &runtime};

  if (auto prepared = interp.prepare(compiled.cim_program); !prepared.is_ok()) {
    std::cerr << "prepare failed: " << prepared.to_string() << "\n";
    return 1;
  }
  // Deterministic input data.
  std::vector<float> a(64 * 64), b(64 * 64), c(64 * 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(static_cast<int>(i % 13) - 6) / 6.0f;
    b[i] = static_cast<float>(static_cast<int>(i % 7) - 3) / 3.0f;
    c[i] = static_cast<float>(static_cast<int>(i % 5) - 2) / 2.0f;
  }
  (void)interp.set_array("A", a);
  (void)interp.set_array("B", b);
  (void)interp.set_array("C", c);

  if (auto run = interp.run(compiled.cim_program); !run.is_ok()) {
    std::cerr << "run failed: " << run.to_string() << "\n";
    return 1;
  }

  const auto snap = system.snapshot();
  std::cout << "=== Execution summary ===\n";
  std::cout << "host instructions : " << snap.counter_or("host.instructions")
            << "\n";
  std::cout << "host energy       : " << snap.energy_or("host.energy") << "\n";
  std::cout << "CIM write energy  : " << snap.energy_or("cim.energy.write")
            << "\n";
  std::cout << "CIM compute energy: " << snap.energy_or("cim.energy.compute")
            << "\n";
  std::cout << "MACs per cim-write: " << accel.report().macs_per_cim_write()
            << "\n";
  std::cout << "total time        : " << system.global_time() << "\n";
  const auto result = interp.get_array("C");
  std::cout << "C[0..3]           : " << (*result)[0] << " " << (*result)[1]
            << " " << (*result)[2] << " " << (*result)[3] << "\n";
  return 0;
}
