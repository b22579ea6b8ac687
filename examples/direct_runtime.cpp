// Using the CIM runtime library directly, cuBLAS-style (paper Section III:
// "The library has been designed to be used directly by the application
// programmer"). This is Listing 1's generated code, written by hand against
// the polly_cim* C API: the host arrays are copied to device buffers, the
// GEMM runs on the crossbar, and C is copied back and checked.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "cim/accelerator.hpp"
#include "polybench/workloads.hpp"
#include "runtime/cim_api.hpp"
#include "sim/system.hpp"

int main() {
  using namespace tdo::rt::api;  // the polly_cim* C facade

  // Platform bring-up (in a real deployment this is the OS + driver).
  tdo::sim::System system;
  tdo::cim::Accelerator accel{{}, system};
  tdo::rt::CimRuntime runtime{{}, system, accel};
  const RuntimeBinding binding{runtime};

  constexpr std::uint64_t kM = 96, kN = 80, kK = 112;
  const float alpha = 1.0f, beta = 0.0f;

  // The application's own arrays, in host virtual memory.
  const auto host_a = system.mmu().allocate(kM * kK * 4);
  const auto host_b = system.mmu().allocate(kK * kN * 4);
  const auto host_c = system.mmu().allocate(kM * kN * 4);
  if (!host_a.is_ok() || !host_b.is_ok() || !host_c.is_ok()) return 1;
  auto host_pa = [&](std::uint64_t va) {
    return *system.mmu().translate(va);
  };
  std::vector<float> a(kM * kK), b(kK * kN);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = float(i % 11) / 11.0f - 0.5f;
    system.memory().write_scalar<float>(host_pa(*host_a + i * 4), a[i]);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = float(i % 7) / 7.0f - 0.5f;
    system.memory().write_scalar<float>(host_pa(*host_b + i * 4), b[i]);
  }

  // --- Listing 1, hand-written ---
  if (polly_cimInit(0) != kCimSuccess) return 1;

  std::uint64_t cim_a = 0, cim_b = 0, cim_c = 0;
  if (polly_cimMalloc(&cim_a, kM * kK * 4) != kCimSuccess) return 1;
  if (polly_cimMalloc(&cim_b, kK * kN * 4) != kCimSuccess) return 1;
  if (polly_cimMalloc(&cim_c, kM * kN * 4) != kCimSuccess) return 1;

  if (polly_cimHostToDev(cim_a, *host_a, kM * kK * 4) != kCimSuccess ||
      polly_cimHostToDev(cim_b, *host_b, kK * kN * 4) != kCimSuccess) {
    std::cerr << "copy to device failed\n";
    return 1;
  }
  if (polly_cimBlasSGemm(false, false, kM, kN, kK, &alpha, cim_a, kK, cim_b,
                         kN, &beta, cim_c, kN) != kCimSuccess) {
    std::cerr << "SGEMM failed\n";
    return 1;
  }
  if (polly_cimDevToHost(*host_c, cim_c, kM * kN * 4) != kCimSuccess ||
      polly_cimSynchronize() != kCimSuccess) {
    std::cerr << "copy to host failed\n";
    return 1;
  }

  // Check every element of C against a host-computed reference, within the
  // 8-bit quantization bound of a K-long dot product over [-0.5, 0.5].
  const double tolerance = tdo::pb::gemm_tolerance(alpha, kK, /*range=*/0.5);
  double max_error = 0.0;
  for (std::uint64_t i = 0; i < kM; ++i) {
    for (std::uint64_t j = 0; j < kN; ++j) {
      double expected = 0.0;
      for (std::uint64_t k = 0; k < kK; ++k) {
        expected += a[i * kK + k] * b[k * kN + j];
      }
      const float got = system.memory().read_scalar<float>(
          host_pa(*host_c + (i * kN + j) * 4));
      max_error = std::max(max_error, std::abs(got - expected));
    }
  }
  std::cout << "max |C - reference|     : " << max_error << " (tolerance "
            << tolerance << ")\n";

  const auto report = accel.report();
  std::cout << "accelerator jobs        : " << report.jobs << "\n";
  std::cout << "GEMV operations         : " << report.gemv_ops << "\n";
  std::cout << "8-bit MACs              : " << report.mac8_ops << "\n";
  std::cout << "crossbar weights written: " << report.weight_writes8 << "\n";
  std::cout << "accelerator energy      : " << report.total_energy << "\n";
  std::cout << "wall time               : " << system.global_time() << "\n";

  (void)polly_cimFree(cim_c);
  (void)polly_cimFree(cim_b);
  (void)polly_cimFree(cim_a);
  if (max_error > tolerance) {
    std::cerr << "C is outside the quantization tolerance\n";
    return 1;
  }
  return 0;
}
