// Shared test fixture: a small emulated platform (System + Accelerator +
// CimRuntime) plus helpers to move float matrices in and out of simulated
// memory and to compute reference BLAS results.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cim/accelerator.hpp"
#include "runtime/cim_blas.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"

namespace tdo::testing {

/// Seed for the seeded randomized (*Fuzz*) tests: TDO_FUZZ_SEED when set
/// to a nonzero integer, so CI can re-run them with extra seeds.
inline std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("TDO_FUZZ_SEED")) {
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    if (seed != 0) return seed;
  }
  return 20260729ull;
}

/// Owns a fully wired platform with paper-default parameters. Pass
/// `accelerators > 1` to register extra accelerator instances (distinct
/// PMIO windows and stats prefixes) with the runtime's command stream.
class Platform {
 public:
  explicit Platform(rt::RuntimeConfig config = {},
                    cim::AcceleratorParams accel_params = {},
                    sim::SystemParams system_params = {},
                    std::size_t accelerators = 1)
      : system_{system_params},
        accel_{accel_params, system_},
        runtime_{config, system_, accel_} {
    for (std::size_t i = 1; i < accelerators; ++i) {
      extra_.push_back(std::make_unique<cim::Accelerator>(
          cim::instance_params(accel_params, i), system_));
      runtime_.add_accelerator(*extra_.back());
    }
  }

  [[nodiscard]] sim::System& system() { return system_; }
  [[nodiscard]] cim::Accelerator& accel() { return accel_; }
  [[nodiscard]] cim::Accelerator& accel(std::size_t index) {
    return index == 0 ? accel_ : *extra_[index - 1];
  }
  [[nodiscard]] rt::CimRuntime& runtime() { return runtime_; }

  /// Allocates a device buffer and uploads `data` into it functionally
  /// (no host cost) — tests that care about cost use the runtime copies.
  [[nodiscard]] sim::VirtAddr upload(std::span<const float> data) {
    auto va = runtime_.malloc_device(data.size() * sizeof(float));
    EXPECT_TRUE(va.is_ok()) << va.status().to_string();
    write_floats(*va, data);
    return *va;
  }

  /// Allocates a zero-filled device buffer of `count` floats.
  [[nodiscard]] sim::VirtAddr device_zeros(std::size_t count) {
    const std::vector<float> zeros(count, 0.0f);
    return upload(zeros);
  }

  void write_floats(sim::VirtAddr va, std::span<const float> data) {
    auto pa = system_.mmu().translate(va);
    ASSERT_TRUE(pa.is_ok());
    system_.memory().write(
        *pa, std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                       data.size() * sizeof(float)));
  }

  [[nodiscard]] std::vector<float> read_floats(sim::VirtAddr va,
                                               std::size_t count) {
    std::vector<float> out(count);
    auto pa = system_.mmu().translate(va);
    EXPECT_TRUE(pa.is_ok());
    system_.memory().read(
        *pa, std::span(reinterpret_cast<std::uint8_t*>(out.data()),
                       count * sizeof(float)));
    return out;
  }

 private:
  sim::System system_;
  cim::Accelerator accel_;
  rt::CimRuntime runtime_;
  std::vector<std::unique_ptr<cim::Accelerator>> extra_;
};

/// Element-wise float I/O through the MMU — safe for buffers whose physical
/// frames are scattered (Platform::write_floats/read_floats translate the
/// base once and assume contiguity).
inline void write_floats_scattered(Platform& p, sim::VirtAddr va,
                                   std::span<const float> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto pa = p.system().mmu().translate(va + i * sizeof(float));
    ASSERT_TRUE(pa.is_ok());
    p.system().memory().write_scalar<float>(*pa, data[i]);
  }
}

[[nodiscard]] inline std::vector<float> read_floats_scattered(
    Platform& p, sim::VirtAddr va, std::size_t count) {
  std::vector<float> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto pa = p.system().mmu().translate(va + i * sizeof(float));
    EXPECT_TRUE(pa.is_ok());
    out[i] = p.system().memory().read_scalar<float>(*pa);
  }
  return out;
}

/// Row-major reference GEMM: C = alpha*A*B + beta*C.
inline void ref_gemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
                     const std::vector<float>& a, std::size_t lda,
                     const std::vector<float>& b, std::size_t ldb, float beta,
                     std::vector<float>& c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * lda + kk]) *
               static_cast<double>(b[kk * ldb + j]);
      }
      c[i * ldc + j] = static_cast<float>(
          alpha * acc + static_cast<double>(beta) * c[i * ldc + j]);
    }
  }
}

/// Reference GEMV: y = alpha*op(A)*x + beta*y.
inline void ref_gemv(bool transpose, std::size_t m, std::size_t n, float alpha,
                     const std::vector<float>& a, std::size_t lda,
                     const std::vector<float>& x, float beta,
                     std::vector<float>& y) {
  if (!transpose) {
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        acc += static_cast<double>(a[i * lda + j]) * static_cast<double>(x[j]);
      }
      y[i] = static_cast<float>(alpha * acc + static_cast<double>(beta) * y[i]);
    }
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      acc += static_cast<double>(a[i * lda + j]) * static_cast<double>(x[i]);
    }
    y[j] = static_cast<float>(alpha * acc + static_cast<double>(beta) * y[j]);
  }
}

/// Deterministic random matrix in [-range, range].
inline std::vector<float> random_matrix(std::size_t count, double range,
                                        std::uint64_t seed) {
  support::Rng rng{seed};
  std::vector<float> out(count);
  for (float& v : out) {
    v = rng.uniform_f(static_cast<float>(-range), static_cast<float>(range));
  }
  return out;
}

}  // namespace tdo::testing
