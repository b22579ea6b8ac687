// C-style facade of the CIM runtime — the exact entry points the paper's
// generated code calls (Listing 1): polly_cimInit, polly_cimMalloc,
// polly_cimBlasSGemm, polly_cimBlasGemmBatched, polly_cimDevToHost, ...
//
// Mirrors the cuBLAS "legacy" style: a process-wide current runtime bound
// once at startup, C-int error codes. The class API (CimRuntime) remains the
// primary interface; this facade exists so examples and generated code read
// like the paper's listings. It is also the only blocking BLAS surface: each
// polly_cimBlas* call enqueues through the matching CimRuntime *_async entry
// point, then synchronizes (returning early if enqueuing fails).
#pragma once

#include <cstdint>

#include "runtime/cim_blas.hpp"

namespace tdo::rt::api {

/// Error codes returned by the facade (0 == success).
enum CimError : int {
  kCimSuccess = 0,
  kCimNotInitialized = 1,
  kCimInvalidValue = 2,
  kCimAllocFailed = 3,
  kCimExecutionFailed = 4,
};

/// Binds the facade to a runtime instance (not owned). Pass nullptr to unbind.
void set_current_runtime(CimRuntime* runtime);
[[nodiscard]] CimRuntime* current_runtime();

/// RAII binder for tests/examples. Bindings nest: the destructor restores
/// whatever runtime was current when the binding was created.
class RuntimeBinding {
 public:
  explicit RuntimeBinding(CimRuntime& runtime) : previous_{current_runtime()} {
    set_current_runtime(&runtime);
  }
  ~RuntimeBinding() { set_current_runtime(previous_); }
  RuntimeBinding(const RuntimeBinding&) = delete;
  RuntimeBinding& operator=(const RuntimeBinding&) = delete;

 private:
  CimRuntime* previous_;
};

// --- the paper's API (Listing 1) ---

int polly_cimInit(int device);
int polly_cimMalloc(std::uint64_t* device_ptr, std::uint64_t bytes);
int polly_cimFree(std::uint64_t device_ptr);
int polly_cimHostToDev(std::uint64_t dst, std::uint64_t src, std::uint64_t bytes);
int polly_cimDevToHost(std::uint64_t dst, std::uint64_t src, std::uint64_t bytes);

/// Pitched (strided sub-matrix view) transfers: `rows` rows of `width`
/// bytes, row starts `pitch` bytes apart on both sides. Emitted by the
/// compiler when the derived copy footprint is a proper sub-rectangle; the
/// transfer engine derives the scatter-gather segment chain from the view.
int polly_cimHostToDev2d(std::uint64_t dst, std::uint64_t src,
                         std::uint64_t pitch, std::uint64_t width,
                         std::uint64_t rows);
int polly_cimDevToHost2d(std::uint64_t dst, std::uint64_t src,
                         std::uint64_t pitch, std::uint64_t width,
                         std::uint64_t rows);

int polly_cimBlasSGemm(bool trans_a, bool trans_b, std::uint64_t m,
                       std::uint64_t n, std::uint64_t k, const float* alpha,
                       std::uint64_t a, std::uint64_t lda, std::uint64_t b,
                       std::uint64_t ldb, const float* beta, std::uint64_t c,
                       std::uint64_t ldc);

int polly_cimBlasSGemv(bool trans_a, std::uint64_t m, std::uint64_t n,
                       const float* alpha, std::uint64_t a, std::uint64_t lda,
                       std::uint64_t x, const float* beta, std::uint64_t y);

/// Batched GEMM over parallel pointer arrays (the fusion pass's target).
/// `stationary` is 0 (B stationary) or 1 (A stationary); any other value is
/// kCimInvalidValue.
int polly_cimBlasGemmBatched(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                             const float* alpha, const std::uint64_t* a_array,
                             std::uint64_t lda, const std::uint64_t* b_array,
                             std::uint64_t ldb, const float* beta,
                             const std::uint64_t* c_array, std::uint64_t ldc,
                             std::uint64_t batch_count, int stationary);

/// Drains the runtime's command stream (asynchronous offload path); the
/// compiler emits this before host code touches device-produced data.
int polly_cimSynchronize();

}  // namespace tdo::rt::api
