#include "runtime/cim_api.hpp"

#include <vector>

#include "support/log.hpp"

namespace tdo::rt::api {

namespace {
CimRuntime* g_runtime = nullptr;

[[nodiscard]] int to_error(const support::Status& status) {
  if (status.is_ok()) return kCimSuccess;
  switch (status.code()) {
    case support::StatusCode::kFailedPrecondition:
      return kCimNotInitialized;
    case support::StatusCode::kInvalidArgument:
      return kCimInvalidValue;
    case support::StatusCode::kResourceExhausted:
      return kCimAllocFailed;
    default:
      return kCimExecutionFailed;
  }
}

/// Enqueue-then-drain: the facade is the runtime's only blocking surface.
[[nodiscard]] int drain_after(const support::Status& enqueued) {
  if (!enqueued.is_ok()) return to_error(enqueued);
  return to_error(g_runtime->synchronize());
}
}  // namespace

void set_current_runtime(CimRuntime* runtime) { g_runtime = runtime; }
CimRuntime* current_runtime() { return g_runtime; }

int polly_cimInit(int device) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  return to_error(g_runtime->init(device));
}

int polly_cimMalloc(std::uint64_t* device_ptr, std::uint64_t bytes) {
  if (g_runtime == nullptr || device_ptr == nullptr) return kCimNotInitialized;
  auto va = g_runtime->malloc_device(bytes);
  if (!va.is_ok()) return to_error(va.status());
  *device_ptr = *va;
  return kCimSuccess;
}

int polly_cimFree(std::uint64_t device_ptr) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  return to_error(g_runtime->free_device(device_ptr));
}

int polly_cimHostToDev(std::uint64_t dst, std::uint64_t src, std::uint64_t bytes) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  return to_error(g_runtime->host_to_dev(dst, src, bytes));
}

int polly_cimDevToHost(std::uint64_t dst, std::uint64_t src, std::uint64_t bytes) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  return to_error(g_runtime->dev_to_host(dst, src, bytes));
}

int polly_cimHostToDev2d(std::uint64_t dst, std::uint64_t src,
                         std::uint64_t pitch, std::uint64_t width,
                         std::uint64_t rows) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  return to_error(g_runtime->host_to_dev_2d(dst, src, pitch, width, rows));
}

int polly_cimDevToHost2d(std::uint64_t dst, std::uint64_t src,
                         std::uint64_t pitch, std::uint64_t width,
                         std::uint64_t rows) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  return to_error(g_runtime->dev_to_host_2d(dst, src, pitch, width, rows));
}

int polly_cimSynchronize() {
  if (g_runtime == nullptr) return kCimNotInitialized;
  return to_error(g_runtime->synchronize());
}

int polly_cimBlasSGemm(bool trans_a, bool trans_b, std::uint64_t m,
                       std::uint64_t n, std::uint64_t k, const float* alpha,
                       std::uint64_t a, std::uint64_t lda, std::uint64_t b,
                       std::uint64_t ldb, const float* beta, std::uint64_t c,
                       std::uint64_t ldc) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  if (trans_a || trans_b) {
    TDO_LOG(kWarn, "cim.api") << "transposed GEMM is not supported";
    return kCimInvalidValue;
  }
  if (alpha == nullptr || beta == nullptr) return kCimInvalidValue;
  return drain_after(g_runtime->sgemm_async(m, n, k, *alpha, a, lda, b, ldb,
                                            *beta, c, ldc,
                                            cim::StationaryOperand::kB));
}

int polly_cimBlasSGemv(bool trans_a, std::uint64_t m, std::uint64_t n,
                       const float* alpha, std::uint64_t a, std::uint64_t lda,
                       std::uint64_t x, const float* beta, std::uint64_t y) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  if (alpha == nullptr || beta == nullptr) return kCimInvalidValue;
  return drain_after(
      g_runtime->sgemv_async(trans_a, m, n, *alpha, a, lda, x, *beta, y));
}

int polly_cimBlasGemmBatched(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                             const float* alpha, const std::uint64_t* a_array,
                             std::uint64_t lda, const std::uint64_t* b_array,
                             std::uint64_t ldb, const float* beta,
                             const std::uint64_t* c_array, std::uint64_t ldc,
                             std::uint64_t batch_count, int stationary) {
  if (g_runtime == nullptr) return kCimNotInitialized;
  if (alpha == nullptr || beta == nullptr || a_array == nullptr ||
      b_array == nullptr || c_array == nullptr || batch_count == 0) {
    return kCimInvalidValue;
  }
  // Only kB (0) and kA (1) exist; never cast anything else into the enum.
  if (stationary != 0 && stationary != 1) return kCimInvalidValue;
  std::vector<GemmBatchItem> items(batch_count);
  for (std::uint64_t i = 0; i < batch_count; ++i) {
    items[i] = GemmBatchItem{a_array[i], b_array[i], c_array[i]};
  }
  return drain_after(g_runtime->sgemm_batched_async(
      m, n, k, *alpha, items, lda, ldb, *beta, ldc,
      static_cast<cim::StationaryOperand>(stationary)));
}

}  // namespace tdo::rt::api
