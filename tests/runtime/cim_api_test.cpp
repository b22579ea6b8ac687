// The polly_cim* facade is the runtime's only blocking BLAS surface: each
// polly_cimBlas* call enqueues through the matching *_async entry point and
// drains the stream before returning. These tests drive the facade the way
// generated code does (Listing 1) and check its error mapping.
#include "runtime/cim_api.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/fixed_point.hpp"
#include "testing/fixture.hpp"

namespace tdo::rt::api {
namespace {

using testing::Platform;
using testing::random_matrix;
using testing::ref_gemm;
using testing::ref_gemv;

[[nodiscard]] double quant_bound(double max_a, double max_b, std::size_t k,
                                 float alpha) {
  return std::abs(alpha) * support::dot_quant_error_bound(max_a, max_b, k) +
         1e-3;
}

// Wider than one crossbar (256 columns), so the call enqueues several tile
// jobs and a non-blocking call would still have work in flight.
constexpr std::size_t kM = 6, kN = 300, kK = 40;

TEST(CimApiTest, SGemmReturnsDrainedAndMatchesReference) {
  Platform p;
  const RuntimeBinding binding{p.runtime()};
  ASSERT_EQ(polly_cimInit(0), kCimSuccess);
  const auto a = random_matrix(kM * kK, 2.0, 1);
  const auto b = random_matrix(kK * kN, 1.0, 2);
  auto c = random_matrix(kM * kN, 1.0, 3);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.upload(c);

  const float alpha = 1.5f, beta = 0.5f;
  ASSERT_EQ(polly_cimBlasSGemm(false, false, kM, kN, kK, &alpha, va_a, kK,
                               va_b, kN, &beta, va_c, kN),
            kCimSuccess);
  EXPECT_TRUE(p.runtime().stream().idle());
  EXPECT_GT(p.system().snapshot().counter_or("cim.jobs"), 1u);

  ref_gemm(kM, kN, kK, alpha, a, kK, b, kN, beta, c, kN);
  const auto got = p.read_floats(va_c, kM * kN);
  const double bound = quant_bound(2.0, 1.0, kK, alpha);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], c[i], bound) << "element " << i;
  }
}

TEST(CimApiTest, AsyncEntryPointAloneLeavesWorkInFlight) {
  // The premise the facade tests rest on: without the facade's drain the
  // same call returns with tile jobs still queued.
  Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto va_a = p.upload(random_matrix(kM * kK, 1.0, 4));
  const auto va_b = p.upload(random_matrix(kK * kN, 1.0, 5));
  const auto va_c = p.device_zeros(kM * kN);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(kM, kN, kK, 1.0f, va_a, kK, va_b, kN, 0.0f,
                               va_c, kN, cim::StationaryOperand::kB)
                  .is_ok());
  EXPECT_FALSE(p.runtime().stream().idle());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_TRUE(p.runtime().stream().idle());
}

TEST(CimApiTest, SGemvBothLayoutsReturnDrainedAndMatchReference) {
  for (const bool transpose : {false, true}) {
    SCOPED_TRACE(transpose ? "transpose" : "no transpose");
    Platform p;
    const RuntimeBinding binding{p.runtime()};
    ASSERT_EQ(polly_cimInit(0), kCimSuccess);
    const std::size_t m = 40, n = 270;
    const std::size_t xlen = transpose ? m : n;
    const std::size_t ylen = transpose ? n : m;
    const auto a = random_matrix(m * n, 1.5, 21);
    const auto x = random_matrix(xlen, 1.0, 22);
    auto y = random_matrix(ylen, 1.0, 23);
    const auto va_a = p.upload(a);
    const auto va_x = p.upload(x);
    const auto va_y = p.upload(y);

    const float alpha = 2.0f, beta = 0.25f;
    ASSERT_EQ(polly_cimBlasSGemv(transpose, m, n, &alpha, va_a, n, va_x, &beta,
                                 va_y),
              kCimSuccess);
    EXPECT_TRUE(p.runtime().stream().idle());

    ref_gemv(transpose, m, n, alpha, a, n, x, beta, y);
    const auto got = p.read_floats(va_y, ylen);
    const double bound = quant_bound(1.5, 1.0, xlen, alpha);
    for (std::size_t i = 0; i < ylen; ++i) {
      EXPECT_NEAR(got[i], y[i], bound) << "element " << i;
    }
  }
}

TEST(CimApiTest, GemmBatchedReturnsDrainedAndMatchesReference) {
  Platform p({}, {}, {}, /*accelerators=*/2);
  const RuntimeBinding binding{p.runtime()};
  ASSERT_EQ(polly_cimInit(0), kCimSuccess);
  const std::size_t m = 16, n = 16, k = 16;
  const auto a = random_matrix(m * k, 1.0, 41);  // shared stationary input
  const auto b0 = random_matrix(k * n, 1.0, 42);
  const auto b1 = random_matrix(k * n, 1.0, 43);
  const std::uint64_t va_a = p.upload(a);
  const std::uint64_t a_array[] = {va_a, va_a};
  const std::uint64_t b_array[] = {p.upload(b0), p.upload(b1)};
  const std::uint64_t c_array[] = {p.device_zeros(m * n),
                                   p.device_zeros(m * n)};

  const float alpha = 1.0f, beta = 0.0f;
  ASSERT_EQ(polly_cimBlasGemmBatched(m, n, k, &alpha, a_array, k, b_array, n,
                                     &beta, c_array, n, 2, /*stationary=*/1),
            kCimSuccess);
  EXPECT_TRUE(p.runtime().stream().idle());

  const double bound = quant_bound(1.0, 1.0, k, alpha);
  for (std::size_t item = 0; item < 2; ++item) {
    std::vector<float> want(m * n, 0.0f);
    ref_gemm(m, n, k, alpha, a, k, item == 0 ? b0 : b1, n, beta, want, n);
    const auto got = p.read_floats(c_array[item], m * n);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], bound) << "item " << item << " element " << i;
    }
  }
}

TEST(CimApiTest, UnboundFacadeReportsNotInitialized) {
  const float one = 1.0f;
  const std::uint64_t ptrs[] = {0x1000};
  EXPECT_EQ(current_runtime(), nullptr);
  EXPECT_EQ(polly_cimBlasSGemm(false, false, 4, 4, 4, &one, 0, 4, 0, 4, &one,
                               0, 4),
            kCimNotInitialized);
  EXPECT_EQ(polly_cimBlasSGemv(false, 4, 4, &one, 0, 4, 0, &one, 0),
            kCimNotInitialized);
  EXPECT_EQ(polly_cimBlasGemmBatched(4, 4, 4, &one, ptrs, 4, ptrs, 4, &one,
                                     ptrs, 4, 1, 0),
            kCimNotInitialized);
  EXPECT_EQ(polly_cimHostToDev(0x1000, 0x2000, 64), kCimNotInitialized);
  EXPECT_EQ(polly_cimDevToHost(0x2000, 0x1000, 64), kCimNotInitialized);
  EXPECT_EQ(polly_cimHostToDev2d(0x1000, 0x2000, 64, 16, 4),
            kCimNotInitialized);
  EXPECT_EQ(polly_cimDevToHost2d(0x2000, 0x1000, 64, 16, 4),
            kCimNotInitialized);
  EXPECT_EQ(polly_cimSynchronize(), kCimNotInitialized);
}

TEST(CimApiTest, PitchedCopiesRoundTripASubRectangle) {
  // Listing 1's pitched transfers: a 5 x 6 window of a 16 x 16 host matrix
  // goes to the device and back; nothing outside the window moves.
  Platform p;
  const RuntimeBinding binding{p.runtime()};
  ASSERT_EQ(polly_cimInit(0), kCimSuccess);
  constexpr std::size_t kDim = 16, kRow0 = 3, kCol0 = 5, kRows = 5, kCols = 6;
  constexpr std::uint64_t kPitch = kDim * 4;
  const auto matrix = random_matrix(kDim * kDim, 1.0, 61);
  const auto host_in = p.system().mmu().allocate(kDim * kDim * 4);
  const auto host_out = p.system().mmu().allocate(kDim * kDim * 4);
  ASSERT_TRUE(host_in.is_ok() && host_out.is_ok());
  p.write_floats(*host_in, matrix);
  p.write_floats(*host_out, std::vector<float>(kDim * kDim, 0.0f));
  const std::uint64_t dev = p.device_zeros(kDim * kDim);
  const std::uint64_t window = (kRow0 * kDim + kCol0) * 4;

  ASSERT_EQ(polly_cimHostToDev2d(dev + window, *host_in + window, kPitch,
                                 kCols * 4, kRows),
            kCimSuccess);
  ASSERT_EQ(polly_cimDevToHost2d(*host_out + window, dev + window, kPitch,
                                 kCols * 4, kRows),
            kCimSuccess);
  ASSERT_EQ(polly_cimSynchronize(), kCimSuccess);

  const auto on_device = p.read_floats(dev, kDim * kDim);
  const auto back = p.read_floats(*host_out, kDim * kDim);
  for (std::size_t r = 0; r < kDim; ++r) {
    for (std::size_t c = 0; c < kDim; ++c) {
      const bool inside = r >= kRow0 && r < kRow0 + kRows && c >= kCol0 &&
                          c < kCol0 + kCols;
      const float want = inside ? matrix[r * kDim + c] : 0.0f;
      EXPECT_EQ(on_device[r * kDim + c], want) << "device " << r << "," << c;
      EXPECT_EQ(back[r * kDim + c], want) << "host " << r << "," << c;
    }
  }
}

TEST(CimApiTest, InvalidArgumentsReportInvalidValue) {
  Platform p;
  const RuntimeBinding binding{p.runtime()};
  ASSERT_EQ(polly_cimInit(0), kCimSuccess);
  const std::size_t m = 16, n = 16, k = 16;
  const std::uint64_t va_a = p.upload(random_matrix(m * k, 1.0, 51));
  const std::uint64_t va_b = p.upload(random_matrix(k * n, 1.0, 52));
  const std::uint64_t va_c = p.device_zeros(m * n);
  const float one = 1.0f;

  // Null scalars.
  EXPECT_EQ(polly_cimBlasSGemm(false, false, m, n, k, nullptr, va_a, k, va_b,
                               n, &one, va_c, n),
            kCimInvalidValue);
  EXPECT_EQ(polly_cimBlasSGemm(false, false, m, n, k, &one, va_a, k, va_b, n,
                               nullptr, va_c, n),
            kCimInvalidValue);
  EXPECT_EQ(polly_cimBlasSGemv(false, m, n, nullptr, va_a, n, va_b, &one,
                               va_c),
            kCimInvalidValue);
  EXPECT_EQ(polly_cimBlasSGemv(false, m, n, &one, va_a, n, va_b, nullptr,
                               va_c),
            kCimInvalidValue);
  // Transposed GEMM is not supported.
  EXPECT_EQ(polly_cimBlasSGemm(true, false, m, n, k, &one, va_a, k, va_b, n,
                               &one, va_c, n),
            kCimInvalidValue);
  EXPECT_EQ(polly_cimBlasSGemm(false, true, m, n, k, &one, va_a, k, va_b, n,
                               &one, va_c, n),
            kCimInvalidValue);
  // Zero dimensions.
  EXPECT_EQ(polly_cimBlasSGemm(false, false, 0, n, k, &one, va_a, k, va_b, n,
                               &one, va_c, n),
            kCimInvalidValue);
  EXPECT_EQ(polly_cimBlasSGemv(false, m, 0, &one, va_a, n, va_b, &one, va_c),
            kCimInvalidValue);
  // Nothing above reached the device.
  EXPECT_EQ(p.accel().report().jobs, 0u);
}

TEST(CimApiTest, BatchedRejectsUnknownStationaryLayout) {
  Platform p;
  const RuntimeBinding binding{p.runtime()};
  ASSERT_EQ(polly_cimInit(0), kCimSuccess);
  const std::size_t m = 16, n = 16, k = 16;
  const std::uint64_t a_array[] = {p.upload(random_matrix(m * k, 1.0, 61))};
  const std::uint64_t b_array[] = {p.upload(random_matrix(k * n, 1.0, 62))};
  const std::uint64_t c_array[] = {p.device_zeros(m * n)};
  const float one = 1.0f, zero = 0.0f;
  for (const int stationary : {2, -1}) {
    EXPECT_EQ(polly_cimBlasGemmBatched(m, n, k, &one, a_array, k, b_array, n,
                                       &zero, c_array, n, 1, stationary),
              kCimInvalidValue)
        << "stationary = " << stationary;
  }
  // Rejected before touching the runtime: nothing was programmed.
  EXPECT_EQ(p.system().snapshot().counter_or("stream.enqueued"), 0u);
  EXPECT_EQ(p.accel().report().weight_writes8, 0u);
  // The two real layouts are accepted.
  for (const int stationary : {0, 1}) {
    EXPECT_EQ(polly_cimBlasGemmBatched(m, n, k, &one, a_array, k, b_array, n,
                                       &zero, c_array, n, 1, stationary),
              kCimSuccess)
        << "stationary = " << stationary;
  }
}

}  // namespace
}  // namespace tdo::rt::api
