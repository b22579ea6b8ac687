// Tests for the evaluation harness: every run builds a fresh platform, so a
// run's report depends only on its workload and options. bench_paper relies
// on this to print one run in several tables (the default gemm run is the
// Figure 6 bar, the ON row of two ablations and one point of each DSE sweep).
#include "polybench/harness.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "polybench/workloads.hpp"
#include "testing/fixture.hpp"

namespace tdo::pb {
namespace {

[[nodiscard]] RunReport run_gemm(const HarnessOptions& options = {}) {
  auto report = run_cim(make_gemm(Preset::kTest), options);
  EXPECT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->correct);
  return *std::move(report);
}

void expect_same_run(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.runtime.picoseconds(), b.runtime.picoseconds());
  EXPECT_EQ(a.total_energy.picojoules(), b.total_energy.picojoules());
  EXPECT_EQ(a.cim_writes, b.cim_writes);
  EXPECT_EQ(a.stream_commands, b.stream_commands);
  EXPECT_EQ(a.stream_fallbacks, b.stream_fallbacks);
  EXPECT_EQ(a.stream_occupancy, b.stream_occupancy);
  EXPECT_EQ(a.overlap_ticks, b.overlap_ticks);
  EXPECT_EQ(a.copies_enqueued, b.copies_enqueued);
  EXPECT_EQ(a.copy_bytes, b.copy_bytes);
  EXPECT_EQ(a.copy_segments, b.copy_segments);
  EXPECT_EQ(a.overlapped_copy_bytes, b.overlapped_copy_bytes);
  EXPECT_EQ(a.copy_contended_ticks, b.copy_contended_ticks);
  EXPECT_EQ(a.host_copies, b.host_copies);
  EXPECT_EQ(a.max_abs_error, b.max_abs_error);
}

/// A GEMM the compiler offloads, followed by a host nest that exercises the
/// rest of the kernel language's arithmetic: unary minus, parentheses,
/// subtraction and division in expressions, and `-` and `(...)` in
/// subscripts. D reads the device-produced C, so the offloaded program keeps
/// the host nest after a synchronize.
constexpr int kNI = 24, kNJ = 20, kNK = 16;
constexpr double kAlpha = 0.5, kBeta = 1.5;

[[nodiscard]] Workload arithmetic_workload() {
  Workload w;
  w.name = "arith";
  w.source = R"(
kernel arith(NI = 24, NJ = 20, NK = 16, alpha = 0.5, beta = 1.5) {
  array float A[NI][NK];
  array float B[NK][NJ];
  array float C[NI][NJ];
  array float E[NJ];
  array float D[NI][NJ];
  for (i = 0; i < NI; i++)
    for (j = 0; j < NJ; j++) {
      C[i][j] = beta * C[i][j];
      for (k = 0; k < NK; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
  for (i = 0; i < NI; i++)
    for (j = 0; j < NJ; j++)
      D[i][j] = -(C[i][(NJ - 1) - j] - 2.0 * E[-(j - (NJ - 1))]) /
                (1.0 + E[j] * E[j]);
}
)";
  const auto a = testing::random_matrix(kNI * kNK, 1.0, 71);
  const auto b = testing::random_matrix(kNK * kNJ, 1.0, 72);
  const auto c = testing::random_matrix(kNI * kNJ, 1.0, 73);
  const auto e = testing::random_matrix(kNJ, 1.0, 74);
  std::vector<double> c_ref(kNI * kNJ);
  std::vector<float> c_out(kNI * kNJ), d_out(kNI * kNJ);
  for (int i = 0; i < kNI; ++i) {
    for (int j = 0; j < kNJ; ++j) {
      double acc = kBeta * c[i * kNJ + j];
      for (int k = 0; k < kNK; ++k) {
        acc += kAlpha * a[i * kNK + k] * b[k * kNJ + j];
      }
      c_ref[i * kNJ + j] = acc;
      c_out[i * kNJ + j] = static_cast<float>(acc);
    }
  }
  for (int i = 0; i < kNI; ++i) {
    for (int j = 0; j < kNJ; ++j) {
      const int mirror = kNJ - 1 - j;
      d_out[i * kNJ + j] = static_cast<float>(
          -(c_ref[i * kNJ + mirror] - 2.0 * e[mirror]) /
          (1.0 + static_cast<double>(e[j]) * e[j]));
    }
  }
  w.inputs = {{"A", a}, {"B", b}, {"C", c}, {"E", e}};
  w.expected = {{"C", c_out}, {"D", d_out}};
  w.outputs = {"C", "D"};
  return w;
}

TEST(HarnessTest, KernelArithmeticMatchesReferenceOnHostAndOffloaded) {
  // All-host: the interpreter's float arithmetic against the double
  // reference.
  Workload workload = arithmetic_workload();
  workload.tolerance = 1e-4;
  const auto host = run_host(workload);
  ASSERT_TRUE(host.is_ok()) << host.status().to_string();
  EXPECT_TRUE(host->correct) << "max error " << host->max_abs_error;
  EXPECT_FALSE(host->any_offloaded);

  // Offloaded: the same program, the GEMM on the crossbar, agrees with the
  // same reference within the GEMM's 8-bit quantization bound; D divides by
  // at least 1, so C's error bounds D's.
  workload.tolerance = gemm_tolerance(kAlpha, kNK);
  const auto cim = run_cim(workload);
  ASSERT_TRUE(cim.is_ok()) << cim.status().to_string();
  EXPECT_TRUE(cim->correct) << "max error " << cim->max_abs_error;
  EXPECT_TRUE(cim->any_offloaded);
  EXPECT_GT(cim->mac_ops, 0u);
}

TEST(HarnessTest, LoweredProgramPrintsTheHostNestItKeeps) {
  const auto fn = frontend::parse_kernel(arithmetic_workload().source);
  ASSERT_TRUE(fn.is_ok()) << fn.status().to_string();
  const std::string source = core::compile(*fn).cim_program.to_source();
  const auto gemm = source.find("polly_cimBlasSGemm");
  const auto sync = source.find("polly_cimSynchronize();");
  const auto nest = source.find(
      "for (int i = 0; i < 24; i++)\n"
      "  for (int j = 0; j < 20; j++) {\n"
      "    D[i][j] = (0 - (C[i][-j + 19] - 2 * E[-j + 19])) / "
      "(1 + E[j] * E[j]);");
  ASSERT_NE(nest, std::string::npos) << source;
  EXPECT_LT(gemm, sync) << source;
  EXPECT_LT(sync, nest) << source;
}

TEST(HarnessTest, ReportDoesNotDependOnEarlierRuns) {
  const RunReport first = run_gemm();
  HarnessOptions small_crossbar;
  small_crossbar.compile.crossbar_rows = 128;
  small_crossbar.compile.crossbar_cols = 128;
  small_crossbar.accelerator.tile.crossbar.rows = 128;
  small_crossbar.accelerator.tile.crossbar.cols = 128;
  (void)run_gemm(small_crossbar);
  expect_same_run(first, run_gemm());
}

TEST(HarnessTest, SpelledOutDefaultsMatchTheDefaultRun) {
  HarnessOptions spelled;
  spelled.compile.crossbar_rows = 256;
  spelled.compile.crossbar_cols = 256;
  spelled.accelerator.tile.crossbar.rows = 256;
  spelled.accelerator.tile.crossbar.cols = 256;
  spelled.accelerator.energy.write_latency_per_row =
      support::Duration::from_us(2.5);
  spelled.runtime.stream.depth = 2;
  spelled.runtime.xfer.async_copies = true;
  spelled.runtime.double_buffering = true;
  expect_same_run(run_gemm(), run_gemm(spelled));
}

}  // namespace
}  // namespace tdo::pb
