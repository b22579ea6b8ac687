// Tests for the evaluation harness: every run builds a fresh platform, so a
// run's report depends only on its workload and options. bench_paper relies
// on this to print one run in several tables (the default gemm run is the
// Figure 6 bar, the ON row of two ablations and one point of each DSE sweep).
#include "polybench/harness.hpp"

#include <gtest/gtest.h>

#include "polybench/workloads.hpp"

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
