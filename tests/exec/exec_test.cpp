// Interpreter tests: functional loop-nest execution (bounds, steps, min
// clamps, accumulation, out-of-range subscripts), host cost-model behaviour
// (register promotion, unroll amortization, cache-stall accounting) and
// snapshots of the host model's counters from a second thread.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "sim/system.hpp"

namespace tdo::exec {
namespace {

[[nodiscard]] Program program_from(const std::string& source) {
  auto fn = frontend::parse_kernel(source);
  EXPECT_TRUE(fn.is_ok()) << fn.status().to_string();
  return host_only_program(*fn);
}

TEST(InterpreterTest, ExecutesSimpleAssignments) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 8) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = 2.0 * A[i] + 1.0;
}
)");
  ASSERT_TRUE(interp.prepare(program).is_ok());
  ASSERT_TRUE(interp.set_array("A", std::vector<float>(8, 3.0f)).is_ok());
  ASSERT_TRUE(interp.run(program).is_ok());
  const auto result = interp.get_array("A");
  for (const float v : *result) EXPECT_FLOAT_EQ(v, 7.0f);
  EXPECT_EQ(interp.statements_executed(), 8u);
}

TEST(InterpreterTest, HandlesStepsAndNonZeroLowerBounds) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 10) {
  array float A[N];
  for (i = 2; i < N; i += 3)
    A[i] = 1.0;
}
)");
  ASSERT_TRUE(interp.run(program).is_ok());
  const auto a = *interp.get_array("A");
  for (int i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(a[static_cast<std::size_t>(i)],
                    (i == 2 || i == 5 || i == 8) ? 1.0f : 0.0f)
        << i;
  }
}

TEST(InterpreterTest, MinBoundClampsTailTiles) {
  using namespace ir;  // NOLINT: builder DSL
  Function fn;
  fn.name = "tail";
  fn.arrays.push_back(ArrayDecl{"A", {10}});
  // for (ii = 0; ii < 10; ii += 4) for (i = ii; i < min(ii+4, 10); i++) A[i] = 1
  fn.body.push_back(make_loop(
      "ii", cst(0), Bound::of(cst(10)), 4,
      {make_loop("i", iv("ii"), Bound::min_of(iv("ii") + cst(4), cst(10)), 1,
                 {make_assign(ref("A", {iv("i")}), make_const(1.0))})}));
  ASSERT_TRUE(fn.validate().is_ok());

  sim::System system;
  Interpreter interp{system, nullptr};
  ASSERT_TRUE(interp.run(host_only_program(fn)).is_ok());
  const auto result = interp.get_array("A");
  for (const float v : *result) EXPECT_FLOAT_EQ(v, 1.0f);
  EXPECT_EQ(interp.statements_executed(), 10u);  // not 12: tail clamped
}

TEST(InterpreterTest, ScalarParamsResolve) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 4, alpha = 2.5) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = alpha;
}
)");
  ASSERT_TRUE(interp.run(program).is_ok());
  const auto result = interp.get_array("A");
  for (const float v : *result) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(InterpreterTest, RuntimeCallWithoutRuntimeFails) {
  sim::System system;
  Interpreter interp{system, nullptr};
  Program program;
  program.items.push_back(CimInitOp{0});
  const auto status = interp.run(program);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), support::StatusCode::kFailedPrecondition);
}

TEST(InterpreterTest, UnknownArrayInSetArrayFails) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 4) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = 1.0;
}
)");
  ASSERT_TRUE(interp.prepare(program).is_ok());
  EXPECT_FALSE(interp.set_array("B", std::vector<float>(4)).is_ok());
  EXPECT_FALSE(interp.set_array("A", std::vector<float>(5)).is_ok());
}

TEST(InterpreterTest, OutOfRangeLoadFails) {
  // B[i] = A[i + shift] over i in [0, 8) with an 8-element A: far past A's
  // pages, just past its end (still inside its page) and negative. Each
  // fails with a status on the first statement; none crashes or reads the
  // neighbouring array.
  using namespace ir;  // NOLINT: builder DSL
  for (const std::int64_t shift : {std::int64_t{1} << 20, std::int64_t{8},
                                   std::int64_t{-9}}) {
    Function fn;
    fn.name = "oob";
    fn.arrays.push_back(ArrayDecl{"A", {8}});
    fn.arrays.push_back(ArrayDecl{"B", {8}});
    fn.body.push_back(make_loop(
        "i", 8,
        {make_assign(ref("B", {iv("i")}), make_load("A", {iv("i") + cst(shift)}))}));
    sim::System system;
    Interpreter interp{system, nullptr};
    const support::Status status = interp.run(host_only_program(fn));
    EXPECT_EQ(status.code(), support::StatusCode::kOutOfRange)
        << "shift " << shift << ": " << status.to_string();
    EXPECT_EQ(interp.statements_executed(), 1u) << "shift " << shift;
    EXPECT_EQ(system.snapshot().counter_or("host.mem_instructions"), 0u)
        << "shift " << shift;
  }
}

TEST(InterpreterTest, OutOfRangeStoreFails) {
  using namespace ir;  // NOLINT: builder DSL
  Function fn;
  fn.name = "oob";
  fn.arrays.push_back(ArrayDecl{"A", {8}});
  fn.body.push_back(make_loop(
      "i", 8, {make_assign(ref("A", {iv("i") * 2}), make_const(1.0))}));
  sim::System system;
  Interpreter interp{system, nullptr};
  EXPECT_EQ(interp.run(host_only_program(fn)).code(),
            support::StatusCode::kOutOfRange);
  // A[0], A[2], A[4] and A[6] were stored before A[8] failed.
  EXPECT_EQ(interp.statements_executed(), 5u);
}

// --- cost model behaviour ---

[[nodiscard]] std::uint64_t run_and_count_insts(const std::string& source,
                                                CostModelParams cost) {
  sim::System system;
  Interpreter interp{system, nullptr, cost};
  const Program program = program_from(source);
  EXPECT_TRUE(interp.run(program).is_ok());
  return system.cpu().instructions();
}

TEST(CostModelTest, AccumulatorPromotionRemovesLhsTraffic) {
  const std::string reduction = R"(
kernel k(N = 64) {
  array float A[N][N];
  array float y[N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      y[i] += A[i][j] * A[i][j];
}
)";
  CostModelParams with;
  CostModelParams without;
  without.promote_accumulators = false;
  const auto promoted = run_and_count_insts(reduction, with);
  const auto unpromoted = run_and_count_insts(reduction, without);
  // Promotion removes ~2 memory instructions per inner iteration.
  EXPECT_LT(promoted + 64 * 64, unpromoted);
}

TEST(CostModelTest, PromotionDoesNotApplyWhenLhsVariesInnermost) {
  const std::string elementwise = R"(
kernel k(N = 64) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] += 1.0;
}
)";
  CostModelParams with;
  CostModelParams without;
  without.promote_accumulators = false;
  EXPECT_EQ(run_and_count_insts(elementwise, with),
            run_and_count_insts(elementwise, without));
}

TEST(CostModelTest, UnrollFactorAmortizesLoopOverhead) {
  const std::string loop = R"(
kernel k(N = 256) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = 1.0;
}
)";
  CostModelParams u1;
  u1.unroll_factor = 1;
  CostModelParams u4;
  u4.unroll_factor = 4;
  const auto unrolled = run_and_count_insts(loop, u4);
  const auto rolled = run_and_count_insts(loop, u1);
  // 256 iterations x 2 bookkeeping insts x 3/4 saved = 384.
  EXPECT_EQ(rolled - unrolled, 384u);
}

TEST(CostModelTest, CacheStallsDependOnLocality) {
  // Column-major walk over a large array stalls more than row-major.
  const std::string row_major = R"(
kernel k(N = 512) {
  array float A[N][N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      A[i][j] = 1.0;
}
)";
  const std::string col_major = R"(
kernel k(N = 512) {
  array float A[N][N];
  for (j = 0; j < N; j++)
    for (i = 0; i < N; i++)
      A[i][j] = 1.0;
}
)";
  auto cycles = [](const std::string& source) {
    sim::System system;
    Interpreter interp{system, nullptr};
    EXPECT_TRUE(interp.run(program_from(source)).is_ok());
    return system.cpu().cycles();
  };
  EXPECT_GT(cycles(col_major), cycles(row_major) * 2);
}

// --- single-writer host counters ---

[[nodiscard]] bool is_host_model_stat(const std::string& name) {
  return name.starts_with("host.") || name.starts_with("l1d.") ||
         name.starts_with("l2.") || name == "mem.dram_accesses";
}

/// Runs a 32^3 matrix-multiply host nest and returns the host model's final
/// counters and energy. With `reader`, a second thread snapshots the
/// registry in a loop for the whole run and checks each counter never
/// decreases between its snapshots.
[[nodiscard]] support::StatsSnapshot host_stats_of_run(bool reader) {
  sim::System system;
  Interpreter interp{system, nullptr};
  const Program program = program_from(R"(
kernel k(N = 32) {
  array float A[N][N];
  array float B[N][N];
  array float C[N][N];
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < N; k++)
        C[i][j] += A[i][k] * B[k][j];
}
)");
  std::atomic<bool> done{false};
  std::atomic<bool> started{false};
  std::thread snapshots;
  if (reader) {
    snapshots = std::thread([&] {
      support::StatsSnapshot last = system.snapshot();
      started.store(true);
      while (!done.load()) {
        support::StatsSnapshot now = system.snapshot();
        for (const auto& [name, value] : now.counters) {
          EXPECT_GE(value, last.counter_or(name)) << name;
        }
        last = std::move(now);
      }
    });
    while (!started.load()) std::this_thread::yield();
  }
  const support::Status status = interp.run(program);
  done.store(true);
  if (snapshots.joinable()) snapshots.join();
  EXPECT_TRUE(status.is_ok()) << status.to_string();

  const support::StatsSnapshot all = system.snapshot();
  support::StatsSnapshot out;
  for (const auto& [name, value] : all.counters) {
    if (is_host_model_stat(name)) out.counters[name] = value;
  }
  for (const auto& [name, value] : all.energies_pj) {
    if (is_host_model_stat(name)) out.energies_pj[name] = value;
  }
  return out;
}

// HostCpu and the caches count with single-writer relaxed stores
// (Counter::add_local) and accumulate energy the same way. A snapshot on
// another thread reads untorn values and changes no total. The TSan CI job
// runs this test, so a plain (non-atomic) write to a registered stat fails
// there.
TEST(HostStatsTest, ConcurrentSnapshotsLeaveTotalsExact) {
  const support::StatsSnapshot quiet = host_stats_of_run(/*reader=*/false);
  const support::StatsSnapshot observed = host_stats_of_run(/*reader=*/true);
  EXPECT_GT(quiet.counter_or("host.instructions"), 0u);
  EXPECT_GT(quiet.counter_or("l1d.misses"), 0u);
  EXPECT_GT(quiet.counter_or("l2.misses"), 0u);
  EXPECT_EQ(observed.counters, quiet.counters);
  EXPECT_EQ(observed.energies_pj, quiet.energies_pj);
}

TEST(ProgramTest, HostOnlyProgramCarriesDeclarations) {
  auto fn = frontend::parse_kernel(R"(
kernel k(N = 4, alpha = 1.0) {
  array float A[N];
  for (i = 0; i < N; i++)
    A[i] = alpha;
}
)");
  ASSERT_TRUE(fn.is_ok());
  const Program program = host_only_program(*fn);
  EXPECT_EQ(program.arrays.size(), 1u);
  EXPECT_EQ(program.scalars.size(), 1u);
  ASSERT_EQ(program.items.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<HostNest>(program.items[0]));
}

}  // namespace
}  // namespace tdo::exec
