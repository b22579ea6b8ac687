// Unit tests for the PCM crossbar: programming, signed fixed-point GEMV
// exactness, wear accounting, and noise behaviour. CrossbarPlaneFuzz is
// re-run by CI with extra TDO_FUZZ_SEED values.
#include "pcm/crossbar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "support/rng.hpp"
#include "testing/fixture.hpp"

namespace tdo::pcm {
namespace {

[[nodiscard]] Crossbar small_crossbar(std::uint32_t rows = 8,
                                      std::uint32_t cols = 8) {
  CrossbarParams params;
  params.rows = rows;
  params.cols = cols;
  return Crossbar{params};
}

TEST(CrossbarTest, StoresAndReadsBackSigned8BitWeights) {
  Crossbar xbar = small_crossbar();
  const std::vector<std::int8_t> row = {-128, -127, -1, 0, 1, 63, 64, 127};
  xbar.write_row(0, row);
  for (std::size_t c = 0; c < row.size(); ++c) {
    EXPECT_EQ(xbar.weight_at(0, static_cast<std::uint32_t>(c)), row[c])
        << "column " << c;
  }
}

TEST(CrossbarTest, GemvMatchesExactIntegerDotProduct) {
  Crossbar xbar = small_crossbar();
  const std::vector<std::int8_t> w0 = {1, -2, 3, -4, 5, -6, 7, -8};
  const std::vector<std::int8_t> w1 = {127, -127, 64, -64, 32, -32, 0, 1};
  xbar.write_row(0, w0);
  xbar.write_row(1, w1);

  const std::vector<std::int8_t> in = {3, -5};
  const GemvResult result = xbar.gemv(in, /*active_rows=*/2, /*active_cols=*/8);
  ASSERT_EQ(result.acc.size(), 8u);
  for (std::uint32_t c = 0; c < 8; ++c) {
    const std::int32_t expected = 3 * w0[c] + (-5) * w1[c];
    EXPECT_EQ(result.acc[c], expected) << "column " << c;
  }
}

TEST(CrossbarTest, GemvHandlesExtremeValuesWithoutOverflow) {
  Crossbar xbar = small_crossbar(4, 4);
  const std::vector<std::int8_t> row(4, 127);
  for (std::uint32_t r = 0; r < 4; ++r) xbar.write_row(r, row);
  const std::vector<std::int8_t> in(4, 127);
  const GemvResult result = xbar.gemv(in, 4, 4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(result.acc[c], 4 * 127 * 127);
  }
}

TEST(CrossbarTest, UnprogrammedColumnsContributeZero) {
  Crossbar xbar = small_crossbar();
  // Never programmed: the offset-corrected result of any input must be the
  // dot product with the stored weights, which are all "-128 offset" zeros
  // only after programming; fresh cells hold level 0 == offset-encoded -128.
  const std::vector<std::int8_t> in = {1, 2, 3};
  const GemvResult result = xbar.gemv(in, 3, 4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(result.acc[c], (1 + 2 + 3) * -128);
  }
}

TEST(CrossbarTest, WearAccountingCountsEveryProgrammingPulse) {
  Crossbar xbar = small_crossbar(4, 4);
  const std::vector<std::int8_t> row = {1, 2, 3, 4};
  EXPECT_EQ(xbar.write_row(0, row), 8u);  // 4 weights x 2 nibble cells
  EXPECT_EQ(xbar.total_cell_writes(), 8u);
  // Rewriting the same values still wears the cells (RESET+SET sequence).
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.total_cell_writes(), 16u);
  EXPECT_EQ(xbar.max_cell_writes(), 2u);
}

TEST(CrossbarTest, PartialRowWriteOnlyTouchesPrefix) {
  Crossbar xbar = small_crossbar(4, 8);
  const std::vector<std::int8_t> row = {9, 9};
  EXPECT_EQ(xbar.write_row(1, row), 4u);  // 2 weights x 2 cells
  EXPECT_EQ(xbar.weight_at(1, 0), 9);
  EXPECT_EQ(xbar.weight_at(1, 1), 9);
  EXPECT_EQ(xbar.total_cell_writes(), 4u);
}

TEST(CrossbarTest, ClearTailProgramsWholeRow) {
  Crossbar xbar = small_crossbar(2, 4);
  const std::vector<std::int8_t> row = {5};
  EXPECT_EQ(xbar.write_row(0, row, /*clear_tail=*/true), 8u);
  EXPECT_EQ(xbar.weight_at(0, 0), 5);
  for (std::uint32_t c = 1; c < 4; ++c) EXPECT_EQ(xbar.weight_at(0, c), 0);
}

TEST(CrossbarTest, ReadNoisePerturbsButTracksIdealResult) {
  CrossbarParams params;
  params.rows = 16;
  params.cols = 4;
  params.cell.read_noise_sigma = 0.01;
  Crossbar xbar{params};
  const std::vector<std::int8_t> row(4, 100);
  for (std::uint32_t r = 0; r < 16; ++r) xbar.write_row(r, row);
  const std::vector<std::int8_t> in(16, 50);
  support::Rng rng{42};
  const GemvResult noisy = xbar.gemv(in, 16, 4, &rng);
  const std::int32_t ideal = 16 * 50 * 100;
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_NE(noisy.acc[c], 0);
    // 1% device noise must stay well within 10% of the ideal accumulation.
    EXPECT_NEAR(static_cast<double>(noisy.acc[c]), static_cast<double>(ideal),
                0.1 * ideal);
  }
}

TEST(CrossbarTest, WornOutDetectionAfterEnduranceLimit) {
  CrossbarParams params;
  params.rows = 1;
  params.cols = 1;
  params.cell.endurance_writes = 3;
  Crossbar xbar{params};
  const std::vector<std::int8_t> row = {1};
  EXPECT_EQ(xbar.worn_cells(), 0u);
  xbar.write_row(0, row);
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.worn_cells(), 0u);
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.worn_cells(), 2u);  // both nibble cells hit the limit
}

// The noise-free GEMV reads the weight plane while weight_at decodes the
// nibble cells, so random programming sequences (partial rows, clear_tail,
// rewrites, never-programmed rows) must keep the two views equal. Wear is
// checked against a per-cell write count kept by the test.
TEST(CrossbarPlaneFuzz, GemvMatchesCellDecodedReference) {
  support::Rng rng{testing::fuzz_seed()};
  for (int round = 0; round < 40; ++round) {
    CrossbarParams params;
    params.rows = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
    params.cols = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
    params.cell.endurance_writes =
        static_cast<std::uint64_t>(rng.uniform_int(2, 8));
    Crossbar xbar{params};
    std::vector<std::uint64_t> cell_writes(
        static_cast<std::size_t>(params.rows) * params.cols * 2, 0);

    for (int op = 0; op < 60; ++op) {
      if (rng.chance(0.5)) {
        const auto row =
            static_cast<std::uint32_t>(rng.uniform_int(0, params.rows - 1));
        std::vector<std::int8_t> weights(
            static_cast<std::size_t>(rng.uniform_int(0, params.cols)));
        for (auto& w : weights) {
          w = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        const bool clear_tail = rng.chance(0.3);
        const std::size_t programmed = clear_tail ? params.cols : weights.size();
        ASSERT_EQ(xbar.write_row(row, weights, clear_tail), 2 * programmed);
        for (std::size_t c = 0; c < programmed; ++c) {
          const std::int8_t expected = c < weights.size() ? weights[c] : 0;
          ASSERT_EQ(xbar.weight_at(row, static_cast<std::uint32_t>(c)), expected);
          const std::size_t cell = (row * std::size_t{params.cols} + c) * 2;
          ++cell_writes[cell];
          ++cell_writes[cell + 1];
        }
      } else {
        const auto row0 =
            static_cast<std::uint32_t>(rng.uniform_int(0, params.rows - 1));
        const auto active_rows =
            static_cast<std::uint32_t>(rng.uniform_int(0, params.rows - row0));
        const auto active_cols =
            static_cast<std::uint32_t>(rng.uniform_int(0, params.cols));
        std::vector<std::int8_t> in(active_rows);
        for (auto& v : in) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        const GemvResult result = xbar.gemv(in, active_rows, active_cols, nullptr, row0);
        ASSERT_EQ(result.acc.size(), active_cols);
        for (std::uint32_t c = 0; c < active_cols; ++c) {
          std::int64_t expected = 0;
          for (std::uint32_t r = 0; r < active_rows; ++r) {
            expected += std::int64_t{in[r]} * xbar.weight_at(row0 + r, c);
          }
          ASSERT_EQ(result.acc[c], expected)
              << "round " << round << " op " << op << " col " << c;
        }
      }
    }
    EXPECT_EQ(xbar.total_cell_writes(),
              std::accumulate(cell_writes.begin(), cell_writes.end(),
                              std::uint64_t{0}));
    EXPECT_EQ(xbar.max_cell_writes(),
              *std::max_element(cell_writes.begin(), cell_writes.end()));
    EXPECT_EQ(xbar.worn_cells(),
              static_cast<std::uint64_t>(std::count_if(
                  cell_writes.begin(), cell_writes.end(), [&](std::uint64_t w) {
                    return w >= params.cell.endurance_writes;
                  })));
  }
}

class CrossbarGemvPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CrossbarGemvPropertyTest, MatchesIntegerReferenceOnRandomData) {
  const auto [rows, cols, seed] = GetParam();
  CrossbarParams params;
  params.rows = static_cast<std::uint32_t>(rows);
  params.cols = static_cast<std::uint32_t>(cols);
  Crossbar xbar{params};
  support::Rng rng{static_cast<std::uint64_t>(seed)};

  std::vector<std::vector<std::int8_t>> w(rows, std::vector<std::int8_t>(cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      w[r][c] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    xbar.write_row(static_cast<std::uint32_t>(r), w[r]);
  }
  std::vector<std::int8_t> in(rows);
  for (auto& v : in) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));

  const GemvResult result = xbar.gemv(in, params.rows, params.cols);
  for (int c = 0; c < cols; ++c) {
    std::int64_t expected = 0;
    for (int r = 0; r < rows; ++r) {
      expected += static_cast<std::int64_t>(in[r]) * w[r][c];
    }
    EXPECT_EQ(result.acc[c], expected) << "col " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossbarGemvPropertyTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{7, 3, 2},
                      std::tuple{16, 16, 3}, std::tuple{64, 32, 4},
                      std::tuple{256, 256, 5}, std::tuple{33, 257 - 1, 6}));

}  // namespace
}  // namespace tdo::pcm
