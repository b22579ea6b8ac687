// Unit tests for the PCM crossbar: programming, signed fixed-point GEMV
// exactness and wear accounting. CrossbarPlaneFuzz is re-run by CI with extra
// TDO_FUZZ_SEED values.
#include "pcm/crossbar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
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

[[nodiscard]] std::vector<std::int32_t> gemv(Crossbar& xbar,
                                             std::span<const std::int8_t> in,
                                             std::uint32_t active_rows,
                                             std::uint32_t active_cols,
                                             std::uint32_t row0 = 0) {
  std::vector<std::int32_t> out(active_cols);
  xbar.gemv(in, active_rows, row0, out);
  return out;
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
  const auto acc = gemv(xbar, in, /*active_rows=*/2, /*active_cols=*/8);
  for (std::uint32_t c = 0; c < 8; ++c) {
    const std::int32_t expected = 3 * w0[c] + (-5) * w1[c];
    EXPECT_EQ(acc[c], expected) << "column " << c;
  }
}

TEST(CrossbarTest, GemvHandlesExtremeValuesWithoutOverflow) {
  Crossbar xbar = small_crossbar(4, 4);
  const std::vector<std::int8_t> row(4, 127);
  for (std::uint32_t r = 0; r < 4; ++r) xbar.write_row(r, row);
  const std::vector<std::int8_t> in(4, 127);
  const auto acc = gemv(xbar, in, 4, 4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(acc[c], 4 * 127 * 127);
  }
}

TEST(CrossbarTest, UnprogrammedColumnsContributeZero) {
  Crossbar xbar = small_crossbar();
  // Never programmed: the offset-corrected result of any input must be the
  // dot product with the stored weights, which are all "-128 offset" zeros
  // only after programming; fresh cells hold level 0 == offset-encoded -128.
  const std::vector<std::int8_t> in = {1, 2, 3};
  const auto acc = gemv(xbar, in, 3, 4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(acc[c], (1 + 2 + 3) * -128);
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

TEST(CrossbarTest, WornOutDetectionAfterEnduranceLimit) {
  CrossbarParams params;
  params.rows = 1;
  params.cols = 1;
  params.endurance_writes = 3;
  Crossbar xbar{params};
  const std::vector<std::int8_t> row = {1};
  EXPECT_EQ(xbar.worn_cells(), 0u);
  xbar.write_row(0, row);
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.worn_cells(), 0u);
  xbar.write_row(0, row);
  EXPECT_EQ(xbar.worn_cells(), 2u);  // both nibble cells hit the limit
}

// Random programming sequences (partial rows, clear_tail, rewrites,
// never-programmed rows) checked against a shadow matrix of the written
// weights and a per-weight write count. The limit of 3 writes makes worn
// counts cross the endurance limit, so a worn check that counts past the
// crossing shows, and GEMV windows at any row0 read whole columns, so a
// transposed plane index shows.
TEST(CrossbarPlaneFuzz, GemvAndWearMatchShadowReference) {
  support::Rng rng{testing::fuzz_seed()};
  for (int round = 0; round < 40; ++round) {
    CrossbarParams params;
    params.rows = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
    params.cols = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
    params.endurance_writes = 3;
    Crossbar xbar{params};
    const auto at = [&](std::uint32_t row, std::size_t col) {
      return row * std::size_t{params.cols} + col;
    };
    std::vector<std::int8_t> shadow(std::size_t{params.rows} * params.cols, -128);
    std::vector<std::uint64_t> writes(shadow.size(), 0);

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
          shadow[at(row, c)] = c < weights.size() ? weights[c] : 0;
          ++writes[at(row, c)];
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
        const auto acc = gemv(xbar, in, active_rows, active_cols, row0);
        for (std::uint32_t c = 0; c < active_cols; ++c) {
          std::int64_t expected = 0;
          for (std::uint32_t r = 0; r < active_rows; ++r) {
            expected += std::int64_t{in[r]} * shadow[at(row0 + r, c)];
          }
          ASSERT_EQ(acc[c], expected)
              << "round " << round << " op " << op << " col " << c;
        }
      }
      ASSERT_EQ(xbar.total_cell_writes(),
                2 * std::accumulate(writes.begin(), writes.end(),
                                    std::uint64_t{0}))
          << "round " << round << " op " << op;
      ASSERT_EQ(xbar.max_cell_writes(),
                *std::max_element(writes.begin(), writes.end()))
          << "round " << round << " op " << op;
      ASSERT_EQ(xbar.worn_cells(),
                2 * static_cast<std::uint64_t>(std::count_if(
                        writes.begin(), writes.end(), [&](std::uint64_t w) {
                          return w >= params.endurance_writes;
                        })))
          << "round " << round << " op " << op;
    }
    for (std::uint32_t r = 0; r < params.rows; ++r) {
      for (std::uint32_t c = 0; c < params.cols; ++c) {
        ASSERT_EQ(xbar.weight_at(r, c), shadow[at(r, c)])
            << "round " << round << " row " << r << " col " << c;
      }
    }
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

  const auto acc = gemv(xbar, in, params.rows, params.cols);
  for (int c = 0; c < cols; ++c) {
    std::int64_t expected = 0;
    for (int r = 0; r < rows; ++r) {
      expected += static_cast<std::int64_t>(in[r]) * w[r][c];
    }
    EXPECT_EQ(acc[c], expected) << "col " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossbarGemvPropertyTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{7, 3, 2},
                      std::tuple{16, 16, 3}, std::tuple{64, 32, 4},
                      std::tuple{256, 256, 5}, std::tuple{33, 257 - 1, 6}));

}  // namespace
}  // namespace tdo::pcm
