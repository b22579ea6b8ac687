// Unit tests for the CIM accelerator building blocks: tile, ADC array,
// DMA timing, micro-engine timelines and the batched-reuse protocol.
#include <gtest/gtest.h>

#include "cim/cim_tile.hpp"
#include "cim/context_regs.hpp"
#include "cim/dma.hpp"
#include "pcm/adc.hpp"
#include "testing/fixture.hpp"

namespace tdo::cim {
namespace {

TEST(ContextRegsTest, TypedAccessors) {
  ContextRegs regs;
  regs.write_f32(Reg::kAlpha, 1.5f);
  EXPECT_FLOAT_EQ(regs.read_f32(Reg::kAlpha), 1.5f);
  regs.write_f64(Reg::kScaleA, 0.0123);
  EXPECT_DOUBLE_EQ(regs.read_f64(Reg::kScaleA), 0.0123);
  regs.set_status(DeviceStatus::kBusy);
  EXPECT_EQ(regs.status(), DeviceStatus::kBusy);
}

TEST(TileTest, ProgramTileAndReadBack) {
  TileParams params;
  params.crossbar.rows = 8;
  params.crossbar.cols = 8;
  CimTile tile{params};
  std::vector<std::int8_t> data(64);
  for (int i = 0; i < 64; ++i) data[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i - 32);
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(tile.program_row(r, std::span(data).subspan(r * 8, 8)), 8u);
  }
  EXPECT_EQ(tile.stats().weight_writes8, 64u);
  EXPECT_EQ(tile.stats().rows_programmed, 8u);
  for (std::uint32_t r = 0; r < 8; ++r) {
    for (std::uint32_t c = 0; c < 8; ++c) {
      EXPECT_EQ(tile.crossbar().weight_at(r, c),
                static_cast<std::int8_t>(static_cast<int>(r * 8 + c) - 32));
    }
  }
}

TEST(TileTest, GemvCountsMacsAndBufferTraffic) {
  TileParams params;
  params.crossbar.rows = 16;
  params.crossbar.cols = 8;
  CimTile tile{params};
  std::vector<std::int8_t> row(8, 3);
  for (std::uint32_t r = 0; r < 16; ++r) (void)tile.program_row(r, row);
  const std::uint64_t bytes_before = tile.stats().buffer_byte_accesses;
  std::vector<std::int8_t> in(16, 2);
  std::vector<std::int32_t> acc(8);
  tile.gemv(in, 16, /*row0=*/0, acc);
  for (const auto v : acc) EXPECT_EQ(v, 16 * 2 * 3);
  EXPECT_EQ(tile.stats().gemv_ops, 1u);
  EXPECT_EQ(tile.stats().mac8_ops, 16u * 8u);
  // Row buffer in (16B) + output buffer (8 x 4B).
  EXPECT_EQ(tile.stats().buffer_byte_accesses - bytes_before, 16u + 32u);
}

TEST(TileTest, PostprocessAppliesAlphaBetaAndScale) {
  CimTile tile{TileParams{}};
  const std::vector<std::int32_t> acc = {1000, -200};
  const std::vector<float> previous = {4.0f, 2.0f};
  std::vector<float> out(2);
  tile.postprocess(acc, /*scale=*/0.01, /*alpha=*/2.0f, /*beta=*/0.5f, previous,
                   out);
  EXPECT_FLOAT_EQ(out[0], 2.0f * 10.0f + 0.5f * 4.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f * -2.0f + 0.5f * 2.0f);
  EXPECT_EQ(tile.stats().extra_alu_ops, 6u);  // three per element
}

TEST(AdcTest, SharingFactorDeterminesCountAndWaves) {
  pcm::AdcArray adc{pcm::AdcParams{.columns_per_adc = 8}, 512};
  EXPECT_EQ(adc.adc_count(), 64u);
  EXPECT_EQ(adc.conversion_waves(), 8u);
}

// Conversion reads the signed column sums without changing them (a negative
// dot product stays negative) and counts one conversion per column.
TEST(AdcTest, ConvertCountsOneConversionPerColumn) {
  pcm::AdcArray adc{pcm::AdcParams{}, 8};
  const std::vector<std::int32_t> raw = {100000, -5, 7};
  adc.convert(raw);
  adc.convert(std::span<const std::int32_t>{raw}.first(1));
  EXPECT_EQ(adc.conversions(), 4u);
}

TEST(DmaTest, BlockTransferTimingScalesWithSize) {
  sim::SimMemory memory{1 << 20};
  Dma dma{DmaParams{}, memory};
  std::vector<std::uint8_t> buf(1024);
  const auto t1k = dma.read_block(0, buf);
  std::vector<std::uint8_t> buf4(4096);
  const auto t4k = dma.read_block(0, buf4);
  EXPECT_GT(t4k.picoseconds(), t1k.picoseconds() * 2);
  EXPECT_EQ(dma.bytes_read(), 1024u + 4096u);
  EXPECT_EQ(dma.bursts(), 2u);
}

TEST(DmaTest, StridedTransfersGatherAndCostMore) {
  sim::SimMemory memory{1 << 20};
  Dma dma{DmaParams{}, memory};
  // Write a column pattern: element i at stride 256.
  for (std::uint32_t i = 0; i < 16; ++i) {
    memory.write_scalar<float>(i * 256, static_cast<float>(i));
  }
  std::vector<std::uint8_t> out(16 * 4);
  const auto t_strided = dma.read_strided(0, 256, 4, 16, out);
  for (std::uint32_t i = 0; i < 16; ++i) {
    float v;
    std::memcpy(&v, out.data() + i * 4, 4);
    EXPECT_EQ(v, static_cast<float>(i));
  }
  std::vector<std::uint8_t> block(16 * 4);
  const auto t_block = dma.read_block(0, block);
  EXPECT_GT(t_strided.picoseconds(), t_block.picoseconds());
}

TEST(EngineTest, TimelineSeparatesWeightAndStreamPhases) {
  testing::Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto a = testing::random_matrix(32 * 32, 1.0, 1);
  const auto b = testing::random_matrix(32 * 32, 1.0, 2);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(32 * 32);
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(32, 32, 32, 1.0f, va_a, 32, va_b, 32, 0.0f, va_c,
                               32, StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  const JobTimeline& timeline = p.accel().last_timeline();
  // Weight phase: 32 rows x 2.5 us = 80 us (plus DMA pipeline fill).
  EXPECT_NEAR(timeline.weight_phase().microseconds(), 80.0, 5.0);
  // Stream phase: 32 GEMVs x 1 us pipelined.
  EXPECT_NEAR(timeline.stream_phase().microseconds(), 32.0, 5.0);
  EXPECT_EQ(timeline.done - timeline.trigger,
            timeline.total().ticks());
}

TEST(EngineTest, SkipWeightLoadOnlyInsideBatch) {
  // Two identical sgemm calls: the engine must NOT reuse the tile across
  // independent jobs (no cross-job guarantee), so B is written twice.
  testing::Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto a = testing::random_matrix(16 * 16, 1.0, 1);
  const auto b = testing::random_matrix(16 * 16, 1.0, 2);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(16 * 16);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(p.runtime()
                    .sgemm_async(16, 16, 16, 1.0f, va_a, 16, va_b, 16, 0.0f,
                                 va_c, 16, StationaryOperand::kB)
                    .is_ok());
    ASSERT_TRUE(p.runtime().synchronize().is_ok());
  }
  EXPECT_EQ(p.accel().report().weight_writes8, 2u * 16u * 16u);
}

TEST(EngineTest, BatchedDistinctStationariesAllProgram) {
  // Batched call where B differs per item: no reuse is possible; every
  // stationary must be programmed.
  testing::Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto a = testing::random_matrix(16 * 16, 1.0, 1);
  const auto b1 = testing::random_matrix(16 * 16, 1.0, 2);
  const auto b2 = testing::random_matrix(16 * 16, 1.0, 3);
  const auto va_a = p.upload(a);
  const auto va_b1 = p.upload(b1);
  const auto va_b2 = p.upload(b2);
  const auto va_c1 = p.device_zeros(16 * 16);
  const auto va_c2 = p.device_zeros(16 * 16);
  const std::vector<rt::GemmBatchItem> items = {{va_a, va_b1, va_c1},
                                                {va_a, va_b2, va_c2}};
  ASSERT_TRUE(p.runtime()
                  .sgemm_batched_async(16, 16, 16, 1.0f, items, 16, 16, 0.0f,
                                       16, StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  EXPECT_EQ(p.accel().report().weight_writes8, 2u * 16u * 16u);
}

TEST(EngineTest, GemvIntensityIsOne) {
  testing::Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto a = testing::random_matrix(64 * 48, 1.0, 5);
  const auto x = testing::random_matrix(48, 1.0, 6);
  const auto va_a = p.upload(a);
  const auto va_x = p.upload(x);
  const auto va_y = p.device_zeros(64);
  ASSERT_TRUE(p.runtime()
                  .sgemv_async(false, 64, 48, 1.0f, va_a, 48, va_x, 0.0f, va_y)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  // Every written weight participates in exactly one MAC.
  EXPECT_DOUBLE_EQ(p.accel().report().macs_per_cim_write(), 1.0);
}

class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, ResultWithinQuantBoundAcrossShapes) {
  const auto [m, n, k] = GetParam();
  testing::Platform p;
  ASSERT_TRUE(p.runtime().init(0).is_ok());
  const auto a = testing::random_matrix(static_cast<std::size_t>(m * k), 1.0, 11);
  const auto b = testing::random_matrix(static_cast<std::size_t>(k * n), 1.0, 12);
  const auto va_a = p.upload(a);
  const auto va_b = p.upload(b);
  const auto va_c = p.device_zeros(static_cast<std::size_t>(m * n));
  ASSERT_TRUE(p.runtime()
                  .sgemm_async(static_cast<std::uint64_t>(m),
                               static_cast<std::uint64_t>(n),
                               static_cast<std::uint64_t>(k), 1.0f, va_a,
                               static_cast<std::uint64_t>(k), va_b,
                               static_cast<std::uint64_t>(n), 0.0f, va_c,
                               static_cast<std::uint64_t>(n),
                               StationaryOperand::kB)
                  .is_ok());
  ASSERT_TRUE(p.runtime().synchronize().is_ok());
  std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
  testing::ref_gemm(static_cast<std::size_t>(m), static_cast<std::size_t>(n),
                    static_cast<std::size_t>(k), 1.0f, a,
                    static_cast<std::size_t>(k), b, static_cast<std::size_t>(n),
                    0.0f, ref, static_cast<std::size_t>(n));
  const auto got = p.read_floats(va_c, static_cast<std::size_t>(m * n));
  const double bound = support::dot_quant_error_bound(1.0, 1.0,
                                                      static_cast<std::size_t>(k)) +
                       1e-3;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], bound) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 17, 5},
                      std::tuple{31, 1, 9}, std::tuple{7, 9, 300},
                      std::tuple{300, 5, 7}, std::tuple{5, 300, 7},
                      std::tuple{64, 64, 64}, std::tuple{257, 257, 257}));

}  // namespace
}  // namespace tdo::cim
