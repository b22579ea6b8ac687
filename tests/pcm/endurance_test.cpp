// Tests for the PCM lifetime model, Eq. (1) of the paper:
// SystemLifeTime = CellEndurance * S / B.
#include "pcm/endurance.hpp"

#include <gtest/gtest.h>

namespace tdo::pcm {
namespace {

TEST(EnduranceTest, LifetimeIsEnduranceTimesSizeOverWriteTraffic) {
  // 1 MB/s of writes into a 512 KiB crossbar whose cells take 10 M writes.
  const WriteTraffic traffic{1'000'000, support::Duration::from_sec(1.0)};
  EXPECT_DOUBLE_EQ(traffic.bytes_per_second(), 1e6);
  const double expected_seconds = 10e6 * 512.0 * 1024.0 / 1e6;
  EXPECT_DOUBLE_EQ(system_lifetime_years(10'000'000, 512 * 1024, traffic),
                   expected_seconds / kSecondsPerYear);
}

TEST(EnduranceTest, HalvingWriteTrafficDoublesLifetime) {
  // Figure 5's argument: fusion halves the bytes written in the same time.
  const support::Duration time = support::Duration::from_ms(3.0);
  const WriteTraffic naive{131072, time};
  const WriteTraffic smart{65536, time};
  const double naive_years = system_lifetime_years(20'000'000, 4096, naive);
  EXPECT_GT(naive_years, 0.0);
  EXPECT_DOUBLE_EQ(system_lifetime_years(20'000'000, 4096, smart),
                   2.0 * naive_years);
  // Linear in both the cell endurance and the crossbar size.
  EXPECT_DOUBLE_EQ(system_lifetime_years(40'000'000, 4096, naive),
                   2.0 * naive_years);
  EXPECT_DOUBLE_EQ(system_lifetime_years(20'000'000, 8192, naive),
                   2.0 * naive_years);
}

TEST(EnduranceTest, NoWriteTrafficReportsZero) {
  EXPECT_EQ(system_lifetime_years(10'000'000, 4096, WriteTraffic{}), 0.0);
  const WriteTraffic instant{4096, support::Duration::zero()};
  EXPECT_EQ(system_lifetime_years(10'000'000, 4096, instant), 0.0);
}

}  // namespace
}  // namespace tdo::pcm
