// Unit tests for the support layer: units, status, stats, quantization,
// tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "support/ewma.hpp"
#include "support/fixed_point.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/status.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace tdo::support {
namespace {

using namespace tdo::support::literals;

TEST(EwmaTest, FirstSampleSeedsThenBlendsWithTheExactExpression) {
  Ewma ewma;
  EXPECT_FALSE(ewma.seeded());
  ewma.observe(0.1, 0.3);  // seeds: alpha is ignored
  EXPECT_TRUE(ewma.seeded());
  EXPECT_EQ(ewma.count, 1u);
  EXPECT_EQ(ewma.value, 0.1);

  // (1 - a) * v + a * x, bit for bit; v + a * (x - v) would give 0.28.
  ewma.observe(0.7, 0.3);
  EXPECT_EQ(ewma.count, 2u);
  EXPECT_EQ(ewma.value, (1.0 - 0.3) * 0.1 + 0.3 * 0.7);
  EXPECT_NE(ewma.value, 0.1 + 0.3 * (0.7 - 0.1));

  // The smoothing factor may change per sample (span-weighted windows).
  const double before = ewma.value;
  ewma.observe(5.1, 0.51);
  EXPECT_EQ(ewma.value, (1.0 - 0.51) * before + 0.51 * 5.1);
  ewma.observe(2.0, 1.0);  // full weight replaces the value
  EXPECT_EQ(ewma.value, 2.0);
  EXPECT_EQ(ewma.count, 4u);
}

TEST(UnitsTest, EnergyConversionsRoundTrip) {
  const Energy e = Energy::from_nj(3.9);
  EXPECT_DOUBLE_EQ(e.picojoules(), 3900.0);
  EXPECT_DOUBLE_EQ(e.microjoules(), 0.0039);
  EXPECT_DOUBLE_EQ((200_fJ).picojoules(), 0.2);
  EXPECT_DOUBLE_EQ((1.5_mJ).joules(), 1.5e-3);
}

TEST(UnitsTest, EnergyArithmeticAndRatios) {
  const Energy a = 100_pJ;
  const Energy b = 50_pJ;
  EXPECT_DOUBLE_EQ((a + b).picojoules(), 150.0);
  EXPECT_DOUBLE_EQ((a - b).picojoules(), 50.0);
  EXPECT_DOUBLE_EQ((a * 3.0).picojoules(), 300.0);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_LT(b, a);
}

TEST(UnitsTest, DurationTicksAndFrequency) {
  const Frequency f = 1.2_GHz;
  EXPECT_NEAR(f.period().picoseconds(), 833.333, 0.001);
  EXPECT_NEAR(f.cycles(1200.0).microseconds(), 1.0, 1e-9);
  EXPECT_NEAR(f.cycles_in(Duration::from_us(1.0)), 1200.0, 1e-6);
  EXPECT_EQ((2.5_us).ticks(), 2'500'000u);
}

TEST(UnitsTest, EdpCombinesEnergyAndTime) {
  EXPECT_DOUBLE_EQ(energy_delay_product(Energy::from_joule(2.0),
                                        Duration::from_sec(3.0)),
                   6.0);
}

TEST(UnitsTest, HumanReadableStrings) {
  EXPECT_EQ((3.9_nJ).to_string(), "3.9 nJ");
  EXPECT_EQ(Duration::from_us(2.5).to_string(), "2.5 us");
  EXPECT_EQ(Frequency::from_ghz(1.2).to_string(), "1.2 GHz");
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status s = invalid_argument("bad");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad");
}

TEST(StatusTest, StatusOrHoldsValueOrStatus) {
  StatusOr<int> good = 42;
  EXPECT_TRUE(good.is_ok());
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad = not_found("nope");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(StatsTest, SnapshotDeltasIsolateRoi) {
  StatsRegistry registry;
  Counter c;
  EnergyAccumulator e;
  registry.register_counter("x", &c);
  registry.register_energy("e", &e);
  c.add(10);
  e.add(Energy::from_pj(5));
  const auto before = registry.snapshot();
  c.add(32);
  e.add(Energy::from_pj(7));
  const auto delta = registry.snapshot().delta_since(before);
  EXPECT_EQ(delta.counter_or("x"), 32u);
  EXPECT_DOUBLE_EQ(delta.energy_or("e").picojoules(), 7.0);
  EXPECT_EQ(delta.counter_or("missing", 99), 99u);
}

TEST(QuantTest, RoundTripWithinHalfStep) {
  const QuantScale q = QuantScale::for_max_abs(2.0);
  for (const double v : {-2.0, -1.3333, -0.001, 0.0, 0.5, 1.9999, 2.0}) {
    const auto code = q.quantize(v);
    EXPECT_NEAR(q.dequantize(code), v, q.scale * 0.5 + 1e-12);
  }
}

TEST(QuantTest, SaturatesAtRange) {
  const QuantScale q = QuantScale::for_max_abs(1.0);
  EXPECT_EQ(q.quantize(50.0), 127);
  EXPECT_EQ(q.quantize(-50.0), -127);
}

// quantize rounds with a bias add instead of std::nearbyint; the two must
// agree on every tie near the clamp range, at the clamp edges and on random
// values, including values far outside the range.
TEST(QuantTest, QuantizeMatchesNearbyintReference) {
  const auto reference = [](const QuantScale& q, double x) {
    const double r = std::nearbyint(x / q.scale);
    return static_cast<std::int8_t>(std::clamp(r, -127.0, 127.0));
  };
  const QuantScale unit{1.0};
  std::vector<double> inputs;
  for (int k = -130; k <= 130; ++k) inputs.push_back(k + 0.5);
  for (const double edge : {127.5, -127.5}) {
    inputs.push_back(std::nextafter(edge, 0.0));
    inputs.push_back(std::nextafter(edge, edge * 2));
    inputs.push_back(edge);
  }
  inputs.push_back(std::numeric_limits<double>::infinity());
  inputs.push_back(-std::numeric_limits<double>::infinity());
  for (const double x : inputs) {
    EXPECT_EQ(unit.quantize(x), reference(unit, x)) << x;
  }
  // Mostly inside the range, 10% past either end of it.
  Rng rng{2026};
  for (int i = 0; i < 100000; ++i) {
    const double max_abs = rng.uniform(1e-3, 10.0);
    const QuantScale q = QuantScale::for_max_abs(max_abs);
    const double x = rng.uniform(-1.1, 1.1) * max_abs;
    ASSERT_EQ(q.quantize(x), reference(q, x)) << x << " scale " << q.scale;
  }
}

TEST(QuantTest, DotErrorBoundIsSane) {
  // Bound must exceed the worst observed quantization error on random data.
  Rng rng{7};
  const std::size_t n = 64;
  std::vector<float> a(n), b(n);
  for (auto& v : a) v = rng.uniform_f(-2.0f, 2.0f);
  for (auto& v : b) v = rng.uniform_f(-3.0f, 3.0f);
  const QuantScale qa = QuantScale::for_max_abs(2.0);
  const QuantScale qb = QuantScale::for_max_abs(3.0);
  double exact = 0.0;
  std::int64_t fixed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    exact += static_cast<double>(a[i]) * b[i];
    fixed += static_cast<std::int64_t>(qa.quantize(a[i])) * qb.quantize(b[i]);
  }
  const double approx = static_cast<double>(fixed) * qa.scale * qb.scale;
  EXPECT_LE(std::abs(exact - approx), dot_quant_error_bound(2.0, 3.0, n));
}

TEST(LatencyHistogramTest, ExactQuantilesOnSmallValues) {
  // Values below 32 ps land in exact unit buckets: nearest-rank quantiles of
  // a known distribution must be exact.
  LatencyHistogram h;
  for (int v = 1; v <= 20; ++v) h.add(Duration::from_ps(v));
  EXPECT_EQ(h.count(), 20u);
  EXPECT_DOUBLE_EQ(h.quantile(0.50).picoseconds(), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95).picoseconds(), 19.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.00).picoseconds(), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0).picoseconds(), 1.0);
  EXPECT_DOUBLE_EQ(h.min().picoseconds(), 1.0);
  EXPECT_DOUBLE_EQ(h.max().picoseconds(), 20.0);
  EXPECT_DOUBLE_EQ(h.mean().picoseconds(), 10.5);
}

TEST(LatencyHistogramTest, BoundedRelativeErrorOnMicrosecondScale) {
  // Serving latencies live in the us..ms range; the log-linear buckets
  // guarantee <= 1/32 relative error per sample, so nearest-rank quantiles
  // of a uniform grid stay within ~2/32 of the exact answer.
  LatencyHistogram h;
  for (int v = 1; v <= 1000; ++v) h.add(Duration::from_us(v));
  const double tolerance = 2.0 / 32.0;
  EXPECT_NEAR(h.quantile(0.50).microseconds(), 500.0, 500.0 * tolerance);
  EXPECT_NEAR(h.quantile(0.95).microseconds(), 950.0, 950.0 * tolerance);
  EXPECT_NEAR(h.quantile(0.99).microseconds(), 990.0, 990.0 * tolerance);
  EXPECT_DOUBLE_EQ(h.max().microseconds(), 1000.0);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedPopulation) {
  // Per-accelerator histograms merge bucket-wise: the merged quantiles must
  // equal those of one histogram fed the union of samples.
  LatencyHistogram a, b, both;
  Rng rng{99};
  for (int i = 0; i < 500; ++i) {
    const double us = rng.uniform(1.0, 300.0);
    a.add(Duration::from_us(us));
    both.add(Duration::from_us(us));
  }
  for (int i = 0; i < 500; ++i) {
    const double us = rng.uniform(200.0, 2000.0);
    b.add(Duration::from_us(us));
    both.add(Duration::from_us(us));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (const double p : {0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(p).picoseconds(),
                     both.quantile(p).picoseconds())
        << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(a.min().picoseconds(), both.min().picoseconds());
  EXPECT_DOUBLE_EQ(a.max().picoseconds(), both.max().picoseconds());
  EXPECT_DOUBLE_EQ(a.mean().picoseconds(), both.mean().picoseconds());
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.add(Duration::from_us(5.0));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.99).picoseconds(), 0.0);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(TableTest, PrintsAlignedRows) {
  TextTable table{"demo"};
  table.set_header({"a", "bb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, RatioFormatting) {
  EXPECT_EQ(TextTable::fmt_ratio(612.4), "612x");
  EXPECT_EQ(TextTable::fmt_ratio(32.61), "32.6x");
  EXPECT_EQ(TextTable::fmt_ratio(3.234), "3.23x");
}

}  // namespace
}  // namespace tdo::support
