// Tests for the two-tier fabric model (topo/topology.*): link busy-window
// contention math, withhold-response delivery timing, retirement, the
// topology map's near-by-default contract, and the bench CLI spec parser.
#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "support/stats.hpp"
#include "testing/fixture.hpp"
#include "topo/topology.hpp"

namespace tdo::topo {
namespace {

LinkParams test_params() {
  LinkParams params;
  params.latency_multiplier = 4.0;
  params.bandwidth_bytes_per_sec = 1e9;  // 1 byte per ns
  params.base_latency = support::Duration::from_ns(100);
  params.response_bytes = 64;
  return params;
}

TEST(TopoLinkTest, TransferTimeIsBaseLatencyPlusSerialization) {
  Link link{test_params()};
  // 1000 bytes at 1 byte/ns = 1000 ns, plus 100 ns propagation.
  EXPECT_EQ(link.transfer_time(1000).ticks(),
            support::Duration::from_ns(1100).ticks());
  // Zero-byte messages still pay propagation.
  EXPECT_EQ(link.transfer_time(0).ticks(),
            support::Duration::from_ns(100).ticks());
}

TEST(TopoLinkTest, ReserveIsFirstFitAndCountsContention) {
  Link link{test_params()};
  // Empty timeline: granted at the requested tick, no contention.
  EXPECT_EQ(link.reserve(1000, 500), 1000);
  EXPECT_EQ(link.contended_ticks(), 0u);
  // Overlapping request queues behind the first window.
  EXPECT_EQ(link.reserve(1200, 300), 1500);
  EXPECT_EQ(link.contended_ticks(), 300u);
  // A request that fits in a gap before existing traffic is not delayed.
  EXPECT_EQ(link.reserve(0, 400), 0);
  EXPECT_EQ(link.contended_ticks(), 300u);
}

TEST(TopoLinkTest, DeliveryAddsSerializationAndCountsResponses) {
  Link link{test_params()};
  // 64-byte response: 64 ns serialization + 100 ns propagation = 164 ns
  // after the device-side done tick on an idle link.
  const sim::Tick done = support::Duration::from_us(5).ticks();
  const sim::Tick observed = link.delivery(done, 64);
  EXPECT_EQ(observed, done + support::Duration::from_ns(164).ticks());
  EXPECT_EQ(link.responses(), 1u);
  EXPECT_EQ(link.response_bytes(), 64u);
  // A second response raised at the same tick serializes behind the first.
  const sim::Tick second = link.delivery(done, 64);
  EXPECT_GE(second, observed);
  EXPECT_EQ(link.responses(), 2u);
  EXPECT_GT(link.contended_ticks(), 0u);
}

TEST(TopoLinkTest, RetireBeforeDropsOnlyFinishedWindows) {
  Link link{test_params()};
  EXPECT_EQ(link.reserve(0, 100), 0);
  EXPECT_EQ(link.reserve(200, 100), 200);
  link.retire_before(150);  // first window [0,100) is history
  // The freed region is reusable; the surviving window still blocks.
  EXPECT_EQ(link.reserve(0, 100), 0);
  EXPECT_EQ(link.reserve(250, 100), 300);
}

TEST(TopoLinkTest, MultiplierClampsToAtLeastOne) {
  LinkParams params;
  params.latency_multiplier = 0.25;
  Link link{params};
  EXPECT_DOUBLE_EQ(link.params().latency_multiplier, 1.0);
}

/// Runs one offloaded GEMM and returns the tick the completion observer
/// fired at, optionally signaling through a far link.
sim::Tick observed_completion_tick(Link* link, std::uint64_t* withheld) {
  testing::Platform p;
  EXPECT_TRUE(p.runtime().init(0).is_ok());
  if (link != nullptr) p.accel().set_response_link(link);
  sim::Tick observed = 0;
  const int owner = 0;
  p.accel().set_completion_observer(
      [&](std::uint64_t, sim::Tick when) { observed = when; }, &owner);
  const std::size_t m = 8, n = 32, k = 32;
  const auto va_a = p.upload(testing::random_matrix(m * k, 1.0, 3));
  const auto va_b = p.upload(testing::random_matrix(k * n, 1.0, 4));
  const auto va_c = p.device_zeros(m * n);
  EXPECT_TRUE(p.runtime()
                  .sgemm_async(m, n, k, 1.0f, va_a, k, va_b, n, 0.0f, va_c, n,
                               cim::StationaryOperand::kB)
                  .is_ok());
  EXPECT_TRUE(p.runtime().synchronize().is_ok());
  // The deferred response event may land past the last job event.
  p.system().events().run_until(p.system().events().now() +
                                support::Duration::from_us(100).ticks());
  *withheld = p.accel().withheld_responses();
  p.accel().clear_completion_observer(&owner);
  return observed;
}

TEST(TopoLinkTest, WithholdResponseDefersObserverSignal) {
  std::uint64_t withheld_near = 0, withheld_far = 0;
  const sim::Tick near_tick =
      observed_completion_tick(nullptr, &withheld_near);
  Link link{test_params()};
  const sim::Tick far_tick = observed_completion_tick(&link, &withheld_far);
  ASSERT_GT(near_tick, 0u);
  ASSERT_GT(far_tick, 0u);
  EXPECT_EQ(withheld_near, 0u);
  EXPECT_GT(withheld_far, 0u);
  EXPECT_EQ(link.responses(), withheld_far);
  // Identical workloads: the far run's host-visible completion lags the
  // near run's by at least the link's response serialization time.
  EXPECT_GE(far_tick,
            near_tick + link.transfer_time(link.params().response_bytes)
                            .ticks());
}

TEST(TopoTopologyTest, UnknownDevicesAreNearWithUnitMultiplier) {
  Topology topo;
  EXPECT_EQ(topo.device_count(), 0u);
  EXPECT_EQ(topo.tier(0), Topology::kNearTier);
  EXPECT_EQ(topo.link(0), nullptr);
  EXPECT_DOUBLE_EQ(topo.latency_multiplier(0), 1.0);
  EXPECT_FALSE(topo.has_far());
}

TEST(TopoTopologyTest, TiersAndLinksFollowRegistrationOrder) {
  Link link{test_params()};
  Topology topo;
  topo.add_device(Topology::kNearTier);
  topo.add_device(Topology::kNearTier);
  topo.add_device(Topology::kFarTier, &link);
  EXPECT_EQ(topo.device_count(), 3u);
  EXPECT_EQ(topo.tier(0), Topology::kNearTier);
  EXPECT_EQ(topo.tier(2), Topology::kFarTier);
  EXPECT_EQ(topo.link(1), nullptr);
  EXPECT_EQ(topo.link(2), &link);
  EXPECT_DOUBLE_EQ(topo.latency_multiplier(1), 1.0);
  EXPECT_DOUBLE_EQ(topo.latency_multiplier(2), 4.0);
  EXPECT_TRUE(topo.has_far());
  EXPECT_EQ(topo.tier_size(Topology::kNearTier), 2u);
  EXPECT_EQ(topo.tier_size(Topology::kFarTier), 1u);
}

TEST(TopoSpecTest, ParsesNearAndFarCounts) {
  const auto spec = parse_topology_spec("near:2,far:3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->near, 2u);
  EXPECT_EQ(spec->far, 3u);
  EXPECT_DOUBLE_EQ(spec->far_multiplier, 4.0);  // default
  EXPECT_EQ(spec->device_count(), 5u);
}

TEST(TopoSpecTest, ParsesFarMultiplierSuffix) {
  const auto spec = parse_topology_spec("near:1,far:2x6.5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->near, 1u);
  EXPECT_EQ(spec->far, 2u);
  EXPECT_DOUBLE_EQ(spec->far_multiplier, 6.5);
}

TEST(TopoSpecTest, PartsMayBeOmitted) {
  const auto near_only = parse_topology_spec("near:4");
  ASSERT_TRUE(near_only.has_value());
  EXPECT_EQ(near_only->near, 4u);
  EXPECT_EQ(near_only->far, 0u);
  // An explicit spec replaces the defaults entirely: far-only means no
  // near devices, not one.
  const auto far_only = parse_topology_spec("far:2x8");
  ASSERT_TRUE(far_only.has_value());
  EXPECT_EQ(far_only->near, 0u);
  EXPECT_EQ(far_only->far, 2u);
  EXPECT_DOUBLE_EQ(far_only->far_multiplier, 8.0);
}

TEST(TopoSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_topology_spec("").has_value());
  EXPECT_FALSE(parse_topology_spec("near").has_value());
  EXPECT_FALSE(parse_topology_spec("near:").has_value());
  EXPECT_FALSE(parse_topology_spec("near:x").has_value());
  EXPECT_FALSE(parse_topology_spec("far:2x").has_value());
  EXPECT_FALSE(parse_topology_spec("mid:3").has_value());
  EXPECT_FALSE(parse_topology_spec("near:2;far:1").has_value());
}

}  // namespace
}  // namespace tdo::topo
