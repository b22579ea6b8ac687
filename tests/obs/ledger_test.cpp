// One ledger: every component counter is declared once, as a member of its
// `Counters` aggregate, and registered once. Nothing copies it into a report
// struct, so the only invariant left to pin is that each member reads the
// same value as the registry does under the member's registered name — and
// that no registered name under a component's prefix is missing from its
// table.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "testing/serve_load.hpp"

namespace tdo::obs {
namespace {

/// (registered name, counters() member value) for one component.
struct Ledger {
  std::string prefix;
  std::vector<std::pair<std::string, std::uint64_t>> rows;
};

std::vector<Ledger> ledgers(rt::CimRuntime& runtime,
                            const serve::Scheduler& scheduler) {
  const auto& st = runtime.stream().counters();
  const auto& res = runtime.residency().counters();
  const auto& pool = runtime.host_pool().counters();
  const auto& serve = scheduler.counters();
  return {
      {"stream.",
       {{"stream.enqueued", st.enqueued.value()},
        {"stream.offloaded", st.offloaded.value()},
        {"stream.cpu_fallbacks", st.cpu_fallbacks.value()},
        {"stream.fallbacks_threshold", st.fallbacks_threshold.value()},
        {"stream.fallbacks_queue_full", st.fallbacks_queue_full.value()},
        {"stream.syncs", st.syncs.value()},
        {"stream.hazard_syncs", st.hazard_syncs.value()},
        {"stream.device_drains", st.device_drains.value()},
        {"stream.occupancy_peak", st.occupancy_peak.value()},
        {"stream.copies_enqueued", st.copies_enqueued.value()},
        {"stream.copy_bytes", st.copy_bytes.value()},
        {"stream.ring_submitted", st.ring_submitted.value()},
        {"stream.ring_rejected", st.ring_rejected.value()}}},
      {"residency.",
       {{"residency.hits", res.hits.value()},
        {"residency.misses", res.misses.value()},
        {"residency.evictions", res.evictions.value()},
        {"residency.invalidations", res.invalidations.value()},
        {"residency.weight_writes_saved8", res.weight_writes_saved8.value()},
        {"residency.prefetches", res.prefetches.value()},
        {"residency.prefetch_hits", res.prefetch_hits.value()},
        {"residency.migrations", res.migrations.value()}}},
      {"host_pool.",
       {{"host_pool.jobs", pool.jobs.value()},
        {"host_pool.completed", pool.completed.value()},
        {"host_pool.macs", pool.macs.value()},
        {"host_pool.busy_ticks", pool.busy_ticks.value()}}},
      {"serve.",
       {{"serve.requests", serve.submitted.value()},
        {"serve.rejected", serve.rejected.value()},
        {"serve.shed", serve.shed.value()},
        {"serve.shed.interactive", serve.shed_by_class[0].value()},
        {"serve.shed.standard", serve.shed_by_class[1].value()},
        {"serve.shed.batch", serve.shed_by_class[2].value()},
        {"serve.completed", serve.completed.value()},
        {"serve.launches", serve.launches.value()},
        {"serve.batched_launches", serve.batched_launches.value()},
        {"serve.coalesced_requests", serve.coalesced_requests.value()},
        {"serve.affinity_routed", serve.affinity_routed.value()},
        {"serve.queue_routed", serve.queue_routed.value()},
        {"serve.far_routed", serve.far_routed.value()},
        {"serve.host_launches", serve.host_launches.value()}}},
  };
}

TEST(LedgerTest, CountersMatchTheRegistryUnderTheirRegisteredNames) {
  std::vector<Ledger> tables;
  support::StatsSnapshot snapshot;
  tdo::testing::run_traced_serve_load(
      tdo::testing::traced_serve_config(), tdo::testing::fuzz_seed(),
      topo::Placement::kBufferCentric,
      [&](tdo::testing::ServeFixture& fx, const serve::Scheduler& scheduler) {
        tables = ledgers(fx.platform.runtime(), scheduler);
        snapshot = fx.platform.system().snapshot();
      });
  ASSERT_EQ(tables.size(), 4u);

  for (const Ledger& ledger : tables) {
    std::uint64_t activity = 0;
    std::set<std::string> listed;
    for (const auto& [name, value] : ledger.rows) {
      ASSERT_EQ(snapshot.counters.count(name), 1u) << name << " unregistered";
      EXPECT_EQ(snapshot.counters.at(name), value) << name;
      activity += value;
      listed.insert(name);
    }
    // The load exercises every component, so an all-zero table would mean
    // the comparison above proved nothing.
    EXPECT_GT(activity, 0u) << ledger.prefix;
    // Every registered counter under the prefix has a row (histogram
    // summaries such as serve.latency.* belong to no Counters aggregate).
    for (const auto& [name, value] : snapshot.counters) {
      if (!name.starts_with(ledger.prefix) ||
          name.starts_with("serve.latency.")) {
        continue;
      }
      EXPECT_EQ(listed.count(name), 1u) << name << " missing from the table";
    }
  }
}

}  // namespace
}  // namespace tdo::obs
