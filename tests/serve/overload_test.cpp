// Overload-control tests for the serving scheduler: deadline-class shed
// ordering (batch first, never interactive), tenant rotation and tail drops,
// weighted-DRR share enforcement, idle-tenant eviction of the per-tenant
// maps, and a seeded end-to-end overload run (ServeOverloadFuzz, re-run by
// CI with extra TDO_FUZZ_SEED values) where rate-triggered shedding must
// keep the interactive tail strictly below the no-shed baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "serve/load.hpp"
#include "serve/scheduler.hpp"
#include "support/rng.hpp"
#include "testing/fixture.hpp"

namespace tdo::serve {
namespace {

using support::Duration;
using tdo::testing::fuzz_seed;
using tdo::testing::Platform;
using tdo::testing::random_matrix;

/// One shared weight set, one activation buffer wide enough for the heavy
/// shape (light requests read a leading-row prefix), and rotating output
/// pools. Overload tests drive load, not numerics — outputs are reused.
struct OverloadFixture {
  static constexpr std::uint64_t kHeavyM = 64;
  static constexpr std::uint64_t kLightM = 8;
  Platform platform;
  std::uint64_t n = 64, k = 64;
  sim::VirtAddr va_a = 0;
  sim::VirtAddr weights = 0;
  std::vector<sim::VirtAddr> heavy_out, light_out;

  explicit OverloadFixture(std::size_t accelerators = 1)
      : platform{{}, {}, {}, accelerators} {
    EXPECT_TRUE(platform.runtime().init(0).is_ok());
    va_a = platform.upload(random_matrix(kHeavyM * k, 1.0, 7));
    weights = platform.upload(random_matrix(k * n, 1.0, 500));
    for (int i = 0; i < 8; ++i) {
      heavy_out.push_back(platform.device_zeros(kHeavyM * n));
      light_out.push_back(platform.device_zeros(kLightM * n));
    }
  }

  [[nodiscard]] Request heavy(std::uint32_t tenant, int i,
                              DeadlineClass deadline = DeadlineClass::kBatch)
      const {
    return sgemm_request(
        tenant, deadline, kHeavyM, n, k, va_a, weights,
        heavy_out[static_cast<std::size_t>(i) % heavy_out.size()]);
  }
  [[nodiscard]] Request light(
      std::uint32_t tenant, int i,
      DeadlineClass deadline = DeadlineClass::kInteractive) const {
    return sgemm_request(
        tenant, deadline, kLightM, n, k, va_a, weights,
        light_out[static_cast<std::size_t>(i) % light_out.size()]);
  }
};

TEST(OverloadShedTest, ShedsBatchThenStandardNeverInteractive) {
  OverloadFixture fx;
  SchedulerParams params;
  params.batching = false;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  for (std::uint32_t tenant = 0; tenant < 2; ++tenant) {
    ASSERT_TRUE(
        scheduler.submit(fx.light(tenant, 0, DeadlineClass::kInteractive))
            .is_ok());
    ASSERT_TRUE(scheduler.submit(fx.light(tenant, 1, DeadlineClass::kStandard))
                    .is_ok());
    ASSERT_TRUE(scheduler.submit(fx.heavy(tenant, 2, DeadlineClass::kBatch))
                    .is_ok());
  }

  // A tiny excess drops exactly one request, and it is batch class.
  EXPECT_EQ(scheduler.shed_excess(1.0), 1u);
  auto dropped = scheduler.take_completions();
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].outcome, Completion::Outcome::kShed);
  EXPECT_EQ(dropped[0].deadline, DeadlineClass::kBatch);

  // An unbounded excess takes everything else sheddable — all remaining
  // batch and standard work — but never touches interactive.
  EXPECT_EQ(scheduler.shed_excess(1e18), 3u);
  dropped = scheduler.take_completions();
  ASSERT_EQ(dropped.size(), 3u);
  for (const auto& completion : dropped) {
    EXPECT_EQ(completion.outcome, Completion::Outcome::kShed);
    EXPECT_NE(completion.deadline, DeadlineClass::kInteractive);
  }
  EXPECT_EQ(scheduler.counters().shed.value(), 4u);

  // The interactive pair survives and completes normally.
  ASSERT_TRUE(scheduler.drain().is_ok());
  EXPECT_EQ(scheduler.counters().completed.value(), 2u);
  const auto completions = scheduler.take_completions();
  ASSERT_EQ(completions.size(), 2u);
  for (const auto& completion : completions) {
    EXPECT_EQ(completion.outcome, Completion::Outcome::kDone);
    EXPECT_EQ(completion.deadline, DeadlineClass::kInteractive);
  }
}

TEST(OverloadShedTest, ShedRotatesAcrossTenantsAndTakesQueueTails) {
  OverloadFixture fx;
  SchedulerParams params;
  params.batching = false;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  // Two batch-class requests per tenant; record ids in submission order.
  std::vector<std::vector<std::uint64_t>> ids(2);
  for (std::uint32_t tenant = 0; tenant < 2; ++tenant) {
    for (int i = 0; i < 2; ++i) {
      auto id = scheduler.submit(fx.heavy(tenant, i));
      ASSERT_TRUE(id.is_ok());
      ids[tenant].push_back(*id);
    }
  }
  // Excess worth just over one heavy request: two drops, rotated across the
  // tenants (one each) and taken from each tenant's queue TAIL (the newer
  // request — least sunk queueing investment).
  const double one_heavy = static_cast<double>(fx.heavy(0, 0).macs());
  EXPECT_EQ(scheduler.shed_excess(one_heavy + 1.0), 2u);
  const auto dropped = scheduler.take_completions();
  ASSERT_EQ(dropped.size(), 2u);
  std::vector<std::uint64_t> victims;
  for (const auto& completion : dropped) victims.push_back(completion.id);
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(victims, (std::vector<std::uint64_t>{ids[0][1], ids[1][1]}));
  ASSERT_TRUE(scheduler.drain().is_ok());
  // Each tenant's head survived.
  EXPECT_EQ(scheduler.counters().completed.value(), 2u);
}

TEST(OverloadDrrTest, WeightedSharesFollowWeightsWhileBacklogged) {
  // Two backlogged tenants at weights 3 and 1 in the same class: while both
  // have queued work, completions must interleave in a 3:1 share (within the
  // 15% tolerance the overload bench gates on). One accelerator and no
  // batching make completion order follow pull order exactly.
  OverloadFixture fx{1};
  SchedulerParams params;
  params.batching = false;
  params.admission.adaptive = false;
  params.max_queue_per_tenant = 128;
  Scheduler scheduler{params, fx.platform.runtime()};
  scheduler.set_tenant_weight(7, 3);  // registration path
  const int kPerTenant = 60;
  for (int i = 0; i < kPerTenant; ++i) {
    ASSERT_TRUE(
        scheduler.submit(fx.light(7, i, DeadlineClass::kStandard)).is_ok());
    Request competitor = fx.light(9, i, DeadlineClass::kStandard);
    competitor.weight = 1;  // request-carried path
    ASSERT_TRUE(scheduler.submit(competitor).is_ok());
  }
  ASSERT_TRUE(scheduler.drain().is_ok());
  const auto completions = scheduler.take_completions();
  ASSERT_EQ(completions.size(), static_cast<std::size_t>(2 * kPerTenant));
  // Both tenants stay backlogged through the first kPerTenant completions
  // (the weight-3 tenant drains last at completion 80 of 120).
  int favored = 0;
  int competitor = 0;
  for (int i = 0; i < kPerTenant; ++i) {
    EXPECT_EQ(completions[static_cast<std::size_t>(i)].outcome,
              Completion::Outcome::kDone);
    if (completions[static_cast<std::size_t>(i)].tenant == 7u) {
      favored += 1;
    } else {
      competitor += 1;
    }
  }
  ASSERT_GT(competitor, 0);
  const double ratio = static_cast<double>(favored) / competitor;
  EXPECT_GE(ratio, 3.0 * 0.85) << favored << ":" << competitor;
  EXPECT_LE(ratio, 3.0 * 1.15) << favored << ":" << competitor;
}

TEST(OverloadEvictionTest, IdleTenantsAgeOutOfThePerTenantMaps) {
  OverloadFixture fx;
  SchedulerParams params;
  params.batching = false;
  params.admission.adaptive = false;
  params.tenant_idle_timeout = Duration::from_us(1.0e4);
  Scheduler scheduler{params, fx.platform.runtime()};
  constexpr std::uint32_t kTenants = 64;
  for (std::uint32_t tenant = 0; tenant < kTenants; ++tenant) {
    ASSERT_TRUE(scheduler
                    .submit(fx.light(tenant, static_cast<int>(tenant),
                                     DeadlineClass::kStandard))
                    .is_ok());
  }
  ASSERT_TRUE(scheduler.drain().is_ok());
  EXPECT_EQ(scheduler.counters().completed.value(), kTenants);
  EXPECT_EQ(scheduler.tenant_count(), kTenants);  // idle but not yet timed out

  // Leap simulated time past the idle timeout: the next pump evicts every
  // tenant.
  auto& events = fx.platform.system().events();
  events.run_until(events.now() + Duration::from_us(2.0e4).ticks());
  ASSERT_TRUE(scheduler.pump().is_ok());
  EXPECT_EQ(scheduler.tenant_count(), 0u);

  // A re-appearing tenant re-registers from scratch.
  ASSERT_TRUE(scheduler.submit(fx.light(3, 0, DeadlineClass::kStandard))
                  .is_ok());
  ASSERT_TRUE(scheduler.drain().is_ok());
  EXPECT_EQ(scheduler.tenant_count(), 1u);
}

/// Paced open-loop run at ~3x the measured service rate: batch-heavy flood
/// from one tenant plus a light interactive stream from another. Returns the
/// overload-phase interactive p99 and the stats at the end of the run.
struct OverloadOutcome {
  double interactive_p99_ps = 0.0;
  std::uint64_t interactive_done = 0;
  std::uint64_t interactive_shed = 0;
  support::StatsSnapshot stats;
};

void run_overload(bool shed_enabled, std::uint64_t seed,
                  OverloadOutcome* out) {
  OverloadFixture fx{1};
  SchedulerParams params;
  params.shed.enabled = shed_enabled;
  params.batcher.max_batch = 4;
  params.batcher.max_wait = Duration::from_us(10.0);
  // Static admission knobs: the shedder's capacity estimate is the
  // scheduler's own service EWMA, so adaptive admission is off here — under
  // overload its dispatch-to-done observations inflate the device EWMA,
  // retune min_macs_per_write upward, and flip singletons onto the
  // synchronous host path, which serializes the driver thread and spikes the
  // interactive tail in whichever run happens to dispatch more singletons.
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  auto& events = fx.platform.system().events();

  // Warm the admission EWMAs (device_ps_per_mac needs observed launches at
  // the sites in play) and measure the uncontended heavy service time.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(scheduler.submit(fx.heavy(0, i)).is_ok());
    ASSERT_TRUE(scheduler.drain().is_ok());
    ASSERT_TRUE(scheduler.submit(fx.light(1, i)).is_ok());
    ASSERT_TRUE(scheduler.drain().is_ok());
  }
  const sim::Tick measure_start = events.now();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scheduler.submit(fx.heavy(0, i)).is_ok());
    ASSERT_TRUE(scheduler.drain().is_ok());
  }
  const sim::Tick heavy_service =
      std::max<sim::Tick>((events.now() - measure_start) / 8, 1);
  (void)scheduler.take_completions();
  scheduler.reset_latency_stats();

  // Overload schedule: heavy arrivals at 3x the service rate, light
  // interactive arrivals at a modest rate across the same horizon, with
  // seeded jitter so CI's extra seeds explore different interleavings.
  support::Rng rng{seed};
  struct Arrival {
    sim::Tick at = 0;
    bool heavy = false;
  };
  constexpr int kHeavy = 96;
  constexpr int kLight = 24;
  const sim::Tick start = events.now();
  const sim::Tick heavy_gap = heavy_service / 3;
  std::vector<Arrival> schedule;
  const auto add_stream = [&](int count, sim::Tick gap, bool heavy) {
    for (int i = 0; i < count; ++i) {
      const auto jitter = static_cast<sim::Tick>(
          rng.uniform_int(0, static_cast<std::int64_t>(gap / 4) + 1));
      schedule.push_back(
          Arrival{start + static_cast<sim::Tick>(i) * gap + jitter, heavy});
    }
  };
  add_stream(kHeavy, heavy_gap, true);
  // Lights span only the first 85% of the heavy horizon so every measured
  // interactive request arrives under sustained overload. Once arrivals
  // stop, the rate EWMA decays, shedding switches off, and the residual
  // backlog coalesces into full-width batches — a drain-down artifact, not
  // the steady state the shed-vs-no-shed comparison is about.
  add_stream(kLight,
             static_cast<sim::Tick>(kHeavy) * heavy_gap * 85 / (100 * kLight),
             false);
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  std::vector<Duration> due;
  for (const Arrival& arrival : schedule) {
    due.push_back(sim::from_ticks(arrival.at));
  }
  OpenSource source{std::move(due), [&](std::size_t i) {
                      const int sequence = static_cast<int>(i);
                      return schedule[i].heavy ? fx.heavy(0, sequence)
                                               : fx.light(1, sequence);
                    }};
  // One pump per wait: the replay's arrivals, not the scheduler's progress,
  // pace the rounds.
  const auto completions =
      drive(scheduler, source, schedule.size(), Advance::kEveryRound);
  ASSERT_TRUE(completions.is_ok()) << completions.status().to_string();

  out->stats = fx.platform.system().snapshot();
  const auto interactive = scheduler.class_latency(DeadlineClass::kInteractive);
  out->interactive_p99_ps = interactive.quantile(0.99).picoseconds();
  out->interactive_done = interactive.count();
  for (const auto& completion : *completions) {
    if (completion.outcome == Completion::Outcome::kShed &&
        completion.deadline == DeadlineClass::kInteractive) {
      out->interactive_shed += 1;
    }
  }
}

TEST(ServeOverloadFuzz, RateTriggeredShedKeepsInteractiveTailBelowNoShed) {
  const std::uint64_t seed = fuzz_seed();
  OverloadOutcome with_shed;
  OverloadOutcome no_shed;
  run_overload(true, seed, &with_shed);
  run_overload(false, seed, &no_shed);

  // The arrival-rate trigger fired and shed real work — but never a single
  // interactive request.
  EXPECT_GT(with_shed.stats.counter_or("serve.shed"), 0u);
  EXPECT_EQ(with_shed.interactive_shed, 0u);
  EXPECT_EQ(no_shed.stats.counter_or("serve.shed"), 0u);

  // Every interactive request ran in both runs (shedding only ever touched
  // lower classes), and the shed run's interactive tail strictly beats the
  // no-shed baseline — the entire point of dropping batch work.
  ASSERT_GT(with_shed.interactive_done, 0u);
  ASSERT_EQ(with_shed.interactive_done, no_shed.interactive_done);
  EXPECT_LT(with_shed.interactive_p99_ps, no_shed.interactive_p99_ps)
      << "shed p99 " << with_shed.interactive_p99_ps / 1e6 << "us vs no-shed "
      << no_shed.interactive_p99_ps / 1e6 << "us";
}

}  // namespace
}  // namespace tdo::serve
