// Serving-scheduler tests: batch formation, residency-affinity placement,
// adaptive admission, multi-tenant fairness, and a seeded randomized stress
// layer (ServeSchedulerFuzz, re-run by CI with extra TDO_FUZZ_SEED values)
// that diffs every scheduled request against a float reference.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/load.hpp"
#include "support/fixed_point.hpp"
#include "testing/fixture.hpp"

namespace tdo::serve {
namespace {

using support::Duration;
using tdo::testing::fuzz_seed;
using tdo::testing::Platform;
using tdo::testing::random_matrix;
using tdo::testing::ref_gemm;

[[nodiscard]] double gemm_error_bound(double max_a, double max_b,
                                      std::size_t k) {
  return support::dot_quant_error_bound(max_a, max_b, k) + 1e-3;
}

// --- batcher unit behaviour ---

TEST(BatcherTest, CoalescesByKeyAndClosesOnSize) {
  Batcher batcher{BatcherParams{.max_batch = 3,
                                .max_wait = Duration::from_us(100.0)}};
  Request a = sgemm_request(0, DeadlineClass::kStandard, 8, 64, 64, 0x1000,
                            0x2000, 0x3000);
  Request other_weights = sgemm_request(0, DeadlineClass::kStandard, 8, 64,
                                        64, 0x1000, 0x9000, 0x4000);
  const Duration t0 = Duration::from_us(1.0);
  batcher.add(a, t0);
  batcher.add(other_weights, t0);
  batcher.add(a, t0);
  EXPECT_TRUE(batcher.take_ready(t0).empty());  // nothing full, nothing aged
  batcher.add(a, t0);                           // third same-key: closes
  auto ready = batcher.take_ready(t0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].requests.size(), 3u);
  EXPECT_EQ(batcher.pending(), 1u);  // the other-weights singleton stays open
}

TEST(BatcherTest, ClosesOnAgeAndOrdersByClass) {
  Batcher batcher{BatcherParams{.max_batch = 8,
                                .max_wait = Duration::from_us(10.0)}};
  const Duration t0 = Duration::from_us(1.0);
  batcher.add(sgemm_request(0, DeadlineClass::kBatch, 8, 64, 64, 0x1000,
                            0x2000, 0x3000),
              t0);
  batcher.add(sgemm_request(1, DeadlineClass::kInteractive, 8, 64, 64, 0x1000,
                            0x5000, 0x6000),
              Duration::from_us(2.0));
  EXPECT_TRUE(batcher.take_ready(Duration::from_us(5.0)).empty());
  ASSERT_TRUE(batcher.next_close_time().has_value());
  EXPECT_DOUBLE_EQ(batcher.next_close_time()->microseconds(), 11.0);
  auto ready = batcher.take_ready(Duration::from_us(20.0));
  ASSERT_EQ(ready.size(), 2u);
  // Interactive dispatches first even though it arrived later.
  EXPECT_EQ(ready[0].deadline, DeadlineClass::kInteractive);
  EXPECT_EQ(ready[1].deadline, DeadlineClass::kBatch);
}

TEST(BatcherTest, PreemptiveJoinSplitsHalfFullLowerClassBatch) {
  // An interactive join into a >= half-full batch-class batch closes it
  // immediately: promotion alone would still make the newcomer wait out the
  // old members' age clock.
  Batcher batcher{BatcherParams{.max_batch = 4,
                                .max_wait = Duration::from_us(100.0)}};
  const Duration t0 = Duration::from_us(1.0);
  const Request heavy = sgemm_request(0, DeadlineClass::kBatch, 8, 64, 64,
                                      0x1000, 0x2000, 0x3000);
  batcher.add(heavy, t0);
  batcher.add(heavy, t0);  // size 2 == half of max_batch
  EXPECT_TRUE(batcher.take_ready(t0).empty());
  batcher.add(sgemm_request(1, DeadlineClass::kInteractive, 8, 64, 64, 0x1000,
                            0x2000, 0x4000),
              t0);
  auto ready = batcher.take_ready(t0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].requests.size(), 3u);
  EXPECT_EQ(ready[0].deadline, DeadlineClass::kInteractive);

  // Same-class joins never split, no matter how full the batch is.
  batcher.add(heavy, t0);
  batcher.add(heavy, t0);
  batcher.add(heavy, t0);
  EXPECT_TRUE(batcher.take_ready(t0).empty());
  EXPECT_EQ(batcher.pending(), 3u);

  // An under-half batch keeps the join-and-promote path: splitting a small
  // batch would forfeit most of the coalescing it was opened for.
  Batcher wide{BatcherParams{.max_batch = 8,
                             .max_wait = Duration::from_us(100.0)}};
  wide.add(heavy, t0);
  wide.add(sgemm_request(1, DeadlineClass::kInteractive, 8, 64, 64, 0x1000,
                         0x2000, 0x4000),
           t0);
  EXPECT_TRUE(wide.take_ready(t0).empty());  // size 2, half of 8 is 4
  EXPECT_EQ(wide.pending(), 2u);
}

// --- admission controller unit behaviour ---

TEST(AdmissionTest, BootstrapProbesBothPathsThenSettles) {
  AdmissionParams params;
  params.probe_period = 0;
  AdmissionController admission{params, 0.0, 1024};
  const SiteKey site{8, 64, 64, 0};
  EXPECT_EQ(admission.admit(site), AdmitPath::kForceDevice);
  admission.observe(site, /*offloaded=*/true, Duration::from_us(100.0),
                    8 * 64 * 64, 64 * 64);
  EXPECT_EQ(admission.admit(site), AdmitPath::kForceHost);
  admission.observe(site, /*offloaded=*/false, Duration::from_us(50.0),
                    8 * 64 * 64, 64 * 64);
  EXPECT_EQ(admission.admit(site), AdmitPath::kAuto);
}

TEST(AdmissionTest, ThresholdSeparatesHostAndDeviceWinners) {
  AdmissionParams params;
  AdmissionController admission{params, 0.0, 1024};
  const SiteKey small{4, 64, 64, 0};  // intensity 4: host wins
  const SiteKey large{32, 64, 64, 0};  // intensity 32: device wins
  for (int i = 0; i < 4; ++i) {
    admission.observe(small, true, Duration::from_us(200.0), 4 * 64 * 64,
                      64 * 64);
    admission.observe(small, false, Duration::from_us(40.0), 4 * 64 * 64,
                      64 * 64);
    admission.observe(large, true, Duration::from_us(250.0), 32 * 64 * 64,
                      64 * 64);
    admission.observe(large, false, Duration::from_us(400.0), 32 * 64 * 64,
                      64 * 64);
  }
  // Smallest ladder rung above the losing intensity 4 is 8; 32 stays above.
  EXPECT_DOUBLE_EQ(admission.min_macs_per_write(), 8.0);
  EXPECT_GT(admission.report().retunes, 0u);
  // Host probes are deferred (uncounted) when the launch cannot carry them.
  const auto before = admission.report().probes_host;
  const SiteKey fresh{2, 64, 64, 0};
  admission.observe(fresh, true, Duration::from_us(10.0), 2 * 64 * 64,
                    64 * 64);
  EXPECT_EQ(admission.admit(fresh, /*host_probe_ok=*/false), AdmitPath::kAuto);
  EXPECT_EQ(admission.report().probes_host, before);
}

TEST(AdmissionTest, HitPathObservationsDoNotBiasTheKnee) {
  AdmissionParams params;
  AdmissionController admission{params, 0.0, 1024};
  const SiteKey site{4, 64, 64, 0};
  admission.observe(site, true, Duration::from_us(200.0), 4 * 64 * 64,
                    64 * 64);
  admission.observe(site, false, Duration::from_us(40.0), 4 * 64 * 64,
                    64 * 64);
  const double knob = admission.min_macs_per_write();
  // A flood of fast residency-hit launches (cim_writes == 0) must not drag
  // the device EWMA below the host's and reopen offload for misses.
  for (int i = 0; i < 64; ++i) {
    admission.observe(site, true, Duration::from_us(1.0), 4 * 64 * 64, 0);
  }
  EXPECT_DOUBLE_EQ(admission.min_macs_per_write(), knob);
}

// --- scheduler end-to-end ---

struct ServeFixture {
  Platform platform;
  std::uint64_t m, n, k;
  std::vector<sim::VirtAddr> weights;
  std::vector<std::vector<float>> weight_data;
  std::vector<float> input;
  sim::VirtAddr va_a = 0;

  explicit ServeFixture(std::size_t accelerators, std::size_t weight_sets,
                        std::uint64_t m_ = 8, std::uint64_t n_ = 64,
                        std::uint64_t k_ = 64, rt::RuntimeConfig config = {})
      : platform{config, {}, {}, accelerators}, m{m_}, n{n_}, k{k_} {
    EXPECT_TRUE(platform.runtime().init(0).is_ok());
    for (std::size_t w = 0; w < weight_sets; ++w) {
      weight_data.push_back(random_matrix(k * n, 1.0, 500 + w));
      weights.push_back(platform.upload(weight_data.back()));
    }
    input = random_matrix(m * k, 1.0, 7);
    va_a = platform.upload(input);
  }

  [[nodiscard]] sim::VirtAddr fresh_output() {
    return platform.device_zeros(m * n);
  }

  /// `tenant`'s request against weight set `w`, writing `c`.
  [[nodiscard]] Request request(
      std::size_t w, sim::VirtAddr c, std::uint32_t tenant = 0,
      DeadlineClass cls = DeadlineClass::kStandard) const {
    return sgemm_request(tenant, cls, m, n, k, va_a, weights[w], c);
  }

  void check_result(sim::VirtAddr c, std::size_t w) {
    std::vector<float> expected(m * n, 0.0f);
    ref_gemm(m, n, k, 1.0f, input, k, weight_data[w], n, 0.0f, expected, n);
    const auto got = platform.read_floats(c, m * n);
    const double bound = gemm_error_bound(1.0, 1.0, k);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], bound) << "element " << i;
    }
  }
};

TEST(SchedulerTest, BatchedLaunchesCoalesceAndMatchReference) {
  ServeFixture fx{2, 2};
  SchedulerParams params;
  params.batcher.max_batch = 4;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};

  std::vector<std::pair<sim::VirtAddr, std::size_t>> outputs;
  for (int i = 0; i < 8; ++i) {
    const std::size_t w = static_cast<std::size_t>(i) % 2;
    const sim::VirtAddr c = fx.fresh_output();
    outputs.emplace_back(c, w);
    ASSERT_TRUE(scheduler.submit(fx.request(w, c)).is_ok());
  }
  ASSERT_TRUE(scheduler.drain().is_ok());

  const auto& counters = scheduler.counters();
  EXPECT_EQ(counters.completed.value(), 8u);
  EXPECT_GT(counters.batched_launches.value(), 0u);
  EXPECT_GT(counters.coalesced_requests.value(), 0u);
  EXPECT_LT(counters.launches.value(), 8u);  // coalescing happened
  const auto completions = scheduler.take_completions();
  EXPECT_EQ(completions.size(), 8u);
  for (const auto& [c, w] : outputs) fx.check_result(c, w);
}

TEST(SchedulerTest, AffinityRoutesRepeatsToResidentAccelerator) {
  ServeFixture fx{2, 2};
  SchedulerParams params;
  params.batcher.max_batch = 2;  // every pair forms one pinned batched launch
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};

  std::map<std::size_t, std::vector<int>> devices_by_weight;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t w = 0; w < 2; ++w) {
      for (int i = 0; i < 2; ++i) {
        const sim::VirtAddr c = fx.fresh_output();
        ASSERT_TRUE(scheduler.submit(fx.request(w, c)).is_ok());
      }
      ASSERT_TRUE(scheduler.drain().is_ok());
      for (const auto& completion : scheduler.take_completions()) {
        EXPECT_EQ(completion.batch_size, 2u);
        devices_by_weight[w].push_back(completion.device);
      }
    }
  }
  const auto& counters = scheduler.counters();
  EXPECT_GT(counters.affinity_routed.value(), 0u);
  // After the cold start, each weight set sticks to one accelerator.
  for (const auto& [w, devices] : devices_by_weight) {
    ASSERT_GE(devices.size(), 2u);
    for (std::size_t i = 1; i < devices.size(); ++i) {
      EXPECT_EQ(devices[i], devices[1]) << "weight " << w << " migrated";
    }
  }
  EXPECT_GT(fx.platform.runtime().residency().counters().hits.value(), 0u);
}

TEST(SchedulerTest, RejectsBeyondTenantQueueBound) {
  ServeFixture fx{1, 1};
  SchedulerParams params;
  params.max_queue_per_tenant = 4;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    const auto id = scheduler.submit(fx.request(0, fx.fresh_output()));
    if (!id.is_ok()) {
      EXPECT_EQ(id.status().code(), support::StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 4);
  EXPECT_EQ(scheduler.counters().rejected.value(), 4u);
  ASSERT_TRUE(scheduler.drain().is_ok());
  EXPECT_EQ(scheduler.counters().completed.value(), 4u);
}

TEST(SchedulerTest, ThreadedPathEnforcesTenantBoundAtPump) {
  // Regression: submit_from_thread lands requests in the submission ring
  // without consulting the per-tenant bound (it cannot — the tenant queues
  // are driver-thread state). pump() must apply the same bound when it
  // drains the ring, rejecting the overflow with completion-style records
  // instead of silently queueing past max_queue_per_tenant.
  ServeFixture fx{1, 1};
  SchedulerParams params;
  params.max_queue_per_tenant = 4;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  constexpr std::size_t kThreads = 2;
  constexpr std::size_t kTotal = 16;
  std::vector<sim::VirtAddr> outputs;
  outputs.reserve(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) outputs.push_back(fx.fresh_output());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = t; r < kTotal; r += kThreads) {
        auto id = scheduler.submit_from_thread(fx.request(0, outputs[r]));
        ASSERT_TRUE(id.is_ok()) << id.status().to_string();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(scheduler.ring_pending(), kTotal);  // the ring accepted them all
  ASSERT_TRUE(scheduler.drain().is_ok());

  const auto& counters = scheduler.counters();
  // Everything past the bound was rejected.
  EXPECT_EQ(counters.rejected.value(), kTotal - 4);
  EXPECT_EQ(counters.completed.value(), 4u);
  std::size_t done = 0;
  std::size_t rejected = 0;
  for (const auto& completion : scheduler.take_completions()) {
    if (completion.outcome == Completion::Outcome::kRejected) {
      rejected += 1;
    } else if (completion.outcome == Completion::Outcome::kDone) {
      done += 1;
    }
  }
  EXPECT_EQ(done, 4u);
  EXPECT_EQ(rejected, kTotal - 4);  // rejections surface as joinable records
}

TEST(SchedulerTest, FailedLaunchDoesNotCountAsLaunched) {
  // A launch whose runtime call errors (here: untranslatable operands) has
  // no completion to match; counting it would skew every launches-derived
  // ratio against phantom work.
  ServeFixture fx{1, 1};
  SchedulerParams params;
  params.batching = false;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  const Request bad = sgemm_request(0, DeadlineClass::kStandard, fx.m, fx.n,
                                    fx.k, 0xdead0000, 0xbeef0000, 0xcafe0000);
  ASSERT_TRUE(scheduler.submit(bad).is_ok());
  EXPECT_FALSE(scheduler.pump().is_ok());
  EXPECT_EQ(scheduler.counters().launches.value(), 0u);
  EXPECT_EQ(scheduler.counters().completed.value(), 0u);
}

TEST(SchedulerTest, SecondSchedulerSurvivesFirstSchedulerTeardown) {
  // Two schedulers over one runtime: the completion observers (per-device
  // and host worker pool) are owner-tagged, so destroying the first must not
  // clear the second's registrations. The split config forces the second
  // scheduler's launch to put a CPU stripe on the host worker pool — without
  // the owner tag on the pool observer, that stripe's completion would never
  // log and the drain below would stall.
  rt::RuntimeConfig config;
  config.split.enabled = true;
  config.split.cpu_fraction = 0.25;
  config.split.min_macs = 1;
  config.split.pool.workers = 2;
  Platform platform{config, {}, {}, 1};
  ASSERT_TRUE(platform.runtime().init(0).is_ok());
  const std::uint64_t m = 8, n = 64, k = 64;
  const auto weight_data = random_matrix(k * n, 1.0, 500);
  const auto input = random_matrix(m * k, 1.0, 7);
  const sim::VirtAddr vb = platform.upload(weight_data);
  const sim::VirtAddr va = platform.upload(input);
  const sim::VirtAddr vc = platform.device_zeros(m * n);

  SchedulerParams p1;
  p1.batching = false;
  p1.admission.adaptive = false;
  p1.name = "serve1";
  auto first = std::make_unique<Scheduler>(p1, platform.runtime());
  SchedulerParams p2 = p1;
  p2.name = "serve2";
  Scheduler second{p2, platform.runtime()};
  first.reset();  // must not strip `second`'s observers

  ASSERT_TRUE(second
                  .submit(sgemm_request(0, DeadlineClass::kStandard, m, n, k,
                                        va, vb, vc))
                  .is_ok());
  ASSERT_TRUE(second.drain().is_ok());
  EXPECT_EQ(second.counters().completed.value(), 1u);
  // The launch really did ride the pool (pseudo-async split happened).
  EXPECT_GT(platform.runtime().host_pool().counters().completed.value(), 0u);
  std::vector<float> expected(m * n, 0.0f);
  ref_gemm(m, n, k, 1.0f, input, k, weight_data, n, 0.0f, expected, n);
  const auto got = platform.read_floats(vc, m * n);
  const double bound = gemm_error_bound(1.0, 1.0, k);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(got[i], expected[i], bound) << "element " << i;
  }
}

TEST(SchedulerTest, StreamDepthZeroStillDispatches) {
  // The stream treats a configured depth of 0 as 1; the scheduler's
  // capacity gate must read that same bound, or it never finds room and
  // drain() reports a stall.
  rt::RuntimeConfig config;
  config.stream.depth = 0;
  ServeFixture fx{1, 1, 8, 64, 64, config};
  Scheduler scheduler{SchedulerParams{}, fx.platform.runtime()};
  const sim::VirtAddr c = fx.fresh_output();
  ASSERT_TRUE(scheduler.submit(fx.request(0, c)).is_ok());
  const auto drained = scheduler.drain();
  ASSERT_TRUE(drained.is_ok()) << drained.to_string();
  EXPECT_EQ(scheduler.counters().completed.value(), 1u);
  fx.check_result(c, 0);
}

/// One tenant's closed-loop traffic: `clients` concurrent requests against
/// `weight`, each client resubmitting on completion until its budget spends.
struct TenantSpec {
  std::uint32_t tenant = 0;
  std::size_t weight = 0;
  int clients = 1;
};

/// Each tenant's end-to-end latencies of finished requests, taken from the
/// completions drive() collects with Scheduler::take_completions().
using TenantLatency = std::map<std::uint32_t, support::LatencyHistogram>;

void run_closed_loop(ServeFixture& fx, Scheduler& scheduler,
                     const std::vector<TenantSpec>& specs,
                     int requests_per_client, TenantLatency* latency) {
  std::vector<const TenantSpec*> tenant_of;  // client -> its tenant's spec
  std::vector<sim::VirtAddr> outputs;         // four per client
  for (const auto& spec : specs) {
    for (int i = 0; i < spec.clients; ++i) {
      tenant_of.push_back(&spec);
      for (int p = 0; p < 4; ++p) outputs.push_back(fx.fresh_output());
    }
  }
  struct Recording : ClosedSource {
    Recording(std::size_t clients, std::size_t per_client, Make make,
              TenantLatency* latency)
        : ClosedSource{clients, per_client, std::move(make)},
          latency_{latency} {}
    void complete(const Completion& completion) override {
      if (completion.outcome == Completion::Outcome::kDone) {
        (*latency_)[completion.tenant].add(completion.latency());
      }
      ClosedSource::complete(completion);
    }
    TenantLatency* latency_;
  };
  Recording source{
      tenant_of.size(), static_cast<std::size_t>(requests_per_client),
      [&](std::size_t i, std::size_t nth) {
        const TenantSpec& spec = *tenant_of[i];
        return fx.request(spec.weight, outputs[4 * i + nth % 4],
                          spec.tenant);
      },
      latency};
  const auto finished = drive(scheduler, source, source.target());
  ASSERT_TRUE(finished.is_ok()) << finished.status().to_string();
}

TEST(SchedulerTest, LightTenantTailBoundedUnderTenToOneFlood) {
  // Satellite acceptance: under 2 tenants with 10:1 offered load, the light
  // tenant's p99 stays bounded — within a small factor of what it sees with
  // the flood absent, instead of queueing behind the heavy tenant's backlog.
  const int kRequests = 10;
  SchedulerParams params;
  params.admission.adaptive = false;
  Duration solo_p99;
  {
    ServeFixture fx{2, 2};
    Scheduler scheduler{params, fx.platform.runtime()};
    TenantLatency solo;
    run_closed_loop(fx, scheduler, {TenantSpec{1, 1, 1}}, kRequests, &solo);
    solo_p99 = solo[1].quantile(0.99);
  }
  ServeFixture fx{2, 2};
  Scheduler scheduler{params, fx.platform.runtime()};
  TenantLatency flood;
  run_closed_loop(fx, scheduler, {TenantSpec{0, 0, 10}, TenantSpec{1, 1, 1}},
                  kRequests, &flood);
  const Duration light_p99 = flood[1].quantile(0.99);
  const Duration heavy_p99 = flood[0].quantile(0.99);
  ASSERT_GT(solo_p99.picoseconds(), 0.0);
  ASSERT_GT(light_p99.picoseconds(), 0.0);
  // Bounded interference: the light tenant's tail grows by at most a small
  // factor, and never beyond the flooding tenant's own tail.
  EXPECT_LE(light_p99.picoseconds(), solo_p99.picoseconds() * 6.0)
      << "light p99 " << light_p99.to_string() << " vs solo "
      << solo_p99.to_string();
  EXPECT_LE(light_p99.picoseconds(), heavy_p99.picoseconds())
      << "light p99 " << light_p99.to_string() << " vs heavy "
      << heavy_p99.to_string();
}

TEST(ServeSchedulerFuzz, RandomizedMultiTenantLoadMatchesReference) {
  const std::uint64_t seed = fuzz_seed();
  support::Rng rng{seed};
  ServeFixture fx{2, 3};
  SchedulerParams params;
  params.batcher.max_batch = 4;
  params.batcher.max_wait = Duration::from_us(15.0);
  params.admission.probe_period = 8;
  Scheduler scheduler{params, fx.platform.runtime()};

  struct Pending {
    sim::VirtAddr c = 0;
    std::size_t weight = 0;
  };
  std::map<std::uint64_t, Pending> pending;
  const int total = 60;
  int submitted = 0;
  std::size_t completed = 0;
  auto& events = fx.platform.system().events();
  while (completed < static_cast<std::size_t>(total)) {
    // Random burst of submissions across tenants and weight sets; every
    // request gets a fresh C buffer so each one is independently checkable.
    const int burst =
        submitted < total
            ? static_cast<int>(rng.uniform_int(0, 3))
            : 0;
    for (int i = 0; i < burst && submitted < total; ++i) {
      const std::size_t w = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const auto tenant = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
      const auto deadline = static_cast<DeadlineClass>(rng.uniform_int(0, 2));
      const sim::VirtAddr c = fx.fresh_output();
      auto id = scheduler.submit(fx.request(w, c, tenant, deadline));
      ASSERT_TRUE(id.is_ok());
      pending[*id] = Pending{c, w};
      ++submitted;
    }
    ASSERT_TRUE(scheduler.pump().is_ok());
    for (const auto& completion : scheduler.take_completions()) {
      ASSERT_TRUE(pending.contains(completion.id));
      completed += 1;
    }
    // Random time advance: sometimes wait for the next actionable point,
    // sometimes leap ahead (run_until, so due completions still retire —
    // advance_to past pending events is outside the event queue's
    // contract).
    if (rng.chance(0.5)) {
      (void)scheduler.advance_to_next_event();
    } else {
      events.run_until(events.now() +
                       static_cast<sim::Tick>(rng.uniform_int(100, 50000)));
    }
  }
  ASSERT_TRUE(scheduler.drain().is_ok());

  // Every request produced the reference result (quantization tolerance),
  // regardless of batching, placement, probing, or fallback decisions.
  EXPECT_EQ(pending.size(), static_cast<std::size_t>(total));
  for (const auto& [id, record] : pending) {
    fx.check_result(record.c, record.weight);
  }
  const auto& counters = scheduler.counters();
  EXPECT_EQ(counters.completed.value(), static_cast<std::uint64_t>(total));
  EXPECT_EQ(counters.submitted.value(), static_cast<std::uint64_t>(total));
}

TEST(ServeSchedulerFuzz, ThreadedSubmissionMatchesSingleThreadReference) {
  // Satellite (c): N real submitter threads push a seeded request plan
  // through submit_from_thread, and every output buffer must equal — bit
  // for bit — a single-threaded reference run of the same plan. Adaptive
  // admission stays off so both runs take the identical device path (host
  // probes would mix exact float results into one run but not the other);
  // batching and placement may differ between runs, but the device path's
  // per-request numerics depend only on the request's operands.
  const std::uint64_t seed = fuzz_seed();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kTotal = 48;
  struct Plan {
    std::uint32_t tenant = 0;
    std::size_t weight = 0;
    DeadlineClass deadline = DeadlineClass::kStandard;
  };
  std::vector<Plan> plan;
  support::Rng rng{seed};
  for (std::size_t r = 0; r < kTotal; ++r) {
    plan.push_back(Plan{
        static_cast<std::uint32_t>(rng.uniform_int(0, 3)),
        static_cast<std::size_t>(rng.uniform_int(0, 2)),
        static_cast<DeadlineClass>(rng.uniform_int(0, 2))});
  }

  // Both runs build identical fixtures (same seeds, same allocation order),
  // so request contents — including buffer addresses — match exactly.
  const auto run = [&](bool threaded) -> std::vector<std::vector<float>> {
    ServeFixture fx{2, 3};
    SchedulerParams params;
    params.batcher.max_batch = 4;
    params.batcher.max_wait = Duration::from_us(15.0);
    params.admission.adaptive = false;
    Scheduler scheduler{params, fx.platform.runtime()};
    std::vector<sim::VirtAddr> outputs;
    outputs.reserve(kTotal);
    for (std::size_t r = 0; r < kTotal; ++r) {
      outputs.push_back(fx.fresh_output());
    }
    if (threaded) {
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t r = t; r < kTotal; r += kThreads) {
            auto id = scheduler.submit_from_thread(
                fx.request(plan[r].weight, outputs[r], plan[r].tenant,
                           plan[r].deadline));
            ASSERT_TRUE(id.is_ok()) << id.status().to_string();
          }
        });
      }
      for (auto& thread : threads) thread.join();
      EXPECT_EQ(scheduler.ring_pending(), kTotal);
    } else {
      for (std::size_t r = 0; r < kTotal; ++r) {
        EXPECT_TRUE(scheduler
                        .submit(fx.request(plan[r].weight, outputs[r],
                                           plan[r].tenant, plan[r].deadline))
                        .is_ok());
      }
    }
    EXPECT_TRUE(scheduler.drain().is_ok());
    const auto& counters = scheduler.counters();
    EXPECT_EQ(counters.submitted.value(), kTotal);
    EXPECT_EQ(counters.completed.value(), kTotal);
    EXPECT_EQ(scheduler.take_completions().size(), kTotal);
    std::vector<std::vector<float>> results;
    results.reserve(kTotal);
    for (std::size_t r = 0; r < kTotal; ++r) {
      results.push_back(fx.platform.read_floats(outputs[r], fx.m * fx.n));
      fx.check_result(outputs[r], plan[r].weight);  // and vs the reference
    }
    return results;
  };

  const auto threaded = run(true);
  const auto reference = run(false);
  ASSERT_EQ(threaded.size(), reference.size());
  for (std::size_t r = 0; r < kTotal; ++r) {
    for (std::size_t i = 0; i < threaded[r].size(); ++i) {
      ASSERT_EQ(threaded[r][i], reference[r][i])
          << "request " << r << " element " << i;
    }
  }
}

}  // namespace
}  // namespace tdo::serve
