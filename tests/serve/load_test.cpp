// Serving load driver tests: the closed-loop contract (at most one request
// in flight per client, exactly `target` finished), dropped requests
// unblocking their clients, open-loop arrival stamps reaching the latency,
// and a source that can never finish failing instead of spinning.
#include "serve/load.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "testing/fixture.hpp"

namespace tdo::serve {
namespace {

using support::Duration;
using tdo::testing::Platform;
using tdo::testing::random_matrix;

/// One accelerator, one weight set, one activation matrix, and one output
/// buffer per client.
struct LoadFixture {
  static constexpr std::uint64_t m = 8, n = 64, k = 64;
  Platform platform;
  sim::VirtAddr a = 0, b = 0;
  std::vector<sim::VirtAddr> outputs;

  explicit LoadFixture(std::size_t clients) {
    EXPECT_TRUE(platform.runtime().init(0).is_ok());
    b = platform.upload(random_matrix(k * n, 1.0, 500));
    a = platform.upload(random_matrix(m * k, 1.0, 7));
    for (std::size_t c = 0; c < clients; ++c) {
      outputs.push_back(platform.device_zeros(m * n));
    }
  }

  /// Client `client`'s request, tagged with the client as its tenant.
  [[nodiscard]] Request request(std::size_t client,
                                DeadlineClass cls = DeadlineClass::kStandard) {
    return sgemm_request(static_cast<std::uint32_t>(client), cls, m, n, k, a,
                         b, outputs[client]);
  }
};

/// Counts each client's requests in flight through the source's own hooks.
class CountingSource : public ClosedSource {
 public:
  CountingSource(LoadFixture& fx, std::size_t clients, std::size_t per_client,
                 DeadlineClass cls)
      : ClosedSource{clients, per_client,
                     [this, &fx, cls](std::size_t client, std::size_t) {
                       in_flight[client] += 1;
                       max_in_flight =
                           std::max(max_in_flight, in_flight[client]);
                       return fx.request(client, cls);
                     }},
        in_flight(clients, 0) {}

  void complete(const Completion& completion) override {
    in_flight[completion.tenant] -= 1;
    ClosedSource::complete(completion);
  }

  std::vector<int> in_flight;
  int max_in_flight = 0;
};

TEST(ServeLoadTest, ClosedSourceKeepsOneInFlightPerClientAndEndsAtTarget) {
  constexpr std::size_t kClients = 4, kPerClient = 5;
  LoadFixture fx{kClients};
  SchedulerParams params;
  params.batcher.max_batch = 4;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  CountingSource source{fx, kClients, kPerClient, DeadlineClass::kStandard};
  ASSERT_EQ(source.target(), kClients * kPerClient);

  const auto finished = drive(scheduler, source, source.target());
  ASSERT_TRUE(finished.is_ok()) << finished.status().to_string();
  EXPECT_EQ(finished->size(), kClients * kPerClient);
  EXPECT_EQ(source.max_in_flight, 1);
  EXPECT_EQ(source.in_flight, std::vector<int>(kClients, 0));
  EXPECT_EQ(scheduler.counters().submitted.value(), kClients * kPerClient);
  EXPECT_EQ(scheduler.counters().completed.value(), kClients * kPerClient);
}

TEST(ServeLoadTest, ShedCompletionUnblocksItsClosedLoopClient) {
  // Every first-round request is shed while still queued. Only the shed
  // record can free its client; without it the clients stay busy and the
  // driver reports a stall.
  constexpr std::size_t kClients = 2, kPerClient = 3;
  LoadFixture fx{kClients};
  SchedulerParams params;
  params.admission.adaptive = false;
  Scheduler scheduler{params, fx.platform.runtime()};
  class ShedFirstRound : public CountingSource {
   public:
    using CountingSource::CountingSource;
    support::StatusOr<std::size_t> submit_due(Scheduler& scheduler,
                                              Duration now) override {
      auto submitted = CountingSource::submit_due(scheduler, now);
      if (first_) shed = scheduler.shed_excess(1e18);
      first_ = false;
      return submitted;
    }
    std::size_t shed = 0;

   private:
    bool first_ = true;
  };
  ShedFirstRound source{fx, kClients, kPerClient, DeadlineClass::kBatch};

  const auto finished = drive(scheduler, source, source.target());
  ASSERT_TRUE(finished.is_ok()) << finished.status().to_string();
  EXPECT_EQ(source.shed, kClients);
  std::size_t shed = 0;
  for (const Completion& completion : *finished) {
    if (completion.outcome == Completion::Outcome::kShed) shed += 1;
  }
  EXPECT_EQ(shed, kClients);
  EXPECT_EQ(finished->size(), kClients * kPerClient);
  EXPECT_EQ(scheduler.counters().completed.value(),
            kClients * (kPerClient - 1));
}

TEST(ServeLoadTest, OpenSourceArrivalStampReachesLatency) {
  // The request becomes due at 50 us but models a front end that received
  // it at 10 us; the latency must count from the stamp, not from the submit.
  LoadFixture fx{1};
  Scheduler scheduler{SchedulerParams{}, fx.platform.runtime()};
  const Duration stamp = Duration::from_us(10.0);
  const Duration due = Duration::from_us(50.0);
  OpenSource source{{due}, [&](std::size_t) {
                      Request request = fx.request(0);
                      request.arrival = stamp;
                      return request;
                    }};

  const auto finished = drive(scheduler, source, 1);
  ASSERT_TRUE(finished.is_ok()) << finished.status().to_string();
  ASSERT_EQ(finished->size(), 1u);
  const Completion& completion = finished->front();
  EXPECT_EQ(completion.arrival, stamp);
  EXPECT_GE(completion.dispatch, due);
  EXPECT_EQ(completion.latency(), completion.done - stamp);
  EXPECT_GT(completion.latency(), completion.done - due);
}

TEST(ServeLoadTest, SourceThatNeverYieldsReportsStall) {
  LoadFixture fx{1};
  Scheduler scheduler{SchedulerParams{}, fx.platform.runtime()};
  for (const Advance advance : {Advance::kWhenIdle, Advance::kEveryRound}) {
    OpenSource empty{{}, nullptr};
    const auto finished = drive(scheduler, empty, 1, advance);
    ASSERT_FALSE(finished.is_ok());
    EXPECT_NE(finished.status().to_string().find("scheduler stalled"),
              std::string::npos)
        << finished.status().to_string();
  }
}

}  // namespace
}  // namespace tdo::serve
