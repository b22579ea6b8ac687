// Serving load driver: the one submit -> pump -> complete -> advance loop
// that every closed- and open-loop load generator in the benches and tests
// runs on.
//
// drive() owns the round structure; a Source owns what to submit and when.
// Each round submits what the source has due at the scheduler's clock,
// pumps the scheduler (and the tracer's shards when tracing is on, so long
// runs stay bounded), and hands every completion — done, shed, or rejected —
// back to the source. Then simulated time advances to the next device event
// or the source's next wake-up: by default only after a round that made no
// progress (see Advance). A round that must advance with nothing to advance
// to is an error, because the load can never finish.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "serve/scheduler.hpp"

namespace tdo::serve {

/// A load generator drive() polls once per round.
class Source {
 public:
  Source() = default;
  virtual ~Source() = default;
  Source(const Source&) = default;
  Source& operator=(const Source&) = default;
  Source(Source&&) = default;
  Source& operator=(Source&&) = default;

  /// Submits every request due at `now`; returns how many went in.
  virtual support::StatusOr<std::size_t> submit_due(Scheduler& scheduler,
                                                    support::Duration now) = 0;
  /// Called once per finished request, whatever its outcome.
  virtual void complete(const Completion& completion) { (void)completion; }
  /// Tick at which submit_due() next has work that no completion gates (an
  /// open loop's next arrival); nullopt when only completions unblock it.
  [[nodiscard]] virtual std::optional<sim::Tick> wake() const {
    return std::nullopt;
  }
};

/// Closed loop: each of `clients` clients keeps at most one request in
/// flight and issues `per_client` in all. `make(client, nth)` builds the
/// client's nth request. Any finished request, shed and rejected included,
/// frees its client. With `upload_bytes` set, each request's activations
/// are re-uploaded in place through Scheduler::upload before it is
/// submitted, so the copy rides the measured transfer path.
class ClosedSource : public Source {
 public:
  using Make = std::function<Request(std::size_t client, std::size_t nth)>;

  ClosedSource(std::size_t clients, std::size_t per_client, Make make,
               std::uint64_t upload_bytes = 0)
      : clients_(clients),
        per_client_{per_client},
        make_{std::move(make)},
        upload_bytes_{upload_bytes} {}

  /// Requests the source issues in all.
  [[nodiscard]] std::uint64_t target() const {
    return static_cast<std::uint64_t>(clients_.size()) * per_client_;
  }

  support::StatusOr<std::size_t> submit_due(Scheduler& scheduler,
                                            support::Duration) override {
    std::size_t submitted = 0;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      Client& client = clients_[i];
      if (client.busy || client.issued >= per_client_) continue;
      const Request request = make_(i, client.issued);
      if (upload_bytes_ > 0) {
        TDO_RETURN_IF_ERROR(
            scheduler.upload(request.a, request.a, upload_bytes_));
      }
      auto id = scheduler.submit(request);
      if (!id.is_ok()) return id.status();
      owner_[*id] = i;
      client.issued += 1;
      client.busy = true;
      submitted += 1;
    }
    return submitted;
  }

  void complete(const Completion& completion) override {
    const auto it = owner_.find(completion.id);
    if (it == owner_.end()) return;
    clients_[it->second].busy = false;
    owner_.erase(it);
  }

 private:
  struct Client {
    std::size_t issued = 0;
    bool busy = false;
  };
  std::vector<Client> clients_;
  std::size_t per_client_ = 0;
  Make make_;
  std::uint64_t upload_bytes_ = 0;
  std::map<std::uint64_t, std::size_t> owner_;  // request id -> client
};

/// Open loop: request i goes in once the clock reaches `due[i]`, whatever
/// has finished. `due` is non-decreasing. `make(i)` builds the request; a
/// load that models front-end queueing stamps its `arrival` in the past.
class OpenSource : public Source {
 public:
  using Make = std::function<Request(std::size_t index)>;

  OpenSource(std::vector<support::Duration> due, Make make)
      : due_{std::move(due)}, make_{std::move(make)} {}

  support::StatusOr<std::size_t> submit_due(Scheduler& scheduler,
                                            support::Duration now) override {
    std::size_t submitted = 0;
    while (next_ < due_.size() && due_[next_] <= now) {
      auto id = scheduler.submit(make_(next_));
      if (!id.is_ok()) return id.status();
      next_ += 1;
      submitted += 1;
    }
    return submitted;
  }

  [[nodiscard]] std::optional<sim::Tick> wake() const override {
    if (next_ >= due_.size()) return std::nullopt;
    return due_[next_].ticks();
  }

 private:
  std::vector<support::Duration> due_;
  Make make_;
  std::size_t next_ = 0;
};

/// When drive() advances simulated time. The two call orders give
/// different timelines (a second pump at the same tick can pull work the
/// first one's final harvest freed), so each load keeps the discipline its
/// recorded numbers were taken with.
enum class Advance {
  /// Only after a round that submitted and finished nothing; a round with
  /// progress pumps again at the same tick (closed loops, where a
  /// completion frees a client to submit at once).
  kWhenIdle,
  /// After every round, progress or not: one pump per wait (arrival-paced
  /// replays and backlog drains).
  kEveryRound,
};

/// Warm-up marker: `mark(completed)` fires once, at the top of the first
/// round that starts with at least `after` finished requests — where a
/// bench opens its steady-state region of interest.
struct Warmup {
  std::uint64_t after = 0;
  std::function<void(std::uint64_t completed)> mark;
};

/// Drives `source` until `target` requests finished (any outcome), then
/// drains the scheduler. Returns every finished request in the order the
/// scheduler reported it, including anything the final drain surfaced; an
/// internal error "scheduler stalled" when a round had to advance and
/// nothing was left to advance to.
inline support::StatusOr<std::vector<Completion>> drive(
    Scheduler& scheduler, Source& source, std::uint64_t target,
    Advance advance = Advance::kWhenIdle, const Warmup& warmup = {}) {
  std::vector<Completion> finished;
  bool marked = !warmup.mark;
  const auto collect = [&] {
    const std::size_t before = finished.size();
    for (Completion& completion : scheduler.take_completions()) {
      source.complete(completion);
      finished.push_back(std::move(completion));
    }
    return finished.size() > before;
  };
  while (finished.size() < target) {
    if (!marked && finished.size() >= warmup.after) {
      warmup.mark(finished.size());
      marked = true;
    }
    auto submitted = source.submit_due(scheduler, scheduler.now());
    if (!submitted.is_ok()) return submitted.status();
    TDO_RETURN_IF_ERROR(scheduler.pump());
    if (obs::enabled()) obs::Tracer::instance().pump();
    const bool progressed = collect() || *submitted > 0;
    if (finished.size() >= target) break;
    if (advance == Advance::kWhenIdle && progressed) continue;
    if (!scheduler.advance_to_next_event(source.wake())) {
      return support::internal_error("scheduler stalled");
    }
  }
  TDO_RETURN_IF_ERROR(scheduler.drain());
  (void)collect();
  return finished;
}

}  // namespace tdo::serve
