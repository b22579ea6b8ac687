#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tdo::serve {

namespace {
/// Threshold that forces every fallback-eligible job to the host (probe).
constexpr double kForceHostThreshold = std::numeric_limits<double>::max();
}  // namespace

Scheduler::Scheduler(SchedulerParams params, rt::CimRuntime& runtime)
    : params_{std::move(params)},
      runtime_{runtime},
      batcher_{params_.batcher},
      admission_{params_.admission,
                 runtime.config().stream.min_macs_per_write,
                 runtime.config().xfer.min_async_bytes} {
  runtime_.set_placement(params_.placement);
  auto& registry = runtime_.system().stats();
  const std::string& p = params_.name;
  const Counters& c = counters_;
  registry.register_counter(p + ".requests", &c.submitted);
  registry.register_counter(p + ".rejected", &c.rejected);
  registry.register_counter(p + ".shed", &c.shed);
  registry.register_counter(p + ".completed", &c.completed);
  registry.register_counter(p + ".launches", &c.launches);
  registry.register_counter(p + ".batched_launches", &c.batched_launches);
  registry.register_counter(p + ".coalesced_requests", &c.coalesced_requests);
  registry.register_counter(p + ".affinity_routed", &c.affinity_routed);
  registry.register_counter(p + ".queue_routed", &c.queue_routed);
  registry.register_counter(p + ".far_routed", &c.far_routed);
  registry.register_counter(p + ".host_launches", &c.host_launches);
  for (std::size_t k = 0; k < kDeadlineClasses; ++k) {
    const std::string cls = to_string(static_cast<DeadlineClass>(k));
    registry.register_counter(p + ".shed." + cls, &c.shed_by_class[k]);
    registry.register_histogram(p + ".latency." + cls, &class_latency_[k]);
  }

  auto& driver = runtime_.driver();
  // One completion log per accelerator plus one for the host worker pool:
  // the pool is a pseudo-device target (pool_device_id()) whose stripe
  // completions harvest through the same observer machinery.
  logs_.resize(driver.device_count() + 1);
  for (std::size_t d = 0; d < driver.device_count(); ++d) {
    driver.device(d).set_completion_observer(
        [this, d](std::uint64_t completed, sim::Tick when) {
          logs_[d].emplace_back(completed, when);
        },
        this);
  }
  const std::size_t pool_log = driver.device_count();
  runtime_.host_pool().set_completion_observer(
      [this, pool_log](std::uint64_t completed, sim::Tick when) {
        logs_[pool_log].emplace_back(completed, when);
      },
      this);
}

Scheduler::~Scheduler() {
  auto& driver = runtime_.driver();
  for (std::size_t d = 0; d < driver.device_count(); ++d) {
    driver.device(d).clear_completion_observer(this);
  }
  // Owner-tagged like the per-device observers above: a second scheduler's
  // registration must survive this one's teardown.
  runtime_.host_pool().clear_completion_observer(this);
  // The scheduler may die before the system it registered counters into.
  auto& registry = runtime_.system().stats();
  const Counters& c = counters_;
  registry.unregister_counter(&c.submitted);
  registry.unregister_counter(&c.rejected);
  for (const support::Counter* counter :
       {&c.shed, &c.completed, &c.launches, &c.batched_launches,
        &c.coalesced_requests, &c.affinity_routed, &c.queue_routed,
        &c.far_routed, &c.host_launches}) {
    registry.unregister_counter(counter);
  }
  for (const auto& counter : c.shed_by_class) {
    registry.unregister_counter(&counter);
  }
  for (const auto& histogram : class_latency_) {
    registry.unregister_histogram(&histogram);
  }
}

support::Duration Scheduler::now() const {
  return runtime_.system().global_time();
}

int Scheduler::pool_device_id() const {
  return static_cast<int>(runtime_.driver().device_count());
}

support::StatusOr<std::uint64_t> Scheduler::submit(Request request) {
  auto [it, inserted] = tenants_.try_emplace(request.tenant);
  TenantState& state = it->second;
  if (state.queued >= params_.max_queue_per_tenant) {
    counters_.rejected.add();
    if (inserted) note_idle_if(it->first, state);  // only possible at bound 0
    return support::resource_exhausted("tenant queue full");
  }
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (request.arrival == support::Duration::zero()) request.arrival = now();
  note_arrival(request);
  const std::uint64_t id = request.id;
  enqueue(it->first, state, std::move(request));
  counters_.submitted.add();
  return id;
}

void Scheduler::set_tenant_weight(std::uint32_t tenant, std::uint32_t weight) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  it->second.weight = std::max<std::uint32_t>(1, weight);
  // A registered-but-idle tenant still ages out (taking the registration
  // with it); arming the clock here keeps pre-registration from pinning
  // state for tenants that never send traffic.
  if (inserted) note_idle_if(tenant, it->second);
}

void Scheduler::enqueue(std::uint32_t tenant, TenantState& state,
                        Request&& request) {
  if (request.weight > 0) {
    state.weight = std::max<std::uint32_t>(1, request.weight);
  }
  const auto c = static_cast<std::size_t>(request.deadline);
  state.queues[c].push_back(std::move(request));
  state.queued += 1;
  queued_ += 1;
  if (!state.active[c]) {
    state.active[c] = true;
    state.deficit[c] = 0;  // fresh turn when it reaches the head
    active_[c].push_back(tenant);
  }
}

void Scheduler::drop_request(Request&& request, Completion::Outcome outcome) {
  Completion completion;
  completion.id = request.id;
  completion.tenant = request.tenant;
  completion.deadline = request.deadline;
  completion.outcome = outcome;
  completion.arrival = request.arrival;
  completion.dispatch = now();
  completion.done = now();
  completion.device = -1;
  completions_.push_back(completion);
}

void Scheduler::note_arrival(const Request& request) {
  if (!params_.shed.enabled) return;
  arrival_macs_window_ +=
      static_cast<double>(std::max<std::uint64_t>(1, request.macs()));
}

void Scheduler::note_idle_if(std::uint32_t tenant, TenantState& state) {
  if (params_.tenant_idle_timeout == support::Duration::zero()) return;
  if (state.queued != 0 || state.inflight != 0) return;
  state.idle_since = now().ticks();
  if (!state.idle_pending) {
    state.idle_pending = true;
    idle_fifo_.emplace_back(tenant, state.idle_since);
  }
}

void Scheduler::evict_idle() {
  if (params_.tenant_idle_timeout == support::Duration::zero()) return;
  const sim::Tick timeout = params_.tenant_idle_timeout.ticks();
  const sim::Tick t = now().ticks();
  while (!idle_fifo_.empty()) {
    const auto [tenant, since] = idle_fifo_.front();
    // Push ticks are monotone: once the front is too fresh, so is the rest.
    if (since + timeout > t) break;
    idle_fifo_.pop_front();
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end()) continue;
    TenantState& state = it->second;
    if (state.queued != 0 || state.inflight != 0) {
      // Went busy since; the next busy->idle transition re-arms.
      state.idle_pending = false;
      continue;
    }
    if (state.idle_since != since) {
      // Busy and idle again since this entry was queued: re-arm with the
      // newer transition tick (push order stays monotone — it's "now or
      // earlier" relative to future pushes).
      idle_fifo_.emplace_back(tenant, state.idle_since);
      continue;
    }
    // A shed-emptied queue can leave a stale active-list entry; eviction
    // would dangle it, so wait for the pop side to retire it first.
    bool listed = false;
    for (std::size_t c = 0; c < kDeadlineClasses; ++c) {
      listed = listed || state.active[c];
    }
    if (listed) {
      state.idle_pending = false;
      continue;
    }
    tenants_.erase(it);
  }
}

std::size_t Scheduler::pull_bound() const {
  auto& stream = runtime_.stream();
  std::size_t depth = 0;
  for (std::size_t d = 0; d < stream.device_count(); ++d) {
    depth += stream.device_depth(d);
  }
  const std::size_t per_launch =
      params_.batching ? std::max<std::size_t>(params_.batcher.max_batch, 1)
                       : 1;
  return std::max<std::size_t>(2 * depth * per_launch, 16);
}

support::StatusOr<std::uint64_t> Scheduler::submit_from_thread(
    Request request) {
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (request.arrival == support::Duration::zero() && params_.submit_cost > 0) {
    // Charge the front-end cost to this thread's shard clock: submitters on
    // different shards advance independent timelines, which is exactly the
    // N-wide submission the throughput table measures. Deliberately no read
    // of global time here — the driver thread may be advancing it.
    auto& clock =
        submit_clocks_[support::thread_shard_id() % support::kStatShards].t;
    const sim::Tick done =
        clock.fetch_add(params_.submit_cost, std::memory_order_relaxed) +
        params_.submit_cost;
    request.arrival = sim::from_ticks(done);
  }
  const std::uint64_t id = request.id;
  if (!submit_ring_.push(std::move(request))) {
    counters_.rejected.add();
    return support::resource_exhausted("submission ring shard full");
  }
  counters_.submitted.add();
  return id;
}

void Scheduler::sync_submit_clocks() {
  const sim::Tick t = now().ticks();
  for (auto& clock : submit_clocks_) {
    sim::Tick cur = clock.t.load(std::memory_order_relaxed);
    while (cur < t && !clock.t.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }
}

sim::Tick Scheduler::max_submit_clock() const {
  sim::Tick latest = 0;
  for (const auto& clock : submit_clocks_) {
    latest = std::max(latest, clock.t.load(std::memory_order_relaxed));
  }
  return latest;
}

void Scheduler::pump_submissions() {
  if (submit_ring_.pending() == 0) return;
  std::vector<Request> incoming = submit_ring_.drain_all();
  // Shards concatenate in shard order; restore the global arrival order
  // (ties broken by submission id) so fairness and batching see the same
  // sequence a single-threaded submitter would have produced.
  std::stable_sort(incoming.begin(), incoming.end(),
                   [](const Request& a, const Request& b) {
                     if (a.arrival.ticks() != b.arrival.ticks()) {
                       return a.arrival.ticks() < b.arrival.ticks();
                     }
                     return a.id < b.id;
                   });
  const support::Duration t = now();
  for (Request& request : incoming) {
    auto [it, inserted] = tenants_.try_emplace(request.tenant);
    TenantState& state = it->second;
    if (request.arrival == support::Duration::zero()) request.arrival = t;
    if (state.queued >= params_.max_queue_per_tenant) {
      // submit() rejects at the door; this path's submitter already parted
      // with the request (it sits in the drained ring), so enforce the same
      // per-tenant bound here and surface the rejection as a completion
      // record the client can join on. Counted in serve.rejected like the
      // front-door rejections (serve.requests already counted it at the
      // ring push, unlike the front door — the submitted/rejected counters'
      // split is per-path, not a balance).
      counters_.rejected.add();
      drop_request(std::move(request), Completion::Outcome::kRejected);
      if (inserted) note_idle_if(it->first, state);
      continue;
    }
    note_arrival(request);
    enqueue(it->first, state, std::move(request));
  }
}

std::optional<Request> Scheduler::pop_next_request() {
  if (queued_ == 0) return std::nullopt;
  // Class-major: the best class with queued work anywhere wins — per-class
  // queues, so an interactive request is visible even when the same tenant
  // queued a batch request first (the old FIFO-front scan's blind spot).
  // Within a class, weighted DRR: the head tenant of the active list serves
  // one request against its deficit (quantum = weight, unit request cost),
  // rotating to the back when the turn's credit is spent. Every iteration
  // below retires either a request or a stale list entry, so the amortized
  // cost per pulled request is O(1) no matter how many tenants exist.
  for (std::size_t c = 0; c < kDeadlineClasses; ++c) {
    auto& list = active_[c];
    while (!list.empty()) {
      const std::uint32_t tenant = list.front();
      const auto it = tenants_.find(tenant);
      if (it == tenants_.end()) {  // evicted behind a stale entry
        list.pop_front();
        continue;
      }
      TenantState& state = it->second;
      auto& queue = state.queues[c];
      if (queue.empty()) {
        // Shedding emptied the queue after activation; retire the entry.
        state.active[c] = false;
        state.deficit[c] = 0;
        list.pop_front();
        continue;
      }
      if (state.deficit[c] == 0) state.deficit[c] = state.weight;  // new turn
      Request out = queue.pop_front();
      state.deficit[c] -= 1;
      state.queued -= 1;
      state.inflight += 1;
      queued_ -= 1;
      pulled_unfinished_ += 1;
      if (queue.empty()) {
        state.active[c] = false;
        state.deficit[c] = 0;
        list.pop_front();
      } else if (state.deficit[c] == 0) {
        list.pop_front();
        list.push_back(tenant);
      }
      out.pulled = now();
      return out;
    }
  }
  return std::nullopt;
}

void Scheduler::maybe_shed() {
  if (!params_.shed.enabled) return;
  const support::Duration t = now();
  if (shed_window_start_ == support::Duration::zero()) {
    shed_window_start_ = t;
    return;
  }
  const support::Duration elapsed = t - shed_window_start_;
  if (elapsed < params_.shed.eval_window || elapsed.picoseconds() <= 0.0) {
    return;
  }
  const double rate = arrival_macs_window_ / elapsed.picoseconds();
  // Windows are irregular (one per pump past eval_window), so weight each
  // sample by the span it covers: a 20-window idle stretch nearly replaces
  // the EWMA with its long-run mean, while a barely-elapsed window moves it
  // one ewma_alpha step.
  const double spans =
      elapsed.picoseconds() / params_.shed.eval_window.picoseconds();
  const double alpha = 1.0 - std::pow(1.0 - params_.shed.ewma_alpha, spans);
  arrival_rate_.observe(rate, alpha);
  arrival_macs_window_ = 0.0;
  shed_window_start_ = t;
  const double ps_per_mac = service_ps_per_mac_.seeded()
                                ? service_ps_per_mac_.value
                                : admission_.device_ps_per_mac();
  if (ps_per_mac <= 0.0) return;  // EWMAs not warmed up: stay open
  const double capacity =
      static_cast<double>(runtime_.stream().device_count()) / ps_per_mac;
  if (arrival_rate_.value <= capacity * params_.shed.headroom) {
    shed_streak_ = 0;
    return;
  }
  // A lone over-gate window is an absorbed burst (a jittered arrival pair
  // landing in one short window reads as a 2x rate spike at half load);
  // sustained overload breaches every window, so requiring two in a row
  // costs one eval_window of reaction time.
  shed_streak_ += 1;
  if (shed_streak_ < 2) return;
  // The elapsed span's overhang: what actually arrived in the window beyond
  // what the fleet retires in the same span (the smoothed EWMA arms the
  // gate; the raw sample doses the drop, so sustained overload sheds
  // exactly its excess instead of one nominal window's worth per decision).
  shed_excess((rate - capacity) * elapsed.picoseconds());
}

std::size_t Scheduler::shed_excess(double excess_macs) {
  std::size_t dropped = 0;
  for (std::size_t c = kDeadlineClasses - 1; c >= 1 && excess_macs > 0.0;
       --c) {
    // Batch first, then standard; interactive (class 0) is never shed.
    auto& list = active_[c];
    while (excess_macs > 0.0 && !list.empty()) {
      const std::uint32_t tenant = list.front();
      const auto it = tenants_.find(tenant);
      if (it == tenants_.end()) {
        list.pop_front();
        continue;
      }
      TenantState& state = it->second;
      auto& queue = state.queues[c];
      if (queue.empty()) {
        state.active[c] = false;
        state.deficit[c] = 0;
        list.pop_front();
        continue;
      }
      // Newest request of the rotating tenant: tails carry the least sunk
      // queueing investment, and rotating spreads the cut across tenants
      // instead of zeroing whoever sits at the head.
      Request victim = queue.pop_back();
      state.queued -= 1;
      queued_ -= 1;
      excess_macs -=
          static_cast<double>(std::max<std::uint64_t>(1, victim.macs()));
      counters_.shed.add();
      counters_.shed_by_class[c].add();
      dropped += 1;
      drop_request(std::move(victim), Completion::Outcome::kShed);
      if (queue.empty()) {
        state.active[c] = false;
        state.deficit[c] = 0;
        list.pop_front();
        note_idle_if(tenant, state);
      } else {
        list.pop_front();
        list.push_back(tenant);
      }
    }
  }
  if (dropped > 0 && obs::enabled()) {
    obs::Tracer::instance().instant(
        "sched", "shed", now().ticks(),
        {{"dropped", static_cast<std::uint64_t>(dropped)},
         {"queued", queued_}});
  }
  return dropped;
}

support::Status Scheduler::pump() {
  // Metrics sampling rides the serving drive loop: one relaxed load when
  // off, a grid check plus (at most once per cell) a stats snapshot when on.
  obs::metrics_pump(now().ticks());
  pump_submissions();
  maybe_shed();
  evict_idle();
  harvest();
  if (obs::enabled() && queued_ > 0) {
    // Queue-depth counter track: renders as the backlog area chart above
    // the per-class request spans.
    obs::Tracer::instance().counter("sched", "queued", now().ticks(),
                                    queued_);
  }
  // Budgeted pull: stop pulling once `budget` pulled requests are still
  // unfinished. The backlog then waits in the tenant queues — where DRR
  // weights, the per-tenant bound, and shedding act — instead of draining
  // wholesale into the batcher, whose dispatch order would erase the
  // weighted shares. The outer loop re-enters when a dispatch finalized
  // synchronously (host-path launches) and thereby freed budget mid-pump;
  // every iteration either pulls or dispatches something, so it terminates.
  const std::size_t budget = pull_bound();
  bool progress = true;
  while (progress) {
    progress = false;
    const support::Duration t = now();
    while (pulled_unfinished_ < budget) {
      auto request = pop_next_request();
      if (!request) break;
      progress = true;
      if (params_.batching) {
        batcher_.add(*request, t);
      } else {
        Batch single;
        single.key = BatchKey::of(*request);
        single.deadline = request->deadline;
        single.oldest_enqueue = t;
        single.requests.push_back(*request);
        TDO_RETURN_IF_ERROR(dispatch(std::move(single)));
      }
    }
    if (params_.batching) {
      // Batch under backpressure, never under idleness: waiting out max_wait
      // while every accelerator starves buys no amortization, only latency —
      // flush everything the moment the compute queues are empty.
      auto& stream = runtime_.stream();
      bool devices_idle = true;
      for (std::size_t d = 0; d < stream.device_count(); ++d) {
        devices_idle = devices_idle && stream.device_in_flight(d) == 0;
      }
      std::vector<Batch> ready =
          devices_idle ? batcher_.take_all(now()) : batcher_.take_ready(now());
      for (Batch& batch : ready) {
        pending_dispatch_.push_back(std::move(batch));
      }
      std::stable_sort(pending_dispatch_.begin(), pending_dispatch_.end(),
                       Batcher::dispatch_order);
      // Capacity-gated dispatch: launch a batch only when its target
      // accelerator has queue room — the affinity pin of the front batch may
      // point at a full device, in which case later batches bound elsewhere
      // skip ahead instead of the whole queue blocking inside the stream.
      // One pass in priority order suffices: dispatching only consumes room,
      // so a batch skipped here stays infeasible until the next pump.
      for (std::size_t i = 0; i < pending_dispatch_.size();) {
        const auto pin = placement_preview(pending_dispatch_[i]);
        bool room = false;
        if (pin) {
          const auto d = static_cast<std::size_t>(*pin);
          room = stream.device_in_flight(d) < stream.device_depth(d);
        } else {
          for (std::size_t d = 0; d < stream.device_count(); ++d) {
            room = room || stream.device_in_flight(d) < stream.device_depth(d);
          }
        }
        if (!room) {
          ++i;
          continue;
        }
        Batch batch = std::move(pending_dispatch_[i]);
        pending_dispatch_.erase(pending_dispatch_.begin() +
                                static_cast<std::ptrdiff_t>(i));
        progress = true;
        TDO_RETURN_IF_ERROR(dispatch(std::move(batch), pin));
      }
    }
    progress = progress && queued_ > 0 && pulled_unfinished_ < budget;
  }
  harvest();
  return support::Status::ok();
}

bool Scheduler::tile_fits(const Request& request) const {
  // Shapes whose stationary tile fits the crossbar run as one job per
  // launch. Oversized shapes split into tile chains where only the first
  // link is fallback-eligible — a forced-host probe could never measure a
  // pure host run for them (and a batched launch would silently degrade to
  // individually-routed calls, voiding the device pin).
  const auto& tile = runtime_.accelerator().tile();
  if (request.op == Op::kSgemv) {
    // y = op(A)x: the crossbar reduces over the x-length and emits the
    // y-length (sgemv_async's kk/outer tiling).
    const std::uint64_t reduce = request.transpose ? request.m : request.n;
    const std::uint64_t out = request.transpose ? request.n : request.m;
    return reduce <= tile.rows() && out <= tile.cols();
  }
  return request.k <= tile.rows() &&
         (request.stationary == cim::StationaryOperand::kB ? request.n
                                                           : request.m) <=
             tile.cols();
}

std::size_t Scheduler::cheapest_device() const {
  auto& stream = runtime_.stream();
  const topo::Topology* topo = runtime_.topology();
  const std::size_t count = stream.device_count();
  // Caller-centric placement spills to the far pool only once every near
  // queue is full; until then far devices price out of the scan entirely.
  const bool caller_centric =
      params_.placement == topo::Placement::kCallerCentric && topo != nullptr;
  bool near_room = false;
  if (caller_centric) {
    for (std::size_t d = 0; d < count; ++d) {
      near_room = near_room ||
                  (topo->tier(d) == topo::Topology::kNearTier &&
                   stream.device_in_flight(d) < stream.device_depth(d));
    }
  }
  // Marginal cost of one more job on device d: queue depth scaled by the
  // link latency multiplier. A near device stays cheapest until its queue
  // is ~multiplier jobs deeper than a far pool's — the load-derived
  // break-even, same rule as CimRuntime's buffer-centric placement.
  const auto cost = [&](std::size_t d) {
    const double mult =
        topo != nullptr ? topo->latency_multiplier(static_cast<int>(d)) : 1.0;
    const double far_penalty =
        caller_centric && near_room &&
                topo->tier(d) != topo::Topology::kNearTier
            ? 1e18
            : 0.0;
    return static_cast<double>(stream.device_in_flight(d) + 1) * mult +
           far_penalty;
  };
  std::size_t best = place_cursor_ % count;
  double best_cost = cost(best);
  for (std::size_t offset = 1; offset < count; ++offset) {
    const std::size_t d = (place_cursor_ + offset) % count;
    const double c = cost(d);
    if (c < best_cost) {
      best = d;
      best_cost = c;
    }
  }
  return best;
}

int Scheduler::device_tier(int device) const {
  const topo::Topology* topo = runtime_.topology();
  if (topo == nullptr || device < 0 ||
      device >= static_cast<int>(runtime_.driver().device_count())) {
    return topo::Topology::kNearTier;
  }
  return topo->tier(device);
}

std::optional<int> Scheduler::placement_preview(const Batch& batch) {
  const Request& head = batch.requests.front();
  if (batch.requests.size() < 2 || head.op != Op::kSgemm ||
      !params_.residency_affinity || !head.cacheable || !tile_fits(head) ||
      params_.placement == topo::Placement::kCallerCentric) {
    // Caller-centric placement never pins by residency: work stays near the
    // caller (shortest near queue), mirroring stationary_device's rule.
    return std::nullopt;
  }
  const bool stationary_b = head.stationary == cim::StationaryOperand::kB;
  return runtime_.weight_affinity(head.m, head.n, head.k,
                                  stationary_b ? head.b : head.a,
                                  stationary_b ? head.ldb : head.lda,
                                  head.stationary);
}

support::Status Scheduler::dispatch(Batch batch, std::optional<int> pinned) {
  const Request& head = batch.requests.front();
  // The admission site carries the memory tier the launch is expected to
  // land on: the affinity pin when the batch has one, otherwise wherever
  // the cost-weighted queue scan would put new work right now. Per-request
  // launches route inside the runtime under the same placement rule, so the
  // anticipated tier is the dispatched tier in the steady state — and
  // finalize() rebuilds the identical key from InFlight::tier, keeping
  // admit() and observe() on the same per-tier EWMAs.
  const int tier =
      device_tier(pinned ? *pinned : static_cast<int>(cheapest_device()));
  const SiteKey site{head.m, head.n, head.k, tier};
  const bool fits = tile_fits(head);
  // Host probes only ride singleton single-tile launches — burning a
  // coalesced batch on the host would distort both the measurement and the
  // tail, and a multi-tile "host" run would execute mixed anyway.
  const AdmitPath path = admission_.admit(
      site, /*host_probe_ok=*/batch.requests.size() == 1 && fits);
  const bool batched = batch.requests.size() >= 2 && head.op == Op::kSgemm &&
                       fits && path != AdmitPath::kForceHost;

  // --- placement: weight residency first, then shortest compute queue ---
  //
  // Only batched launches take a pinned device; per-request launches route
  // inside the runtime (which does its own residency-affinity when the call
  // is cacheable), so computing a placement for them would just be reported
  // without being applied. The affinity result (`pinned`) comes from the
  // caller's capacity-gate preview — one residency walk per batch.
  auto& stream = runtime_.stream();
  int device = -1;
  if (batched) {
    if (pinned) {
      device = *pinned;
      counters_.affinity_routed.add();
    }
    if (device < 0) {
      // Cheapest compute queue (multiplier-weighted when a topology is
      // attached; plain shortest queue otherwise); ties rotate so
      // equally-idle accelerators share the cold-start load instead of
      // device 0 absorbing it.
      const std::size_t best = cheapest_device();
      place_cursor_ = best + 1;
      device = static_cast<int>(best);
      counters_.queue_routed.add();
    }
    if (device_tier(device) == topo::Topology::kFarTier) {
      counters_.far_routed.add();
    }
  }

  // --- adaptive knobs (and per-launch probe overrides) ---
  if (admission_.adaptive()) {
    runtime_.xfer().set_min_async_bytes(admission_.min_async_bytes());
    // Push the site's quantized pseudo-async split share into the runtime
    // so the upcoming sgemm splits at the EWMA-derived optimum.
    runtime_.set_split_fraction(admission_.split_fraction_for(site));
    double threshold = admission_.min_macs_per_write();
    if (path == AdmitPath::kForceHost) threshold = kForceHostThreshold;
    if (path == AdmitPath::kForceDevice) threshold = 0.0;
    stream.set_min_macs_per_write(threshold);
  }

  const auto& residency_hits = runtime_.residency().counters().hits;
  const std::uint64_t residency_hits_before = residency_hits.value();
  // Jobs-accepted-so-far per device (completed + in flight): monotone, so a
  // launch that both enqueues a job and retires another inside one blocking
  // call (wait_for_space) still registers as growth.
  auto& driver = runtime_.driver();
  const auto accepted = [&](std::size_t d) {
    return driver.device(d).jobs_completed() + stream.device_in_flight(d);
  };
  std::vector<std::uint64_t> accepted_before(stream.device_count());
  for (std::size_t d = 0; d < stream.device_count(); ++d) {
    accepted_before[d] = accepted(d);
  }
  const auto& pool = runtime_.host_pool().counters();
  const std::uint64_t pool_jobs_before = pool.jobs.value();
  const std::uint64_t pool_macs_before = pool.macs.value();
  const std::uint64_t pool_ticks_before = pool.busy_ticks.value();

  InFlight inflight;
  inflight.dispatch = now();
  inflight.device = device;
  inflight.tier = tier;
  inflight.batched = batched;

  // --- launch ---
  support::Status status = support::Status::ok();
  if (batched) {
    std::vector<rt::GemmBatchItem> items;
    items.reserve(batch.requests.size());
    for (const Request& r : batch.requests) {
      items.push_back(rt::GemmBatchItem{r.a, r.b, r.c});
    }
    status = runtime_.sgemm_batched_async(
        head.m, head.n, head.k, head.alpha, items, head.lda, head.ldb,
        head.beta, head.ldc, head.stationary, head.cacheable, device);
  } else {
    // Per-request launches: the only shape the stream's dynamic CPU
    // fallback (and thus a kForceHost probe) can act on.
    for (const Request& r : batch.requests) {
      if (r.op == Op::kSgemm) {
        status = runtime_.sgemm_async(r.m, r.n, r.k, r.alpha, r.a, r.lda, r.b,
                                      r.ldb, r.beta, r.c, r.ldc, r.stationary,
                                      r.cacheable);
      } else {
        status = runtime_.sgemv_async(r.transpose, r.m, r.n, r.alpha, r.a,
                                      r.lda, r.b, r.beta, r.c, r.cacheable);
      }
      if (!status.is_ok()) break;
    }
  }
  // Probe overrides last exactly one launch.
  if (admission_.adaptive() && path != AdmitPath::kAuto) {
    stream.set_min_macs_per_write(admission_.min_macs_per_write());
  }
  TDO_RETURN_IF_ERROR(status);
  // Launch counters only after the status check: a failed launch has no
  // completion to match, and counting it would skew every launches-derived
  // ratio (batched share, coalescing factor) against phantom work.
  counters_.launches.add();
  if (batched) {
    counters_.batched_launches.add();
    counters_.coalesced_requests.add(batch.requests.size());
  }
  inflight.launch_end = now().ticks();

  inflight.residency_hit = residency_hits.value() > residency_hits_before;

  // --- completion targets: devices this launch put work on ---
  for (std::size_t d = 0; d < stream.device_count(); ++d) {
    const std::uint64_t accepted_after = accepted(d);
    if (accepted_after == accepted_before[d]) continue;
    // Jobs serialize FIFO per accelerator and this launch's jobs are the
    // last accepted, so the launch is done exactly when the device's
    // completed count covers everything accepted so far — including jobs
    // that already retired inside the dispatch call (their completion
    // ticks are in the observer log).
    inflight.targets.emplace_back(static_cast<int>(d), accepted_after);
  }
  const std::uint64_t pool_jobs = pool.jobs.value();
  if (pool_jobs > pool_jobs_before) {
    // A pseudo-async split put a CPU stripe on the host worker pool: the
    // launch joins only when the pool's FIFO-retired completed count covers
    // every stripe submitted so far, same contract as an accelerator.
    inflight.targets.emplace_back(pool_device_id(), pool_jobs);
    // The stripe doubles as a free host-path probe: its analytic span over
    // its MACs is exactly the per-MAC host cost the split optimum needs,
    // refreshed on every split launch instead of waiting for a forced
    // probe. cim_writes = 0 keeps the site's intensity untouched.
    const std::uint64_t stripe_macs = pool.macs.value() - pool_macs_before;
    const std::uint64_t stripe_ticks =
        pool.busy_ticks.value() - pool_ticks_before;
    if (stripe_macs > 0) {
      admission_.observe(site, /*offloaded=*/false,
                         sim::from_ticks(stripe_ticks), stripe_macs,
                         /*cim_writes=*/0);
    }
  }
  // Offloaded means "an accelerator ran part of it": the host worker pool
  // is a completion target but not a device, so a hypothetical pool-only
  // launch still counts as a host launch.
  inflight.offloaded = false;
  const int real_devices = static_cast<int>(stream.device_count());
  for (const auto& [device, target] : inflight.targets) {
    inflight.offloaded = inflight.offloaded || device < real_devices;
  }
  if (!inflight.offloaded) counters_.host_launches.add();

  inflight.requests = std::move(batch.requests);
  if (inflight.targets.empty()) {
    // Fully host-run (or already retired): completion is synchronous.
    finalize(std::move(inflight), now().ticks());
  } else {
    inflight_.push_back(std::move(inflight));
  }
  return support::Status::ok();
}

void Scheduler::harvest() {
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    sim::Tick done = 0;
    bool all = true;
    for (const auto& [device, target] : it->targets) {
      const auto& log = logs_[static_cast<std::size_t>(device)];
      bool met = false;
      for (const auto& [completed, when] : log) {
        if (completed >= target) {
          if (when >= done) {
            // The target that defines the launch's done tick is the
            // critical one — the trace span joins its engine job.
            done = when;
            it->critical_device = device;
            it->critical_target = target;
          }
          met = true;
          break;
        }
      }
      if (!met) {
        all = false;
        break;
      }
    }
    if (all) {
      InFlight finished = std::move(*it);
      it = inflight_.erase(it);
      finalize(std::move(finished), done);
    } else {
      ++it;
    }
  }
  prune_logs();
}

void Scheduler::prune_logs() {
  for (std::size_t d = 0; d < logs_.size(); ++d) {
    // Keep entries any outstanding target could still need; without
    // outstanding targets one trailing entry suffices (future targets are
    // always larger than the current completed count).
    std::uint64_t keep_from = std::numeric_limits<std::uint64_t>::max();
    for (const InFlight& inflight : inflight_) {
      for (const auto& [device, target] : inflight.targets) {
        if (device == static_cast<int>(d)) {
          keep_from = std::min(keep_from, target);
        }
      }
    }
    auto& log = logs_[d];
    if (log.empty()) continue;
    if (keep_from == std::numeric_limits<std::uint64_t>::max()) {
      log.erase(log.begin(), log.end() - 1);
      continue;
    }
    const auto first_needed = std::find_if(
        log.begin(), log.end(),
        [keep_from](const auto& entry) { return entry.first >= keep_from; });
    if (first_needed != log.begin() && first_needed != log.end()) {
      log.erase(log.begin(), first_needed);
    }
  }
}

void Scheduler::finalize(InFlight inflight, sim::Tick done_tick) {
  const support::Duration done = sim::from_ticks(done_tick);
  const Request& head = inflight.requests.front();
  const SiteKey site{head.m, head.n, head.k, inflight.tier};
  // Only single-request launches feed the admission EWMAs: the intensity
  // threshold gates exactly those (batched jobs never take the CPU
  // fallback, and aggregating a multi-request launch's MACs against one
  // programming pass would inflate the site's intensity past what the
  // per-job gate sees). A residency hit paid no programming — flagged so
  // the miss-path EWMA stays unbiased.
  if (inflight.requests.size() == 1) {
    admission_.observe(site, inflight.offloaded, done - inflight.dispatch,
                       head.macs(),
                       inflight.residency_hit ? 0 : head.cim_writes());
  }

  // Shedder capacity: dispatch-to-done per MAC across every offloaded
  // launch, batched or not. Queueing is included on purpose — it biases
  // capacity low under load, which with ShedParams::headroom errs toward
  // shedding rather than letting the backlog grow unbounded.
  if (params_.shed.enabled && inflight.offloaded) {
    std::uint64_t launch_macs = 0;
    for (const Request& r : inflight.requests) launch_macs += r.macs();
    if (launch_macs > 0) {
      service_ps_per_mac_.observe((done - inflight.dispatch).picoseconds() /
                                      static_cast<double>(launch_macs),
                                  params_.shed.ewma_alpha);
    }
  }

  // Per-request trace span on the class track, carrying every scheduler-side
  // checkpoint plus the engine-job join key ({dev, target}; dev = 0 when the
  // completion was synchronous or pool-defined, so the analyzer books the
  // post-launch remainder as compute instead of chasing a device join).
  if (obs::enabled()) {
    auto& tracer = obs::Tracer::instance();
    const int real_devices =
        static_cast<int>(runtime_.driver().device_count());
    const bool device_critical = inflight.critical_device >= 0 &&
                                 inflight.critical_device < real_devices;
    const std::uint64_t dev_arg =
        device_critical
            ? static_cast<std::uint64_t>(inflight.critical_device) + 1
            : 0;
    for (const Request& r : inflight.requests) {
      // A submit-shard clock can stamp arrivals ahead of the driver clock;
      // clamp so the span never underflows (zero-length is honest there).
      const std::uint64_t arrival =
          std::min<std::uint64_t>(r.arrival.ticks(), done_tick);
      tracer.span(
          std::string("sched/") + to_string(r.deadline), "request", arrival,
          done_tick - arrival,
          {{"id", r.id},
           {"tenant", r.tenant},
           {"dev", dev_arg},
           {"target", device_critical ? inflight.critical_target : 0},
           {"pull", r.pulled.ticks()},
           {"close", inflight.dispatch.ticks()},
           {"launch", inflight.launch_end}});
    }
  }

  const auto batch_size =
      static_cast<std::uint32_t>(inflight.requests.size());
  for (Request& r : inflight.requests) {
    Completion completion;
    completion.id = r.id;
    completion.tenant = r.tenant;
    completion.deadline = r.deadline;
    completion.arrival = r.arrival;
    completion.dispatch = inflight.dispatch;
    completion.done = done;
    completion.device = inflight.device;
    completion.offloaded = inflight.offloaded;
    completion.batch_size = batch_size;
    class_latency_[static_cast<std::size_t>(r.deadline)].add(
        completion.latency());
    completions_.push_back(completion);
    counters_.completed.add();
    if (pulled_unfinished_ > 0) pulled_unfinished_ -= 1;
    const auto it = tenants_.find(r.tenant);
    if (it != tenants_.end()) {
      TenantState& state = it->second;
      if (state.inflight > 0) state.inflight -= 1;
      note_idle_if(r.tenant, state);
    }
  }
}

std::optional<sim::Tick> Scheduler::next_wake_tick() const {
  std::optional<sim::Tick> wake;
  const auto& events = runtime_.system().events();
  if (submit_ring_.pending() > 0) {
    // Cross-thread submissions are waiting in the ring: pump immediately.
    return events.now();
  }
  if ((!inflight_.empty() || !pending_dispatch_.empty()) && !events.empty()) {
    wake = events.next_when();
  }
  if (const auto close = batcher_.next_close_time()) {
    // take_ready uses >=, so waking exactly at the close time suffices; an
    // already-due batch means "pump now".
    const sim::Tick close_tick = std::max(close->ticks(), events.now());
    if (!wake || close_tick < *wake) wake = close_tick;
  }
  return wake;
}

bool Scheduler::quiescent() const {
  return submit_ring_.pending() == 0 && queued_ == 0 &&
         batcher_.pending() == 0 && pending_dispatch_.empty() &&
         inflight_.empty();
}

bool Scheduler::advance_to_next_event(std::optional<sim::Tick> external_wake) {
  auto wake = next_wake_tick();
  if (external_wake && (!wake || *external_wake < *wake)) {
    wake = external_wake;
  }
  if (!wake) return false;
  auto& events = runtime_.system().events();
  if (*wake <= events.now()) {
    // The wake point is already due — a batch close stamped from a clock
    // that ran ahead, or completions whose ticks the caller leapt past.
    // run_until executes every overdue event (advance_to would skip them,
    // livelocking on work that never retires) and the one-tick nudge makes
    // a due batch close visible to take_ready's age check.
    events.run_until(events.now() + 1);
  } else {
    events.run_until(*wake);
  }
  return true;
}

support::Status Scheduler::drain() {
  while (true) {
    TDO_RETURN_IF_ERROR(pump());
    if (quiescent()) break;
    if (!advance_to_next_event()) {
      // In-flight work without a pending event: force the runtime to drain
      // (surfacing any device error) and try once more.
      TDO_RETURN_IF_ERROR(runtime_.synchronize());
      TDO_RETURN_IF_ERROR(pump());
      if (quiescent()) break;
      return support::internal_error("serve scheduler stalled");
    }
  }
  return runtime_.synchronize();
}

support::Status Scheduler::upload(sim::VirtAddr dst, sim::VirtAddr src,
                                  std::uint64_t bytes) {
  if (admission_.adaptive()) {
    runtime_.xfer().set_min_async_bytes(admission_.min_async_bytes());
  }
  const std::uint64_t host_before = runtime_.xfer().host_copies();
  const support::Duration before = now();
  TDO_RETURN_IF_ERROR(runtime_.host_to_dev(dst, src, bytes));
  const bool host_path = runtime_.xfer().host_copies() > host_before;
  admission_.observe_copy(bytes, host_path, now() - before);
  return support::Status::ok();
}

void Scheduler::reset_latency_stats() {
  for (auto& histogram : class_latency_) histogram.reset();
}

std::vector<Completion> Scheduler::take_completions() {
  std::vector<Completion> out = std::move(completions_);
  completions_.clear();
  return out;
}

std::uint64_t Scheduler::latency_lock_contended() const {
  std::uint64_t total = 0;
  for (const auto& histogram : class_latency_) {
    total += histogram.lock_contended();
  }
  return total;
}

}  // namespace tdo::serve
