// Multi-tenant serving scheduler over the CIM runtime.
//
// Callers used to talk straight to the blocking/stream BLAS facade; nothing
// batched, prioritized or admission-controlled concurrent requests. The
// scheduler adds that system layer (the level Eva-CiM and CIMFlow argue CIM
// must be judged at):
//
//   * per-tenant, per-class FIFO queues with a bounded depth (admission
//     control) and a class-major weighted deficit-round-robin pull —
//     interactive work dispatches before batch work even when it sits behind
//     a batch-class request in the same tenant's backlog (per-class queues,
//     not FIFO fronts), tenants share a class's bandwidth in proportion to
//     their configured weights, and the pull itself is O(1) per request
//     (active-tenant lists, no ring scan), so scheduling cost stays flat at
//     10^5-10^6 tenants. Tenants idle past `tenant_idle_timeout` are evicted
//     so the per-tenant maps stay bounded too;
//   * overload shedding: when the measured arrival-rate EWMA exceeds the
//     capacity the admission EWMAs imply (device_count / device-ps-per-MAC),
//     the excess is dropped from the queue tails batch-class first — never
//     interactive — each drop surfacing a Completion with Outcome::kShed so
//     closed-loop clients unblock;
//   * dynamic batching (serve/batcher.hpp): same-shape, same-weight requests
//     coalesce into one sgemm_batched_async launch, closed on max size/wait;
//   * residency-aware placement: a batch routes to the accelerator whose
//     crossbars already hold its weights (CimRuntime::weight_affinity),
//     falling back to the shortest compute queue;
//   * DTO-style adaptive admission (serve/admission.hpp): per call-site
//     EWMAs of observed device vs host-fallback latency continuously retune
//     the stream's `min_macs_per_write` and the transfer engine's
//     `min_async_bytes` instead of trusting the static knobs.
//
// The scheduler is cooperative, like everything in this simulator: submit()
// never blocks, pump() moves requests through the pipeline, and drain()
// advances simulated time (event queue) until every request completed.
// Completion timestamps are exact — the scheduler attaches a completion
// observer to every accelerator's job-done interrupt instead of polling.
//
// Concurrency (DESIGN.md section 11): submit_from_thread() is safe from any
// OS thread — ids from an atomic counter, counters on per-thread shards,
// requests pushed into the caller's shard of a submission ring that pump()
// (driver thread) drains in arrival order. There is no global scheduler
// lock; everything downstream of the ring runs on the driver thread, and
// the host worker pool joins the completion machinery as one more
// pseudo-device target.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/cim_blas.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/request.hpp"
#include "support/ewma.hpp"
#include "support/stats.hpp"
#include "support/status.hpp"
#include "support/threading.hpp"
#include "topo/topology.hpp"

namespace tdo::serve {

/// Open-loop overload control: when the measured arrival rate (MACs per
/// picosecond, EWMA over eval_window-sized windows) exceeds the measured
/// service capacity, the scheduler sheds the excess from the queue tails by
/// deadline class — batch first, then standard, never interactive. Capacity
/// comes from the scheduler's own dispatch-to-done EWMA over offloaded
/// launches (admission's device_ps_per_mac() is the fallback until that
/// warms up); until either estimate exists the shedder stays open.
struct ShedParams {
  bool enabled = false;
  /// Shed only past headroom * capacity: the EWMAs measure dispatch-to-done
  /// (queueing included), which biases capacity low under load, and a
  /// serving system should absorb brief bursts rather than drop at 1.01x.
  double headroom = 1.1;
  /// Smoothing factor for the arrival-rate EWMA.
  double ewma_alpha = 0.3;
  /// Arrival-rate measurement window; each elapsed window folds one rate
  /// sample into the EWMA (weighted by the span it covers — windows are
  /// irregular) and triggers at most one shed decision. Shedding requires
  /// two consecutive over-gate windows, so an isolated burst is absorbed at
  /// the cost of one window of reaction time.
  support::Duration eval_window = support::Duration::from_us(25.0);
};

struct SchedulerParams {
  BatcherParams batcher;
  AdmissionParams admission;
  ShedParams shed;
  /// Off: every request dispatches individually in pull order (the
  /// no-batching FIFO baseline benches compare against).
  bool batching = true;
  /// Off: placement ignores weight residency (shortest queue only).
  bool residency_affinity = true;
  /// Fabric placement policy, pushed into the runtime at construction.
  /// kBufferCentric (default) follows resident weights across tiers;
  /// kCallerCentric fills the near tier to its queue depth first and spills
  /// far only under pressure (batched placement skips the residency walk);
  /// kBlind ignores the topology entirely.
  topo::Placement placement = topo::Placement::kBufferCentric;
  /// Per-tenant queue bound; submit() rejects beyond it (backpressure to the
  /// front end instead of unbounded memory).
  std::size_t max_queue_per_tenant = 1024;
  /// Simulated front-end cost of one submit_from_thread call, charged to the
  /// submitting shard's clock (per-thread timelines: N submitters push N
  /// requests in the simulated time one submitter pushes one). 0 disables
  /// the clocks — arrivals stamp from global time when pump() drains them.
  sim::Tick submit_cost = 0;
  /// A tenant idle (no queued requests, nothing in flight) for this long is
  /// evicted from the per-tenant map, so the map tracks the active set, not
  /// every tenant ever seen. A re-appearing tenant re-registers from the
  /// request (weight field) or set_tenant_weight. 0 disables eviction. The
  /// default is one simulated second: far past any serving-path timescale,
  /// so only truly departed tenants age out.
  support::Duration tenant_idle_timeout = support::Duration::from_us(1.0e6);
  /// Stats prefix for the serve.* counters.
  std::string name = "serve";
};

class Scheduler {
 public:
  /// The scheduler's counters, each registered as `<name>.<member>` —
  /// except `submitted` (`<name>.requests`) and `shed_by_class`
  /// (`<name>.shed.<class>`). Submission counters are sharded: any thread
  /// may submit.
  struct Counters {
    support::ShardedCounter submitted;
    support::ShardedCounter rejected;
    support::Counter shed;  ///< dropped by overload shedding
    /// Per-class shed counts: the shed-rate SLO monitor differences these
    /// across metrics samples.
    support::Counter shed_by_class[kDeadlineClasses];
    support::Counter completed;
    support::Counter launches;  ///< runtime dispatches (batches incl.)
    support::Counter batched_launches;    ///< launches with >= 2 requests
    support::Counter coalesced_requests;  ///< requests riding batched launches
    support::Counter affinity_routed;     ///< placements by weight residency
    support::Counter queue_routed;        ///< placements by shortest queue
    support::Counter far_routed;     ///< batched placements on far-tier devices
    support::Counter host_launches;  ///< launches that ran fully on host
  };

  Scheduler(SchedulerParams params, rt::CimRuntime& runtime);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Accepts one request (never blocks). Stamps arrival with the current
  /// global time when the request carries none. kResourceExhausted when the
  /// tenant's queue is full. Driver-thread only — concurrent submitters use
  /// submit_from_thread().
  support::StatusOr<std::uint64_t> submit(Request request);

  /// Thread-safe submission from any thread: the id comes from an atomic
  /// counter, the arrival (when the request carries none and submit_cost is
  /// set) from the submitting shard's simulated clock, and the request lands
  /// in the caller's shard of the submission ring — no global lock, no
  /// contention between submitters on different shards. pump() drains the
  /// ring in arrival order. kResourceExhausted when the caller's shard is
  /// full; the ring capacity, not the per-tenant bound, is this path's
  /// backpressure limit.
  support::StatusOr<std::uint64_t> submit_from_thread(Request request);

  /// Registers (or updates) a tenant's DRR share weight: a weight-w tenant
  /// receives w requests of service per round against a weight-1 competitor
  /// in the same deadline class. Clamped to >= 1. Requests can carry the
  /// weight themselves (Request::weight); this call exists for front ends
  /// that register tenants ahead of traffic. The registration lives in the
  /// per-tenant state, so it ages out with the tenant under
  /// tenant_idle_timeout. Driver-thread only.
  void set_tenant_weight(std::uint32_t tenant, std::uint32_t weight);

  /// Drops up to `excess_macs` worth of queued work from the queue tails,
  /// batch class first, then standard — never interactive — rotating across
  /// tenants within a class so no single tenant absorbs the whole cut. Each
  /// victim surfaces a Completion with Outcome::kShed and counts in
  /// serve.shed. Returns the number of requests dropped. pump() calls this
  /// from the arrival-rate trigger (ShedParams); public so tests and benches
  /// can exercise the ordering policy directly.
  std::size_t shed_excess(double excess_macs);

  /// Tenants currently tracked (the active set plus not-yet-evicted idle
  /// tenants) — the quantity tenant_idle_timeout keeps bounded.
  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }

  /// Advances every submit-shard clock to at least the current global time.
  /// Driver-thread only; call before a simulated submission phase so shard
  /// clocks measure from "now" rather than from a previous phase's end.
  void sync_submit_clocks();

  /// Latest submit-shard clock: when the busiest simulated submitter
  /// finished its last push.
  [[nodiscard]] sim::Tick max_submit_clock() const;

  /// Requests pushed by other threads and not yet drained by pump().
  [[nodiscard]] std::size_t ring_pending() const {
    return submit_ring_.pending();
  }
  /// Contended lock acquisitions across the submission ring's shards.
  [[nodiscard]] std::uint64_t ring_lock_contended() const {
    return submit_ring_.lock_contended();
  }

  /// One scheduling round: harvest completions, pull queued requests in
  /// fairness order into the batcher (or dispatch directly when batching is
  /// off), dispatch every ready batch.
  support::Status pump();

  /// Next tick at which pump() can make progress: the earliest device event
  /// or open-batch close time. nullopt when the scheduler is quiescent.
  [[nodiscard]] std::optional<sim::Tick> next_wake_tick() const;

  /// Advances simulated time to the next actionable point — the earlier of
  /// next_wake_tick() and the caller's `external_wake` (e.g. an open-loop
  /// arrival) — nudging one tick forward when the wake point is already due
  /// (take_ready uses >=, so the age check must see time past the close).
  /// Returns false when there is nothing to wake for. The single
  /// time-advance rule shared by drain() and serve::drive (load.hpp).
  bool advance_to_next_event(
      std::optional<sim::Tick> external_wake = std::nullopt);

  /// Runs pump() and advances simulated time until every submitted request
  /// has completed, then synchronizes the runtime.
  support::Status drain();

  /// True when nothing is queued, batching, or in flight.
  [[nodiscard]] bool quiescent() const;

  /// Host<->device transfer through the scheduler: same as the runtime call,
  /// but the measured host-side cost feeds the adaptive min_async_bytes
  /// knob.
  support::Status upload(sim::VirtAddr dst, sim::VirtAddr src,
                         std::uint64_t bytes);

  /// The scheduler's clock: global simulated time, which stamps arrivals
  /// that carry none.
  [[nodiscard]] support::Duration now() const;

  /// Completions recorded since the last call (move-out). Includes dropped
  /// requests (Outcome::kShed / kRejected) so closed-loop clients always
  /// unblock; drops never enter the latency histograms.
  [[nodiscard]] std::vector<Completion> take_completions();

  /// Resets the per-class latency histograms. ROI-style
  /// measurement: benches warm the residency cache and the admission EWMAs
  /// first, then measure steady-state serving — the same snapshot-around-ROI
  /// discipline the rest of the harness uses.
  void reset_latency_stats();

  /// Merged snapshot of the per-thread latency shards for one class.
  /// Returned by value: recording threads keep adding while the caller
  /// reads, so a reference would be a moving target.
  [[nodiscard]] support::LatencyHistogram class_latency(DeadlineClass c) const {
    return class_latency_[static_cast<std::size_t>(c)].merged();
  }
  /// Contended acquisitions across the class-histogram shard locks.
  [[nodiscard]] std::uint64_t latency_lock_contended() const;

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] AdmissionController& admission() { return admission_; }
  [[nodiscard]] const SchedulerParams& params() const { return params_; }

 private:
  struct InFlight {
    std::vector<Request> requests;
    support::Duration dispatch;
    int device = -1;
    /// Memory tier the launch's admission site was stamped with at dispatch
    /// (finalize must rebuild the identical SiteKey for its observe call).
    int tier = 0;
    bool offloaded = false;
    bool batched = false;
    bool residency_hit = false;
    /// Tick the runtime launch call returned on the driver thread (the
    /// `launch` checkpoint of the per-request trace span).
    sim::Tick launch_end = 0;
    /// The completion-defining target (the one whose met tick equals the
    /// launch's done tick), captured by harvest() so finalize() can stamp
    /// the request span with the engine-job join key. -1 device when the
    /// launch finished synchronously.
    int critical_device = -1;
    std::uint64_t critical_target = 0;
    /// Per-target completed-jobs counts that signal this launch finished
    /// (jobs serialize FIFO per accelerator, and the host worker pool
    /// retires FIFO too, so "completed reaches N" is exact). Device ids
    /// < device_count are accelerators; pool_device_id() is the host
    /// worker pool carrying a pseudo-async split's CPU stripe. Empty means
    /// the launch finished synchronously on the driver thread.
    std::vector<std::pair<int, std::uint64_t>> targets;
  };

  /// Compact FIFO for one tenant x class queue. A std::deque allocates ~2KB
  /// the moment it is constructed, which at 10^5-10^6 tenants (x3 classes)
  /// dominates memory; this vector-plus-head-index FIFO allocates nothing
  /// while empty and compacts lazily, with amortized O(1) push/pop.
  struct RequestQueue {
    std::vector<Request> items;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head >= items.size(); }
    [[nodiscard]] std::size_t size() const { return items.size() - head; }
    void push_back(Request&& r) { items.push_back(std::move(r)); }
    [[nodiscard]] Request pop_front() {
      Request out = std::move(items[head]);
      head += 1;
      if (head >= items.size()) {
        items.clear();
        head = 0;
      } else if (head > 32 && head * 2 > items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return out;
    }
    [[nodiscard]] Request pop_back() {
      Request out = std::move(items.back());
      items.pop_back();
      if (head >= items.size()) {
        items.clear();
        head = 0;
      }
      return out;
    }
  };

  /// Everything the scheduler tracks per tenant: the per-class queues, the
  /// DRR share state, and the idle-eviction bookkeeping. One flat struct so
  /// a tenant costs one hash-map slot (~200B empty), not entries across
  /// parallel maps.
  struct TenantState {
    std::uint32_t weight = 1;  ///< DRR quantum (requests per round)
    RequestQueue queues[kDeadlineClasses];
    /// Remaining credit in the tenant's current DRR turn for each class; 0
    /// means "top up with `weight` when the tenant next reaches the head of
    /// the active list".
    std::uint32_t deficit[kDeadlineClasses] = {};
    /// Whether the tenant currently has an entry in active_[c]. May lag the
    /// queue emptying (shedding leaves the entry for the pop side to lazily
    /// retire); a non-empty queue always implies an entry.
    bool active[kDeadlineClasses] = {};
    std::size_t queued = 0;     ///< total across the class queues
    std::uint64_t inflight = 0; ///< pulled (batcher/pending/launched), not
                                ///< yet finalized
    sim::Tick idle_since = 0;   ///< last busy->idle transition
    bool idle_pending = false;  ///< an idle_fifo_ entry refers to this tenant
  };

  /// Drains the submission ring into the tenant queues in arrival order
  /// (driver thread; the consumer side of submit_from_thread). Enforces
  /// params_.max_queue_per_tenant — the bound submit() applies — rejecting
  /// overflow with an Outcome::kRejected completion record, since this
  /// path's submitters already parted with the request.
  void pump_submissions();
  /// Appends `request` to its tenant x class queue, registering a carried
  /// weight and activating the tenant in the class's DRR list.
  void enqueue(std::uint32_t tenant, TenantState& state, Request&& request);
  /// Records a dropped request as a completion-style record (no latency
  /// histogram entry, no completed count).
  void drop_request(Request&& request, Completion::Outcome outcome);
  /// Accumulates one arrival into the shed window (no-op when shedding is
  /// off).
  void note_arrival(const Request& request);
  /// Folds the elapsed arrival window into the rate EWMA and sheds the
  /// excess when the rate exceeds headroom x capacity.
  void maybe_shed();
  /// Arms the idle-eviction clock when the tenant just went fully idle.
  void note_idle_if(std::uint32_t tenant, TenantState& state);
  /// Evicts tenants idle past tenant_idle_timeout (amortized O(1): one FIFO
  /// entry per idle transition, validated against the tenant's live state).
  void evict_idle();
  /// Pulled-but-unfinished request bound: pump() stops pulling from the
  /// tenant queues once this many pulled requests are still in the batcher,
  /// the pending-dispatch queue, or in flight. Without the bound every pump
  /// would drain the whole backlog into the batcher and dispatch order —
  /// not DRR — would decide tenant shares; with it the backlog stays in the
  /// tenant queues where weights, per-tenant bounds, and shedding act.
  /// Derived from the fleet: 2 x total stream depth x max_batch (enough to
  /// keep every device fed through one full pump cycle), at least 16.
  [[nodiscard]] std::size_t pull_bound() const;
  /// Pseudo-device id the host worker pool's completions log under: one past
  /// the last real accelerator.
  [[nodiscard]] int pool_device_id() const;
  /// Whether the request's stationary tile fits one crossbar (single-job
  /// launches; the precondition for batched launches and host probes).
  [[nodiscard]] bool tile_fits(const Request& request) const;
  /// The device a batched launch of `batch` would pin by residency
  /// affinity; nullopt when any device would do (no pin / not batchable).
  [[nodiscard]] std::optional<int> placement_preview(const Batch& batch);
  /// Cost-cheapest device for new work right now: queue depth weighted by
  /// the device's link latency multiplier when the runtime carries a
  /// topology (mirrors CimRuntime's topology-aware placement); plain
  /// shortest queue otherwise. Scans from place_cursor_ without advancing
  /// it, so previews and actual placements see the same rotation.
  [[nodiscard]] std::size_t cheapest_device() const;
  /// Topology tier of `device` (kNearTier when no topology is attached or
  /// the id is out of range, e.g. the host pool pseudo-device).
  [[nodiscard]] int device_tier(int device) const;
  void harvest();
  /// Class-major weighted DRR pull: the best non-empty class wins; within
  /// it, the tenant at the head of the class's active list serves one
  /// request per call against its deficit (quantum = weight, unit cost per
  /// request), rotating to the back when the turn's credit is spent.
  /// Amortized O(1) — no scan over idle tenants.
  [[nodiscard]] std::optional<Request> pop_next_request();
  support::Status dispatch(Batch batch,
                           std::optional<int> pinned = std::nullopt);
  void finalize(InFlight inflight, sim::Tick done_tick);
  void prune_logs();

  SchedulerParams params_;
  rt::CimRuntime& runtime_;
  Batcher batcher_;
  AdmissionController admission_;

  std::unordered_map<std::uint32_t, TenantState> tenants_;
  /// Per-class DRR rotation: tenant ids with (nominally) queued work of that
  /// class, served from the front, rotated to the back when a turn's
  /// deficit is spent.
  std::deque<std::uint32_t> active_[kDeadlineClasses];
  /// Idle-eviction clock: one (tenant, idle-transition tick) entry per
  /// busy->idle transition, popped once older than tenant_idle_timeout and
  /// validated against the tenant's live state (monotone push ticks, so the
  /// front is always the oldest candidate).
  std::deque<std::pair<std::uint32_t, sim::Tick>> idle_fifo_;
  std::size_t place_cursor_ = 0;  ///< rotates shortest-queue tie-breaks
  std::atomic<std::uint64_t> next_id_{1};
  std::uint64_t queued_ = 0;
  /// Requests pulled from the tenant queues and not yet finalized (batcher +
  /// pending_dispatch_ + inflight_); pump() pulls only below the budget.
  std::size_t pulled_unfinished_ = 0;

  /// Overload-shedding state (driver thread): MACs arrived in the current
  /// eval window, the window's start, and the cross-window rate EWMA.
  double arrival_macs_window_ = 0.0;
  support::Duration shed_window_start_;
  support::Ewma arrival_rate_;  ///< MACs per picosecond
  int shed_streak_ = 0;  ///< consecutive over-gate windows; shed needs two
  /// Capacity estimate for the shedder: dispatch-to-done picoseconds per MAC
  /// over every offloaded launch (batched launches included — admission only
  /// ever sees singletons), fed by finalize() when shedding is enabled. Kept
  /// scheduler-side so shedding works with static admission knobs and an
  /// overloaded fleet cannot flip the admission threshold toward the
  /// synchronous host path.
  support::Ewma service_ps_per_mac_;

  /// Cross-thread submission path: per-shard rings plus per-shard simulated
  /// submitter clocks (each advanced by submit_cost per push, so N threads
  /// submit N-wide in simulated time). A full shard (ShardedRing's default
  /// capacity) rejects with kResourceExhausted, like the tenant bound.
  support::ShardedRing<Request> submit_ring_;
  struct alignas(64) SubmitClock {
    std::atomic<sim::Tick> t{0};
  };
  SubmitClock submit_clocks_[support::kStatShards];

  std::vector<InFlight> inflight_;
  /// Closed batches awaiting accelerator capacity, kept in (deadline class,
  /// oldest member) order. pump() dispatches from the front while any
  /// compute queue has room, so one tenant's backlog cannot head-of-line
  /// block a later higher-priority batch behind a full queue.
  std::vector<Batch> pending_dispatch_;
  /// Per-device completion log fed by the accelerator observers:
  /// (completed-jobs count, tick) per job-done interrupt.
  std::vector<std::vector<std::pair<std::uint64_t, sim::Tick>>> logs_;

  std::vector<Completion> completions_;
  /// Sharded: finalize() records from the driver thread today, but the
  /// shards let a future parallel retirement path (and concurrent readers
  /// taking merged snapshots) proceed without a global histogram lock.
  support::ShardedLatencyHistogram class_latency_[kDeadlineClasses];

  Counters counters_;
};

}  // namespace tdo::serve
