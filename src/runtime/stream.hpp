// Asynchronous command stream for CIM offload (DTO-style work queues).
//
// The paper's runtime submits every job synchronously: ioctl, cache flush,
// spin-poll, copy back — the round trips that make low-intensity kernels
// lose in Figure 6. CimStream removes the round trips without changing the
// device model: commands are enqueued into per-accelerator hardware work
// queues, completions retire through the simulator's event queue, chained
// jobs start back-to-back on the device (their weight-load DMA overlapping
// the previous job's stream phase), and batches round-robin across every
// registered accelerator instance.
//
// Like Intel's DSA Transparent Offload library, the dispatch decision is
// dynamic: a command whose runtime MACs-per-CIM-write falls below the
// configured threshold — or that arrives while the work queue is full —
// executes on the host CPU model instead (see DESIGN.md, "Command streams").
//
// Host<->device copies are stream commands too (Command::Kind::kCopy):
// the transfer engine (runtime/xfer.hpp) plans them, and they execute on
// the accelerator's otherwise-idle DMA channel, overlapping the engine's
// compute. Hazards are tracked at rectangle granularity ({base, pitch,
// width, rows} footprints with a precise 2-D overlap test), so the disjoint
// column stripes of different calls — and copies against disjoint tiles —
// proceed without a drain.
//
// The blocking polly_cimBlas* facade is a thin wrapper over this stream:
// enqueue everything, then synchronize before returning.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cim/context_regs.hpp"
#include "runtime/driver.hpp"
#include "runtime/xfer.hpp"
#include "sim/system.hpp"
#include "support/stats.hpp"
#include "support/status.hpp"
#include "support/threading.hpp"

namespace tdo::rt {

class HostWorkerPool;

struct StreamParams {
  /// Maximum commands in flight per accelerator (running + queued); 0 counts
  /// as 1. Depth 1 reproduces the paper's fully synchronous submit/wait
  /// behaviour.
  std::size_t depth = 2;
  /// Dynamic offload threshold on a command's MACs-per-CIM-write (DTO's
  /// DTO_MIN_BYTES analogue). 0 disables CPU fallback by intensity.
  double min_macs_per_write = 0.0;
  /// When the chosen accelerator's queue is full: true falls back to the
  /// host CPU (DTO's ENQ-retry behaviour), false blocks for space.
  bool fallback_when_full = false;
  /// Stats prefix (one stream per runtime; rename when running several).
  std::string name = "stream";
};

class CimStream {
 public:
  /// The stream's counters, each registered as `<name>.<member>`. Sharded:
  /// enqueue-path counters are hot and may be snapshotted by the metrics
  /// sampler while submitter threads run. Per-device DMA and engine figures
  /// (overlapped copy bytes, copy segments, ...) live on the accelerators;
  /// sum them across instances with StatsSnapshot::sum_ending_with.
  struct Counters {
    support::ShardedCounter enqueued;
    support::ShardedCounter offloaded;
    support::ShardedCounter cpu_fallbacks;
    support::ShardedCounter fallbacks_threshold;
    support::ShardedCounter fallbacks_queue_full;
    support::ShardedCounter syncs;
    support::ShardedCounter hazard_syncs;
    /// Single-accelerator drains issued by per-stripe copy-back (the other
    /// accelerators keep computing while a finished stripe copies out).
    support::ShardedCounter device_drains;
    /// Lifetime peak of commands in flight (only ever raised).
    support::Counter occupancy_peak;
    /// DMA copy commands (transfer engine, runtime/xfer.hpp).
    support::ShardedCounter copies_enqueued;
    support::ShardedCounter copy_bytes;
    /// Cross-thread submission ring (enqueue_from_thread / pump_rings).
    support::ShardedCounter ring_submitted;
    support::ShardedCounter ring_rejected;
  };

  /// One stream command: either a compute job (a fully prepared register
  /// image plus the metadata the dispatcher needs) or a DMA copy descriptor.
  struct Command {
    enum class Kind { kCompute, kCopy };
    Kind kind = Kind::kCompute;
    cim::ContextRegs image;
    /// Runtime cost-model inputs for the dynamic fallback decision.
    std::uint64_t macs = 0;
    std::uint64_t cim_writes = 0;
    /// Fixed accelerator (chained tiles must share a queue); -1 round-robins.
    int device = -1;
    /// False for order-dependent chain links (a beta-accumulating tile must
    /// not run early on the host while its predecessor sits in a queue).
    bool allow_cpu_fallback = true;
    /// kCopy only: the transfer descriptor (image is built internally).
    CopyDesc copy;
  };

  CimStream(StreamParams params, sim::System& system, CimDriver& driver);

  /// Dispatches one command: host CPU when below the intensity threshold or
  /// the queue is full (and fallback is allowed), otherwise into an
  /// accelerator work queue. Returns once the command is accepted — device
  /// execution completes asynchronously. Driver-thread only: the simulator
  /// underneath is single-threaded; other threads use enqueue_from_thread.
  support::Status enqueue(const Command& command);

  /// Thread-safe submission: pushes the command into the caller's shard of
  /// the submission ring without touching the simulator. The driver thread
  /// moves ring contents into the accelerator work queues at its next
  /// pump_rings() / synchronize(). Fails with kResourceExhausted when the
  /// caller's shard is full (backpressure; the caller retries or falls
  /// back), never blocks.
  support::Status enqueue_from_thread(const Command& command);

  /// Driver thread: drains the submission ring into enqueue(). Returns the
  /// first error; remaining commands are still dispatched.
  support::Status pump_rings();

  /// Commands sitting in submission-ring shards, not yet pumped.
  [[nodiscard]] std::size_t ring_pending() const { return ring_.pending(); }
  /// Contended spinlock acquisitions across ring shards (lock-pressure
  /// visibility for bench --dump).
  [[nodiscard]] std::uint64_t ring_lock_contended() const {
    return ring_.lock_contended();
  }

  /// Drains every accelerator (event-driven wait), surfaces any job error,
  /// and forgets the pending-write ranges.
  support::Status synchronize();

  /// Drains one accelerator and retires only its tracked rectangles — the
  /// per-stripe copy-back path waits for a stripe's producer while the other
  /// accelerators keep computing.
  support::Status drain_device(std::size_t device);

  /// Round-robin cursor for callers that pin a chain of dependent commands
  /// to one accelerator.
  [[nodiscard]] std::size_t next_device() {
    return round_robin_++ % driver_.device_count();
  }
  [[nodiscard]] std::size_t device_count() const {
    return driver_.device_count();
  }
  /// Compute commands in flight (running + queued) on one accelerator — the
  /// serving scheduler's shortest-queue placement signal.
  [[nodiscard]] std::size_t device_in_flight(std::size_t device) const {
    return driver_.device(device).in_flight();
  }
  /// Per-accelerator in-flight bound (running + queued): the configured
  /// depth, where 0 counts as 1, capped by the device's hardware FIFO plus
  /// its running job. enqueue() blocks or falls back at this bound, and the
  /// serving scheduler gates dispatch on it.
  [[nodiscard]] std::size_t device_depth(std::size_t device) const {
    return std::min(params_.depth,
                    driver_.device(device).params().work_queue_depth + 1);
  }

  /// Retunes the dynamic CPU-fallback threshold at runtime — the adaptive
  /// admission controller's knob (DTO ships DTO_MIN_BYTES as a static
  /// environment variable; the serving layer re-derives it continuously from
  /// observed device vs host latencies).
  void set_min_macs_per_write(double value) {
    params_.min_macs_per_write = value;
  }

  /// Registers a physical rectangle an in-flight command will write (or
  /// read); cleared by synchronize(). Callers consult writes_overlap()
  /// before reading device memory (RAW/WAW ordering) and reads_overlap()
  /// before writing it (WAR: a queued command's deferred reads must not
  /// observe a later producer's output). Rectangle granularity lets the
  /// disjoint column stripes of different calls — and copies against
  /// disjoint tiles — proceed without a hazard synchronization.
  void note_write(const Rect& r, int device = -1) {
    tracker_.note_write(r, device);
  }
  void note_read(const Rect& r, int device = -1) {
    tracker_.note_read(r, device);
  }
  [[nodiscard]] bool writes_overlap(const Rect& r) const {
    return tracker_.writes_overlap(r);
  }
  [[nodiscard]] bool reads_overlap(const Rect& r) const {
    return tracker_.reads_overlap(r);
  }
  /// Pending write rectangles overlapping `r`, with producing devices (the
  /// stripes the per-stripe copy-back splits along).
  [[nodiscard]] std::vector<TrackedRect> overlapping_writes(const Rect& r) const {
    return tracker_.writes_overlapping(r);
  }

  /// Records that the caller had to synchronize to order around an
  /// in-flight producer (perf-trajectory visibility).
  void count_hazard() { counters_.hazard_syncs.add(); }

  /// True when nothing is in flight and no pending writes are tracked.
  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Attaches the pseudo-async host worker pool: synchronize()/idle()
  /// then also cover in-flight host stripes, so a join point ordering on
  /// the stream orders on the pool too.
  void attach_host_pool(HostWorkerPool* pool) { pool_ = pool; }

  /// Hazard-tracker device id for rectangles written by host-pool stripes.
  /// Past the last real accelerator, so the per-stripe copy-back never
  /// mistakes a pool stripe for an accelerator's.
  [[nodiscard]] int host_pool_device_id() const {
    return static_cast<int>(driver_.device_count());
  }

  /// Runs the event queue until every in-flight host-pool stripe joined.
  void drain_host_pool();

 private:
  /// Executes the command's GEMM on the host CPU model (exact float math,
  /// interpreter-style instruction charges) — the DTO-style fallback.
  support::Status run_on_host(const cim::ContextRegs& image);

  /// Routes a kCopy command onto an accelerator's DMA channel, registering
  /// its rectangles with the hazard tracker.
  support::Status enqueue_copy(const Command& command);

  void note_occupancy();

  /// Waits for one accelerator's work and surfaces its job errors (shared
  /// by synchronize() and drain_device()).
  support::Status drain_one(std::size_t device);

  StreamParams params_;
  sim::System& system_;
  CimDriver& driver_;
  HostWorkerPool* pool_ = nullptr;
  std::size_t round_robin_ = 0;
  RectTracker tracker_;
  support::ShardedRing<Command> ring_;
  std::vector<std::uint64_t> failed_seen_;  // per-device jobs_failed baseline
  std::uint64_t occupancy_seen_ = 0;

  Counters counters_;
};

}  // namespace tdo::rt
