// CIM accelerator top level (paper Section II-C/II-D, Figure 2b).
//
// A CIM tile, a micro-engine and a DMA unit form a standalone accelerator
// that attaches to the system bus through a port-mapped IO window exposing
// its context registers. The host reads status through the window and
// acknowledges a finished job by writing kStatus back to IDLE; every other
// register is device-owned or latched from a job image.
//
// Jobs enter through a small hardware work queue (DSA-style, enqueue_job):
// the driver may enqueue a job while the engine is busy, and the completion
// event chains straight into the next job without a host round trip. A
// chained job's weight-load DMA overlaps the previous job's stream phase
// (stream-level double buffering). The paper's single-shot protocol is this
// queue at depth one.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cim/cim_tile.hpp"
#include "cim/context_regs.hpp"
#include "cim/dma.hpp"
#include "cim/micro_engine.hpp"
#include "pcm/energy_model.hpp"
#include "sim/bus.hpp"
#include "sim/system.hpp"
#include "support/stats.hpp"

namespace tdo::topo {
class Link;
}  // namespace tdo::topo

namespace tdo::cim {

struct AcceleratorParams {
  TileParams tile;
  DmaParams dma;
  MicroEngineParams engine;
  pcm::CimEnergyParams energy;
  sim::PhysAddr pmio_base = kDefaultPmioBase;
  /// Stats prefix; give every instance in a multi-accelerator system a
  /// distinct name ("cim", "cim1", ...).
  std::string name = "cim";
  /// Capacity of the hardware job FIFO behind the running job. The stream
  /// layer keeps at most `work_queue_depth + 1` commands in flight here.
  std::size_t work_queue_depth = 8;
  /// Queue-aware channel reservation: book an advisory busy window for each
  /// queued job's estimated stream-body DMA at enqueue time, so stream
  /// copies submitted while jobs wait cannot first-fit into channel time
  /// the queue will occupy after launch. Advisory windows are dropped and
  /// replaced by the authoritative reservations at each job launch.
  bool queue_body_reserve = true;
};

/// Address-space stride between accelerator instances on the system bus.
inline constexpr std::uint64_t kPmioInstanceStride = 0x1000;
static_assert(kPmioInstanceStride >= kPmioWindowBytes);

/// Parameters for the `index`-th instance in a multi-accelerator system:
/// distinct stats prefix ("cim", "cim1", ...) and PMIO window, shared
/// everything else. Index 0 returns `base` unchanged.
[[nodiscard]] AcceleratorParams instance_params(AcceleratorParams base,
                                                std::size_t index);

/// Aggregated accelerator-side statistics for one ROI.
struct AcceleratorReport {
  std::uint64_t jobs = 0;
  std::uint64_t gemv_ops = 0;
  std::uint64_t mac8_ops = 0;
  std::uint64_t weight_writes8 = 0;
  /// 8-bit weight programs skipped through stationary-tile reuse (batched
  /// shared inputs and the runtime's weight-residency cache).
  std::uint64_t weight_writes_saved8 = 0;
  support::Energy total_energy;

  /// The compute-intensity metric of Figure 6 (left):
  /// Number-of-MAC-operations / Number-of-CIM-writes.
  [[nodiscard]] double macs_per_cim_write() const {
    if (weight_writes8 == 0) return 0.0;
    return static_cast<double>(mac8_ops) / static_cast<double>(weight_writes8);
  }
};

class Accelerator final : public sim::BusDevice {
 public:
  /// Builds the accelerator and attaches it to `system`'s bus at the PMIO
  /// window; registers stats into the system registry.
  Accelerator(AcceleratorParams params, sim::System& system);

  // --- BusDevice ---
  [[nodiscard]] std::string device_name() const override { return "cim-accelerator"; }
  support::Status mmio_read(std::uint64_t offset,
                            std::span<std::uint8_t> out) override;
  support::Status mmio_write(std::uint64_t offset,
                             std::span<const std::uint8_t> in) override;

  // --- work queue (driver-facing, non-blocking) ---

  /// Starts the job immediately when idle, otherwise appends it to the
  /// hardware FIFO; kResourceExhausted when the FIFO is full. The caller has
  /// already charged the host for programming the image.
  support::Status enqueue_job(const ContextRegs& image);

  /// True while a job is running or queued, or a DMA-channel copy is still
  /// in flight.
  [[nodiscard]] bool has_work() const {
    return regs_.status() == DeviceStatus::kBusy || !queue_.empty() ||
           copies_in_flight_ > 0;
  }
  /// Running job (0/1) plus queued jobs. Copies ride the DMA channel and do
  /// not occupy compute-queue slots (see copies_in_flight()).
  [[nodiscard]] std::size_t in_flight() const {
    return (regs_.status() == DeviceStatus::kBusy ? 1 : 0) + queue_.size();
  }
  /// Stream copies accepted but not yet completed on the DMA channel.
  [[nodiscard]] std::size_t copies_in_flight() const { return copies_in_flight_; }
  /// Completion tick of the currently running compute job (chained jobs
  /// extend this as their launches execute on the event queue). Backpressure
  /// waits use this: a compute-queue slot frees independently of any copy
  /// still riding the DMA channel.
  [[nodiscard]] sim::Tick busy_until() const { return busy_until_; }
  /// Completion tick of *all* outstanding work — compute chain and DMA
  /// channel. Full drains wait on this.
  [[nodiscard]] sim::Tick work_done_tick() const {
    return copies_in_flight_ > 0 ? std::max(busy_until_, dma_busy_until_)
                                 : busy_until_;
  }

  [[nodiscard]] std::uint64_t jobs_completed() const { return completed_.value(); }
  [[nodiscard]] std::uint64_t jobs_failed() const { return failed_.value(); }

  /// Completion interrupt hook: invoked from the job-completion event with
  /// the new completed-jobs count and the event tick. One observer per
  /// device (the serving scheduler attaches here to timestamp request
  /// completions exactly, without polling); a newer registration replaces an
  /// older one. `owner` identifies the registrant so a stale owner's
  /// teardown cannot clobber a replacement's hook.
  using CompletionObserver = std::function<void(std::uint64_t completed,
                                                sim::Tick when)>;
  void set_completion_observer(CompletionObserver observer,
                               const void* owner) {
    completion_observer_ = std::move(observer);
    completion_observer_owner_ = owner;
  }
  /// Detaches the observer only if `owner` still owns it.
  void clear_completion_observer(const void* owner) {
    if (completion_observer_owner_ == owner) {
      completion_observer_ = nullptr;
      completion_observer_owner_ = nullptr;
    }
  }
  /// Withhold-response signaling for far-pool devices: with a link attached,
  /// the completion observer no longer fires at the device's done tick but at
  /// the tick the completion response has serialized over the link (the
  /// topo::Link busy-window timeline, so concurrent far-pool responses
  /// contend). Device-local state — kStatus, kCompleted, job chaining — still
  /// advances at the done tick; only the host-visible signal is withheld.
  void set_response_link(topo::Link* link) { response_link_ = link; }
  [[nodiscard]] topo::Link* response_link() const { return response_link_; }
  /// Completions whose observer signal was deferred onto the link.
  [[nodiscard]] std::uint64_t withheld_responses() const {
    return withheld_responses_.value();
  }
  /// Scatter-gather segments executed by stream copy chains on this device.
  [[nodiscard]] std::uint64_t copy_segments() const {
    return copy_segments_.value();
  }
  /// kResult of the most recent failed job (support::StatusCode value).
  [[nodiscard]] std::uint64_t last_error_code() const { return last_error_; }

  /// Driver-assigned device index. Trace events carry it so the analyzer can
  /// join a request's completion target with this engine's job spans without
  /// a name table.
  void set_device_ordinal(std::size_t ordinal) { device_ordinal_ = ordinal; }
  [[nodiscard]] std::size_t device_ordinal() const { return device_ordinal_; }

  [[nodiscard]] ContextRegs& regs() { return regs_; }
  [[nodiscard]] CimTile& tile() { return *tile_; }
  [[nodiscard]] Dma& dma() { return *dma_; }
  [[nodiscard]] const Dma& dma() const { return *dma_; }
  [[nodiscard]] MicroEngine& engine() { return *engine_; }
  [[nodiscard]] const AcceleratorParams& params() const { return params_; }
  [[nodiscard]] const JobTimeline& last_timeline() const { return last_timeline_; }

  [[nodiscard]] support::Energy total_energy() const;
  [[nodiscard]] AcceleratorReport report() const;

 private:
  /// Launches the image currently in `regs_` and schedules the completion
  /// chain that pops the next queued job.
  void start_job(support::Duration prefetch_credit);
  /// Executes a kCopy image on the DMA channel: functional copy now, timing
  /// serialized behind earlier copies but overlapping the micro-engine's
  /// compute (the channel is otherwise idle while the engine streams).
  support::Status start_copy(const ContextRegs& image);
  /// Copies every job register of `image` into `regs_` (control/status
  /// registers — command, status, result, completed — are device-owned).
  void apply_image(const ContextRegs& image);
  /// Credits every active copy with the share of the engine busy window
  /// [win_start, win_end) that falls inside its transfer window.
  void credit_copy_overlap(sim::Tick win_start, sim::Tick win_end);
  /// Reserves the queue front's estimated weight-load prefetch window — the
  /// tail of the running job's stream phase on the engine's DMA channel — so
  /// stream copies cannot first-fit into a slot the prefetch will occupy.
  void reserve_queue_prefetch();
  /// Re-derives the advisory body-DMA windows of every queued job, chained
  /// from the running job's completion (queue_body_reserve). Callers drop
  /// stale advisory windows first — this only inserts.
  void reserve_queue_body();

  AcceleratorParams params_;
  sim::System& system_;
  pcm::CimEnergyModel model_;
  ContextRegs regs_;
  std::unique_ptr<CimTile> tile_;
  std::unique_ptr<Dma> dma_;
  std::unique_ptr<MicroEngine> engine_;
  JobTimeline last_timeline_;

  struct QueuedJob {
    ContextRegs image;
    sim::Tick enqueued = 0;  // bounds the prefetch credit the job may claim
  };
  /// A stream copy chain in flight on one DMA channel. `hidden` accumulates
  /// the ticks of its transfer window that lie under engine busy windows —
  /// the running job's at submit time, plus every chained job's as it
  /// launches, minus the engine's own DMA occupancy of the copy's channel —
  /// so the copy/compute overlap figure is exact, never exceeding the
  /// channel's true idle window.
  struct ActiveCopy {
    std::uint64_t id = 0;
    sim::Tick start = 0;
    sim::Tick done = 0;
    std::uint64_t bytes = 0;
    sim::Tick hidden = 0;
    std::uint32_t channel = 0;
  };
  std::deque<QueuedJob> queue_;
  std::vector<ActiveCopy> active_copies_;
  std::uint64_t next_copy_id_ = 0;
  sim::Tick busy_until_ = 0;
  sim::Tick dma_busy_until_ = 0;  // DMA-channel (stream copy) timeline
  std::size_t device_ordinal_ = 0;
  sim::Tick current_job_enqueued_ = 0;  // trace: running job's enqueue tick
  std::size_t copies_in_flight_ = 0;
  std::uint64_t last_error_ = 0;
  CompletionObserver completion_observer_;
  const void* completion_observer_owner_ = nullptr;
  topo::Link* response_link_ = nullptr;

  support::Counter jobs_;
  support::Counter withheld_responses_;
  support::Counter queued_jobs_;
  support::Counter completed_;
  support::Counter failed_;
  support::Counter copies_;
  support::Counter copy_segments_;
  support::Counter overlap_ticks_;
  support::EnergyAccumulator e_write_;
  support::EnergyAccumulator e_compute_;
  support::EnergyAccumulator e_mixed_;
  support::EnergyAccumulator e_digital_;
  support::EnergyAccumulator e_buffers_;
  support::EnergyAccumulator e_dma_;
};

}  // namespace tdo::cim
