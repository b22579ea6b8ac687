// Host-side worker pool for DTO-style pseudo-asynchronous work splitting.
//
// DTO's pseudo-async trick runs the CPU stripe of a split job on spare host
// cores *while* the accelerator chews the device stripe, then joins the two.
// The paper's platform (Table I) has a dual-core host but drives the
// accelerator from one thread; this pool models the remaining cores as
// simulated workers: a submitted stripe executes its float math eagerly
// (exact results, same as the CPU-fallback loop nest) and occupies the
// least-loaded worker's simulated timeline for an analytically-costed span.
// Completion is an event-queue callback, so the serving scheduler can treat
// the pool exactly like one more accelerator target — capture
// counters().jobs around a submit, harvest a completion observer log, and
// fold the stripe's latency into the admission EWMAs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/system.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

namespace tdo::rt {

struct HostPoolParams {
  /// Number of simulated host worker cores; 0 disables the pool (every
  /// submit is rejected and callers fall back to their non-split path).
  int workers = 0;
  /// Analytic per-MAC cost on a worker core, in cycles. Calibrated against
  /// the interpreter fallback loop (2 loads + fmadd + bookkeeping per MAC
  /// at base CPI 0.85 plus cache stalls).
  double cycles_per_mac = 6.5;
  /// Per-stripe dispatch/wake overhead (futex wake + argument marshalling).
  double dispatch_cycles = 400.0;
  /// Retired instructions per MAC, for energy accounting at the host's
  /// pJ/instruction rate.
  double instructions_per_mac = 6.0;
  std::string name = "host_pool";
};

/// One GEMM stripe to run on a worker: C[0..m) x [0..n) += alpha*A*B + beta*C
/// over the given leading dimensions, addresses pre-translated.
struct HostStripeJob {
  std::uint64_t m = 0, n = 0, k = 0;
  std::uint64_t lda = 0, ldb = 0, ldc = 0;
  sim::PhysAddr pa_a = 0, pa_b = 0, pa_c = 0;
  float alpha = 1.0f;
  float beta = 0.0f;
};

struct HostPoolTicket {
  bool accepted = false;
  int worker = -1;
  sim::Tick start = 0;
  sim::Tick done = 0;
};

class HostWorkerPool {
 public:
  /// The pool's counters, each registered as `<name>.<member>`.
  struct Counters {
    support::Counter jobs;       ///< stripes submitted
    support::Counter completed;  ///< stripes retired (FIFO)
    support::Counter macs;
    support::Counter busy_ticks;  ///< summed worker-busy time
  };

  /// (total jobs completed, completion tick) — same shape as
  /// cim::Accelerator's completion observer, so the scheduler's harvest
  /// logic is target-agnostic.
  using CompletionObserver =
      std::function<void(std::uint64_t completed, sim::Tick when)>;

  HostWorkerPool(sim::System& system, HostPoolParams params);
  ~HostWorkerPool();

  HostWorkerPool(const HostWorkerPool&) = delete;
  HostWorkerPool& operator=(const HostWorkerPool&) = delete;

  [[nodiscard]] bool enabled() const { return params_.workers > 0; }

  /// Runs the stripe's float math eagerly (exact, like the CPU fallback) and
  /// books its analytic duration on the least-loaded worker. The returned
  /// ticket's `done` tick is when the completion event fires; ticket
  /// `accepted == false` means the pool is disabled or the job is empty.
  HostPoolTicket submit(const HostStripeJob& job);

  [[nodiscard]] std::uint64_t in_flight() const {
    return counters_.jobs.value() - counters_.completed.value();
  }
  [[nodiscard]] bool idle() const { return in_flight() == 0; }

  /// Latest `done` tick across workers (0 when never used).
  [[nodiscard]] sim::Tick busy_until() const;

  /// Owner-tagged like cim::Accelerator's observer: the tag lets a scheduler
  /// clear only its own registration on destruction, so a second scheduler's
  /// observer survives the first one's teardown.
  void set_completion_observer(CompletionObserver observer,
                               const void* owner = nullptr) {
    observer_ = std::move(observer);
    observer_owner_ = owner;
  }
  /// No-op when another owner has since replaced the registration.
  void clear_completion_observer(const void* owner) {
    if (observer_owner_ == owner) {
      observer_ = nullptr;
      observer_owner_ = nullptr;
    }
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const HostPoolParams& params() const { return params_; }

 private:
  sim::System& system_;
  HostPoolParams params_;
  std::vector<sim::Tick> worker_busy_until_;
  CompletionObserver observer_;
  const void* observer_owner_ = nullptr;
  /// Per-stripe done flags in submission order plus the retire pointer:
  /// completions retire FIFO so "completed reaches N" is an exact join
  /// condition even when stripes finish out of order across workers.
  std::vector<std::uint8_t> done_;
  std::size_t retire_ = 0;

  Counters counters_;
  support::EnergyAccumulator energy_;
};

}  // namespace tdo::rt
