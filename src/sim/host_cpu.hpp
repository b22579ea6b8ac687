// Host CPU cost model: in-order dual-core Arm-A7 class (Table I).
//
// Executes in "atomic + timing accumulation" mode (gem5 terminology): the
// interpreter retires abstract instruction bundles and memory accesses; the
// model accumulates instruction counts, stall-accurate cycles and energy
// (128 pJ/instruction including caches, per Table I). At offload boundaries
// the accumulated time is synchronized with the event queue driving the CIM
// accelerator.
#pragma once

#include <cstdint>

#include "sim/cache.hpp"
#include "sim/event_queue.hpp"
#include "support/stats.hpp"
#include "support/units.hpp"

namespace tdo::sim {

struct HostParams {
  support::Frequency frequency = support::Frequency::from_ghz(1.2);
  /// Average cycles per instruction before memory stalls; the A7 is a
  /// partial dual-issue in-order core, so sustained CPI is a bit below 1.
  double base_cpi = 0.85;
  /// Table I: 128 pJ per instruction, caches included.
  support::Energy energy_per_inst = support::Energy::from_pj(128);
  int cores = 2;  // reported in Table I; the evaluated kernels are 1-thread
};

/// Categories of retired instructions; kept separately for reporting and for
/// the MACs-per-CIM-write metric of Figure 6.
struct InstBundle {
  std::uint32_t int_alu = 0;   // address arithmetic, loop bookkeeping
  std::uint32_t fp_ops = 0;    // scalar FLOPs
  std::uint32_t loads = 0;     // charged separately via load(); counted here
  std::uint32_t stores = 0;
  std::uint32_t branches = 0;

  [[nodiscard]] std::uint32_t total() const {
    return int_alu + fp_ops + loads + stores + branches;
  }
};

class HostCpu {
 public:
  HostCpu(HostParams params, CacheHierarchy& caches);

  // issue(), load() and store() are the interpreter's per-statement calls,
  // so they are defined here, where they inline into it.

  /// Retires non-memory work (ALU/FP/branch) without cache traffic.
  void issue(const InstBundle& bundle) {
    fp_insts_.add_local(bundle.fp_ops);
    retire(bundle.total());
  }

  /// Retires one load/store of `bytes` at physical address `addr`, including
  /// its stall cycles from the cache hierarchy. Sub-line accesses cost one
  /// lookup regardless of width.
  void load(PhysAddr addr, std::uint32_t /*bytes*/ = 4) {
    access(addr, /*is_write=*/false);
  }
  void store(PhysAddr addr, std::uint32_t /*bytes*/ = 4) {
    access(addr, /*is_write=*/true);
  }

  /// Charges `n` generic instructions (driver / syscall overhead modelling).
  void charge_instructions(std::uint64_t n);

  /// Charges pure stall cycles (e.g. spin-wait residency).
  void charge_cycles(std::uint64_t cycles);

  /// Busy-waits until `target` (event-queue ticks), charging polling
  /// instructions at `period_cycles` intervals — the "wait on spinlock"
  /// mode of Section II-E. Returns polled iterations.
  std::uint64_t spin_until(Tick target, std::uint64_t period_cycles = 64);

  /// Event-driven wait: the core sleeps (WFI) until the completion interrupt
  /// at `target` and pays only the interrupt entry/exit instructions — the
  /// "continue with other tasks" mode of Section II-E, used by the stream
  /// layer instead of spin-polling. Returns 1 when a wait happened.
  std::uint64_t block_until(Tick target);

  [[nodiscard]] std::uint64_t cycles() const { return cycles_.value(); }
  [[nodiscard]] std::uint64_t instructions() const { return insts_.value(); }
  [[nodiscard]] std::uint64_t fp_instructions() const { return fp_insts_.value(); }
  [[nodiscard]] support::Duration elapsed() const {
    return params_.frequency.cycles(static_cast<double>(cycles_.value()));
  }
  [[nodiscard]] const HostParams& params() const { return params_; }

  void register_stats(support::StatsRegistry& registry) const;

 private:
  void retire(std::uint32_t insts) { cycles_.add_local(retire_cycles(insts)); }

  /// Counts `insts` retired instructions and returns their whole cycles,
  /// carrying the sub-cycle remainder to the next call. Their energy is
  /// read from the count: `host.energy` is energy_per_inst x instructions.
  [[nodiscard]] std::uint64_t retire_cycles(std::uint32_t insts) {
    insts_.add_local(insts);
    const double cycles = params_.base_cpi * insts + cycle_fraction_;
    // Signed conversions: one instruction each way on x86-64, and exact
    // for any cycle count below 2^63.
    const auto whole = static_cast<std::int64_t>(cycles);
    cycle_fraction_ = cycles - static_cast<double>(whole);
    return static_cast<std::uint64_t>(whole);
  }

  void access(PhysAddr addr, bool is_write) {
    mem_insts_.add_local();
    const std::uint64_t whole = retire_cycles(1);
    const std::uint64_t stalls = caches_.data_access(addr, is_write);
    stall_cycles_.add_local(stalls);
    cycles_.add_local(whole + stalls);  // one store for both
  }

  HostParams params_;
  CacheHierarchy& caches_;
  double cycle_fraction_ = 0.0;  // carries sub-cycle CPI remainders

  // Single-writer counters (Counter::add_local): callers serialize every
  // HostCpu call, which cycle_fraction_ already requires.
  support::Counter cycles_;
  support::Counter insts_;
  support::Counter fp_insts_;
  support::Counter mem_insts_;
  support::Counter stall_cycles_;
  support::Counter spin_polls_;
  support::Counter irq_waits_;
};

}  // namespace tdo::sim
