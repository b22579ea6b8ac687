// Assembles the emulated platform of the paper's Figure 2 (a): host CPU,
// main memory, MMU, cache hierarchy, system bus, event queue. The CIM
// accelerator attaches itself through Bus::attach (see cim/accelerator.hpp).
#pragma once

#include <memory>

#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/host_cpu.hpp"
#include "sim/mmu.hpp"
#include "sim/sim_memory.hpp"
#include "support/stats.hpp"

namespace tdo::sim {

struct SystemParams {
  std::uint64_t dram_bytes = 256ull * 1024 * 1024;  // scaled-down LPDDR3
  std::uint64_t cma_bytes = 64ull * 1024 * 1024;    // reserved contiguous pool
  HostParams host;
  CacheParams l1i{.name = "l1i", .size_bytes = 32 * 1024, .line_bytes = 64, .ways = 2};
  CacheParams l1d{.name = "l1d", .size_bytes = 32 * 1024, .line_bytes = 64, .ways = 4};
  CacheParams l2{.name = "l2", .size_bytes = 2 * 1024 * 1024, .line_bytes = 64, .ways = 8};
  CacheHierarchy::Latencies latencies;
};

/// Owns every platform component, wiring them the way gem5's full-system
/// configuration scripts do.
class System {
 public:
  explicit System(SystemParams params = {});

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] SimMemory& memory() { return memory_; }
  [[nodiscard]] Mmu& mmu() { return mmu_; }
  [[nodiscard]] CacheHierarchy& caches() { return caches_; }
  [[nodiscard]] HostCpu& cpu() { return cpu_; }
  [[nodiscard]] Bus& bus() { return bus_; }
  [[nodiscard]] EventQueue& events() { return events_; }
  [[nodiscard]] support::StatsRegistry& stats() { return stats_; }
  [[nodiscard]] const SystemParams& params() const { return params_; }

  /// Executes every device event due by the host's current time, then moves
  /// the event clock up to it. Safe while asynchronous jobs are in flight:
  /// completions that should already have happened are retired (and may
  /// chain queued work) instead of being jumped over.
  void settle_to_host_time();

  /// Current global time: max(host elapsed, event queue now).
  [[nodiscard]] support::Duration global_time() const;

  [[nodiscard]] support::StatsSnapshot snapshot() const { return stats_.snapshot(); }

 private:
  SystemParams params_;
  SimMemory memory_;
  Mmu mmu_;
  CacheHierarchy caches_;
  HostCpu cpu_;
  Bus bus_;
  EventQueue events_;
  support::StatsRegistry stats_;
};

}  // namespace tdo::sim
