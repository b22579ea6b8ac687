#include "sim/system.hpp"

namespace tdo::sim {

System::System(SystemParams params)
    : params_{params},
      memory_{params_.dram_bytes},
      mmu_{params_.dram_bytes, params_.cma_bytes},
      caches_{params_.l1i, params_.l1d, params_.l2, params_.latencies},
      cpu_{params_.host, caches_},
      bus_{memory_} {
  cpu_.register_stats(stats_);
  caches_.register_stats(stats_);
}

void System::settle_to_host_time() {
  const Tick host_now = cpu_.elapsed().ticks();
  if (host_now > events_.now()) (void)events_.run_until(host_now);
}

support::Duration System::global_time() const {
  const auto host = cpu_.elapsed();
  const auto queue = from_ticks(events_.now());
  return host > queue ? host : queue;
}

}  // namespace tdo::sim
