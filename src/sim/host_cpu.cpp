#include "sim/host_cpu.hpp"

#include <cmath>

namespace tdo::sim {

HostCpu::HostCpu(HostParams params, CacheHierarchy& caches)
    : params_{params}, caches_{caches} {}

void HostCpu::charge_instructions(std::uint64_t n) {
  while (n > 0) {
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(n, 1u << 30));
    retire(chunk);
    n -= chunk;
  }
}

void HostCpu::charge_cycles(std::uint64_t cycles) {
  stall_cycles_.add_local(cycles);
  cycles_.add_local(cycles);
}

std::uint64_t HostCpu::spin_until(Tick target, std::uint64_t period_cycles) {
  const Tick now_ticks = elapsed().ticks();
  if (target <= now_ticks) return 0;
  const double remaining_sec = from_ticks(target - now_ticks).seconds();
  const double remaining_cycles = remaining_sec * params_.frequency.hertz();
  const auto polls = static_cast<std::uint64_t>(
      std::ceil(remaining_cycles / static_cast<double>(period_cycles)));
  // Each poll is a handful of instructions: load status register (uncached,
  // folded into the poll period), compare, branch.
  spin_polls_.add_local(polls);
  charge_instructions(polls * 3);
  // The dominant cost of spinning is the dead time itself: pad cycles until
  // the local clock has caught up with the completion tick exactly.
  while (elapsed().ticks() < target) {
    const double gap_sec = from_ticks(target - elapsed().ticks()).seconds();
    const auto gap_cycles = static_cast<std::uint64_t>(
        std::ceil(gap_sec * params_.frequency.hertz()));
    charge_cycles(gap_cycles > 0 ? gap_cycles : 1);
  }
  return polls;
}

std::uint64_t HostCpu::block_until(Tick target) {
  if (elapsed().ticks() >= target) return 0;
  irq_waits_.add_local();
  // Interrupt entry + handler + context restore.
  charge_instructions(400);
  // Sleep: dead cycles until the completion interrupt fires.
  while (elapsed().ticks() < target) {
    const double gap_sec = from_ticks(target - elapsed().ticks()).seconds();
    const auto gap_cycles = static_cast<std::uint64_t>(
        std::ceil(gap_sec * params_.frequency.hertz()));
    charge_cycles(gap_cycles > 0 ? gap_cycles : 1);
  }
  return 1;
}

void HostCpu::register_stats(support::StatsRegistry& registry) const {
  registry.register_counter("host.cycles", &cycles_);
  registry.register_counter("host.instructions", &insts_);
  registry.register_counter("host.fp_instructions", &fp_insts_);
  registry.register_counter("host.mem_instructions", &mem_insts_);
  registry.register_counter("host.stall_cycles", &stall_cycles_);
  registry.register_counter("host.spin_polls", &spin_polls_);
  registry.register_counter("host.irq_waits", &irq_waits_);
  registry.register_energy("host.energy", &insts_, params_.energy_per_inst);
}

}  // namespace tdo::sim
