// Kernel-space CIM driver emulation (paper Section II-E, Figure 3).
//
// "At the lowest level of the stack, the kernel-space CIM driver reads and
// writes to the context registers of the accelerator through a ioctl system
// call. Besides, the driver translates the virtual address used by the host
// processor to a physical address ... To enforce memory coherence in the
// shared memory region, the kernel driver triggers a cache flush on the host
// side before invoking the accelerator."
//
// Every entry point charges realistic host-side costs (syscall round trip,
// register MMIO, per-line flush work) to the host CPU model — this overhead
// is exactly what makes low-intensity GEMV-like kernels lose in Figure 6.
//
// One driver instance manages every CIM device in the system (the way one
// kernel module binds all instances of a peripheral). Every job goes through
// submit_queued, which pushes it into the device's hardware work queue, and
// drain, which waits event-driven on the completion interrupt. The paper's
// blocking submit-then-wait protocol is the command stream
// (runtime/stream.hpp) at depth 1 followed by a drain.
#pragma once

#include <cstdint>
#include <vector>

#include "cim/accelerator.hpp"
#include "cim/context_regs.hpp"
#include "runtime/cma.hpp"
#include "sim/system.hpp"
#include "support/status.hpp"

namespace tdo::rt {

struct DriverParams {
  /// Instructions for one ioctl round trip (user->kernel->user).
  std::uint64_t syscall_instructions = 800;
  /// Instructions per 64-byte line for a VA-range cache clean loop.
  std::uint64_t flush_instructions_per_line = 2;
  /// Instructions per uncached context-register access.
  std::uint64_t mmio_instructions = 6;
  /// Extra bus cycles per uncached context-register access.
  std::uint64_t mmio_cycles = 24;
};

/// A device buffer handed out by the driver: contiguous physical backing
/// plus the user-space mapping.
struct DeviceBuffer {
  sim::VirtAddr va = 0;
  sim::PhysAddr pa = 0;
  std::uint64_t bytes = 0;
};

class CimDriver {
 public:
  CimDriver(DriverParams params, sim::System& system, cim::Accelerator& accel);

  /// Registers an additional CIM device instance (hotplug-style); returns
  /// its device index.
  std::size_t add_device(cim::Accelerator& accel);
  [[nodiscard]] std::size_t device_count() const { return accels_.size(); }
  [[nodiscard]] cim::Accelerator& device(std::size_t index) {
    return *accels_[index];
  }
  [[nodiscard]] const cim::Accelerator& device(std::size_t index) const {
    return *accels_[index];
  }

  /// ioctl(CIM_ALLOC): CMA allocation + user mapping.
  [[nodiscard]] support::StatusOr<DeviceBuffer> alloc_buffer(std::uint64_t bytes);

  /// ioctl(CIM_FREE).
  support::Status free_buffer(const DeviceBuffer& buffer);

  /// ioctl(CIM_ENQUEUE): flushes the host caches, charges the programming
  /// of the context-register image, and lands the job in the device's
  /// hardware work queue; returns without waiting. kResourceExhausted when
  /// the queue is full.
  support::Status submit_queued(const cim::ContextRegs& image,
                                std::size_t device);

  /// ioctl(CIM_COPY): enqueues a DMA copy descriptor (Opcode::kCopy image)
  /// onto the device's DMA channel and returns immediately. Unlike a compute
  /// submit, the coherence flush is range-granular — the driver cleans only
  /// the host-side lines of the copy window, not the whole data cache — and
  /// only the copy descriptor registers are programmed.
  support::Status submit_copy(const cim::ContextRegs& image, std::size_t device);

  /// Blocks (event-driven, WFI) until the device's work queue is empty and
  /// the last job finished; acknowledges the final status back to IDLE.
  [[nodiscard]] support::StatusOr<cim::DeviceStatus> drain(std::size_t device);

  /// Blocks until the device has at most `target_in_flight` jobs in flight
  /// (running + queued) — backpressure for a full stream.
  void wait_for_space(std::size_t device, std::size_t target_in_flight);

  /// Translates a user VA to a physical address (kernel page-table walk).
  [[nodiscard]] support::StatusOr<sim::PhysAddr> translate(sim::VirtAddr va) const;

  [[nodiscard]] CmaAllocator& cma() { return cma_; }
  [[nodiscard]] const DriverParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t ioctl_count() const { return ioctls_.value(); }
  [[nodiscard]] std::uint64_t flush_count() const { return flushes_.value(); }

 private:
  void charge_syscall();
  void charge_mmio_access();
  /// Writes one 64-bit register through the PMIO window.
  support::Status write_reg(cim::Reg reg, std::uint64_t value,
                            std::size_t device);
  [[nodiscard]] support::StatusOr<std::uint64_t> read_reg(cim::Reg reg,
                                                          std::size_t device);

  DriverParams params_;
  sim::System& system_;
  std::vector<cim::Accelerator*> accels_;
  CmaAllocator cma_;
  support::Counter ioctls_;
  support::Counter flushes_;
};

}  // namespace tdo::rt
