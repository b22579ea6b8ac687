#include "runtime/driver.hpp"

#include "cim/accelerator.hpp"

namespace tdo::rt {

CimDriver::CimDriver(DriverParams params, sim::System& system,
                     cim::Accelerator& accel)
    : params_{params}, system_{system}, accels_{&accel},
      cma_{system.mmu().cma_region()} {
  accel.set_device_ordinal(0);
  system.stats().register_counter("driver.ioctls", &ioctls_);
  system.stats().register_counter("driver.cache_flushes", &flushes_);
}

std::size_t CimDriver::add_device(cim::Accelerator& accel) {
  accels_.push_back(&accel);
  accel.set_device_ordinal(accels_.size() - 1);
  return accels_.size() - 1;
}

void CimDriver::charge_syscall() {
  ioctls_.add();
  system_.cpu().charge_instructions(params_.syscall_instructions);
}

void CimDriver::charge_mmio_access() {
  system_.cpu().charge_instructions(params_.mmio_instructions);
  system_.cpu().charge_cycles(params_.mmio_cycles);
}

support::Status CimDriver::write_reg(cim::Reg reg, std::uint64_t value,
                                     std::size_t device) {
  charge_mmio_access();
  return system_.bus().write_scalar<std::uint64_t>(
      accels_[device]->params().pmio_base + cim::reg_offset(reg), value);
}

support::StatusOr<std::uint64_t> CimDriver::read_reg(cim::Reg reg,
                                                     std::size_t device) {
  charge_mmio_access();
  return system_.bus().read_scalar<std::uint64_t>(
      accels_[device]->params().pmio_base + cim::reg_offset(reg));
}

support::StatusOr<DeviceBuffer> CimDriver::alloc_buffer(std::uint64_t bytes) {
  charge_syscall();
  auto pa = cma_.allocate(bytes);
  if (!pa.is_ok()) return pa.status();
  auto va = system_.mmu().map_physical(*pa, bytes);
  if (!va.is_ok()) {
    (void)cma_.release(*pa);
    return va.status();
  }
  // Page-table population cost, proportional to the mapping size.
  system_.cpu().charge_instructions(16 * (bytes / sim::kPageSize + 1));
  return DeviceBuffer{*va, *pa, bytes};
}

support::Status CimDriver::free_buffer(const DeviceBuffer& buffer) {
  charge_syscall();
  TDO_RETURN_IF_ERROR(system_.mmu().release(buffer.va, buffer.bytes));
  return cma_.release(buffer.pa);
}

support::Status CimDriver::submit_queued(const cim::ContextRegs& image,
                                         std::size_t device) {
  charge_syscall();
  flushes_.add();
  const auto op = static_cast<cim::Opcode>(image.read(cim::Reg::kOpcode));
  if (op == cim::Opcode::kProgram) {
    // A program-only job reads nothing but its stationary tile, so the
    // coherence clean is range-granular like submit_copy's — a full-cache
    // clean here would put ~L1+L2 walk time on every speculative prefetch
    // and migration adoption, dwarfing the work it hides.
    const bool stationary_b =
        static_cast<cim::StationaryOperand>(image.read(cim::Reg::kStationary)) ==
        cim::StationaryOperand::kB;
    const std::uint64_t cols =
        stationary_b ? image.read(cim::Reg::kN) : image.read(cim::Reg::kM);
    const std::uint64_t bytes = image.read(cim::Reg::kK) * cols * 4;
    system_.cpu().charge_instructions(params_.flush_instructions_per_line *
                                      (bytes / 64 + 1));
  } else {
    // Coherence: clean the host data caches so the accelerator's uncacheable
    // reads observe the latest data (Section II-E). A full clean is what the
    // reference driver does; the cost model charges the loop instructions
    // and the write-back traffic is counted by the cache model.
    const std::uint64_t dirty_lines = system_.caches().flush_data_caches();
    const std::uint64_t touched_lines =
        system_.caches().l1d().params().size_bytes / 64 +
        system_.caches().l2().params().size_bytes / 64;
    system_.cpu().charge_instructions(params_.flush_instructions_per_line *
                                      touched_lines);
    // Write-back drain time: dirty lines leave at DRAM bandwidth; the CPU
    // stalls on the barrier that ends the clean sequence.
    system_.cpu().charge_cycles(dirty_lines * 4);
  }
  // The register image travels through the same uncached PMIO window; the
  // device latches it into its work queue, so the writes are legal even
  // while a job is running.
  for (std::uint32_t i = 0; i < cim::kRegCount; ++i) {
    const auto reg = static_cast<cim::Reg>(i);
    if (reg == cim::Reg::kCommand || reg == cim::Reg::kStatus ||
        reg == cim::Reg::kResult || reg == cim::Reg::kCompleted) {
      continue;
    }
    charge_mmio_access();
  }
  // Retire completions that should already have happened, so a job enqueued
  // now can never appear to start before its submission time.
  system_.settle_to_host_time();
  return accels_[device]->enqueue_job(image);
}

support::Status CimDriver::submit_copy(const cim::ContextRegs& image,
                                       std::size_t device) {
  charge_syscall();
  // Range clean/invalidate instead of the full-cache clean of a compute
  // submit: the DMA only touches the copy window, so the driver walks just
  // those lines (dcache clean by VA in a loop, the way dma_map_single does).
  // A scatter-gather chain also cleans the marshaled descriptor-table lines
  // the device is about to fetch.
  const std::uint64_t seg_count = image.read(cim::Reg::kSegCount);
  const std::uint64_t table_bytes =
      seg_count > 1 ? seg_count * sizeof(cim::CopySegEntry) : 0;
  const std::uint64_t bytes =
      image.read(cim::Reg::kM) * image.read(cim::Reg::kN) + table_bytes;
  flushes_.add();
  system_.cpu().charge_instructions(params_.flush_instructions_per_line *
                                    (bytes / 64 + 1));
  // Program the copy descriptor registers through the uncached PMIO window:
  // inline src/dst base+pitch, rows, width, direction for a single segment;
  // segment count + table PA for a chain.
  for (int i = 0; i < 8; ++i) charge_mmio_access();
  // Retire completions due by now so the copy cannot appear to start before
  // its submission time.
  system_.settle_to_host_time();
  return accels_[device]->enqueue_job(image);
}

void CimDriver::wait_for_space(std::size_t device,
                               std::size_t target_in_flight) {
  auto& accel = *accels_[device];
  system_.settle_to_host_time();
  while (accel.in_flight() > target_in_flight) {
    const sim::Tick done = accel.busy_until();
    (void)system_.events().run_until(done);
    (void)system_.cpu().block_until(done);
  }
}

support::StatusOr<cim::DeviceStatus> CimDriver::drain(std::size_t device) {
  charge_syscall();
  auto& accel = *accels_[device];
  system_.settle_to_host_time();
  while (accel.has_work()) {
    // Each pass retires the running job (or a pending DMA copy); a compute
    // completion event may chain the next queued job, extending the tick.
    const sim::Tick done = accel.work_done_tick();
    (void)system_.events().run_until(done);
    (void)system_.cpu().block_until(done);
  }

  auto status = read_reg(cim::Reg::kStatus, device);
  if (!status.is_ok()) return status.status();
  const auto device_status = static_cast<cim::DeviceStatus>(*status);
  if (device_status == cim::DeviceStatus::kDone ||
      device_status == cim::DeviceStatus::kError) {
    TDO_RETURN_IF_ERROR(
        write_reg(cim::Reg::kStatus,
                  static_cast<std::uint64_t>(cim::DeviceStatus::kIdle), device));
  }
  return device_status;
}

support::StatusOr<sim::PhysAddr> CimDriver::translate(sim::VirtAddr va) const {
  return system_.mmu().translate(va);
}

}  // namespace tdo::rt
