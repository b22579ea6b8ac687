#include "runtime/stream.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/host_pool.hpp"

namespace tdo::rt {

CimStream::CimStream(StreamParams params, sim::System& system,
                     CimDriver& driver)
    : params_{std::move(params)}, system_{system}, driver_{driver} {
  if (params_.depth == 0) params_.depth = 1;
  auto& stats = system.stats();
  const std::string& p = params_.name;
  const Counters& c = counters_;
  stats.register_counter(p + ".enqueued", &c.enqueued);
  stats.register_counter(p + ".offloaded", &c.offloaded);
  stats.register_counter(p + ".cpu_fallbacks", &c.cpu_fallbacks);
  stats.register_counter(p + ".fallbacks_threshold", &c.fallbacks_threshold);
  stats.register_counter(p + ".fallbacks_queue_full", &c.fallbacks_queue_full);
  stats.register_counter(p + ".syncs", &c.syncs);
  stats.register_counter(p + ".hazard_syncs", &c.hazard_syncs);
  stats.register_counter(p + ".device_drains", &c.device_drains);
  stats.register_counter(p + ".occupancy_peak", &c.occupancy_peak);
  stats.register_counter(p + ".copies_enqueued", &c.copies_enqueued);
  stats.register_counter(p + ".copy_bytes", &c.copy_bytes);
  stats.register_counter(p + ".ring_submitted", &c.ring_submitted);
  stats.register_counter(p + ".ring_rejected", &c.ring_rejected);
}

bool CimStream::idle() const {
  return in_flight() == 0 && tracker_.empty() && ring_.pending() == 0;
}

std::size_t CimStream::in_flight() const {
  std::size_t total = 0;
  for (std::size_t d = 0; d < driver_.device_count(); ++d) {
    total += driver_.device(d).in_flight() + driver_.device(d).copies_in_flight();
  }
  if (pool_ != nullptr) total += pool_->in_flight();
  return total;
}

void CimStream::note_occupancy() {
  // Monotone lifetime peak expressed as a counter (registry counters only
  // accumulate): the counter's value always equals the highest in-flight
  // count observed so far.
  const std::uint64_t occ = in_flight();
  if (occ > occupancy_seen_) {
    counters_.occupancy_peak.add(occ - occupancy_seen_);
    occupancy_seen_ = occ;
  }
}

support::Status CimStream::enqueue_from_thread(const Command& command) {
  if (!ring_.push(command)) {
    counters_.ring_rejected.add();
    return support::Status{support::StatusCode::kResourceExhausted,
                           "stream submission ring shard full"};
  }
  counters_.ring_submitted.add();
  return support::Status::ok();
}

support::Status CimStream::pump_rings() {
  // Second metrics pump site (for drives not fronted by a serving
  // scheduler): same zero-cost-when-off contract as obs::enabled().
  obs::metrics_pump(system_.events().now());
  support::Status result = support::Status::ok();
  for (Command& command : ring_.drain_all()) {
    auto status = enqueue(command);
    if (!status.is_ok() && result.is_ok()) result = status;
  }
  return result;
}

void CimStream::drain_host_pool() {
  if (pool_ == nullptr) return;
  system_.settle_to_host_time();
  while (!pool_->idle()) {
    const sim::Tick done = pool_->busy_until();
    (void)system_.events().run_until(done);
    (void)system_.cpu().block_until(done);
  }
}

support::Status CimStream::enqueue(const Command& command) {
  if (command.kind == Command::Kind::kCopy) return enqueue_copy(command);
  counters_.enqueued.add();
  const std::size_t devices = driver_.device_count();
  const std::size_t dev = command.device >= 0
                              ? static_cast<std::size_t>(command.device) % devices
                              : next_device();
  cim::Accelerator& accel = driver_.device(dev);

  // Dynamic dispatch, DTO-style: commands below the intensity threshold are
  // cheaper on the host than paying crossbar writes for them. A command that
  // reuses the programmed tile (cim_writes == 0) is always worth offloading.
  if (command.allow_cpu_fallback && params_.min_macs_per_write > 0.0 &&
      command.cim_writes > 0) {
    const double intensity = static_cast<double>(command.macs) /
                             static_cast<double>(command.cim_writes);
    if (intensity < params_.min_macs_per_write) {
      counters_.fallbacks_threshold.add();
      counters_.cpu_fallbacks.add();
      if (obs::enabled()) {
        obs::Tracer::instance().instant(
            "stream/" + params_.name, "cpu_fallback_threshold",
            system_.events().now(), {{"macs", command.macs}});
      }
      return run_on_host(command.image);
    }
  }

  // Backpressure: the stream keeps at most `depth` commands in flight per
  // accelerator (bounded additionally by the hardware FIFO).
  const std::size_t depth = device_depth(dev);
  system_.settle_to_host_time();
  if (accel.in_flight() >= depth) {
    if (params_.fallback_when_full && command.allow_cpu_fallback) {
      counters_.fallbacks_queue_full.add();
      counters_.cpu_fallbacks.add();
      if (obs::enabled()) {
        obs::Tracer::instance().instant(
            "stream/" + params_.name, "cpu_fallback_queue_full",
            system_.events().now(), {{"macs", command.macs}});
      }
      return run_on_host(command.image);
    }
    driver_.wait_for_space(dev, depth - 1);
  }

  counters_.offloaded.add();
  TDO_RETURN_IF_ERROR(driver_.submit_queued(command.image, dev));
  note_occupancy();
  return support::Status::ok();
}

support::Status CimStream::enqueue_copy(const Command& command) {
  const CopyDesc& desc = command.copy;
  if (desc.bytes() == 0) return support::Status::ok();
  const std::size_t devices = driver_.device_count();
  const std::size_t dev = command.device >= 0
                              ? static_cast<std::size_t>(command.device) % devices
                              : next_device();
  counters_.copies_enqueued.add();
  counters_.copy_bytes.add(desc.bytes());
  // Every segment's footprint joins the hazard sets: later commands reading
  // any destination run (or overwriting any source run) must order behind
  // the chain. The caller has already checked this command's own rectangles
  // for conflicts.
  for (const CopySeg& seg : desc.segments) {
    note_read(seg.src, static_cast<int>(dev));
    note_write(seg.dst, static_cast<int>(dev));
  }
  TDO_RETURN_IF_ERROR(driver_.submit_copy(make_copy_image(desc), dev));
  note_occupancy();
  return support::Status::ok();
}

support::Status CimStream::drain_one(std::size_t device) {
  failed_seen_.resize(driver_.device_count(), 0);
  support::Status result = support::Status::ok();
  cim::Accelerator& accel = driver_.device(device);
  if (accel.has_work() || accel.regs().status() != cim::DeviceStatus::kIdle) {
    auto status = driver_.drain(device);
    if (!status.is_ok()) result = status.status();
  }
  const std::uint64_t failed = accel.jobs_failed();
  if (failed > failed_seen_[device]) {
    result = support::Status{
        static_cast<support::StatusCode>(accel.last_error_code()),
        "accelerator job failed"};
  }
  failed_seen_[device] = failed;
  return result;
}

support::Status CimStream::synchronize() {
  counters_.syncs.add();
  support::Status result = pump_rings();
  for (std::size_t d = 0; d < driver_.device_count(); ++d) {
    auto status = drain_one(d);
    if (!status.is_ok()) result = status;
  }
  // Join in-flight host-pool stripes: a synchronize is the pseudo-async
  // join point, so host-stripe writes become visible (in simulated time)
  // together with their device halves.
  drain_host_pool();
  tracker_.clear();
  return result;
}

support::Status CimStream::drain_device(std::size_t device) {
  counters_.device_drains.add();
  auto result = drain_one(device);
  // Everything that accelerator had in flight has retired; only its
  // rectangles leave the hazard sets — the other devices keep computing
  // against theirs.
  tracker_.remove_device(static_cast<int>(device));
  return result;
}

support::Status CimStream::run_on_host(const cim::ContextRegs& image) {
  // The fallback runs the original -O3 loop nest on the host model: exact
  // float math (no quantization) with interpreter-equivalent charges.
  const std::uint64_t m = image.read(cim::Reg::kM);
  const std::uint64_t n = image.read(cim::Reg::kN);
  const std::uint64_t k = image.read(cim::Reg::kK);
  const std::uint64_t lda = image.read(cim::Reg::kLda);
  const std::uint64_t ldb = image.read(cim::Reg::kLdb);
  const std::uint64_t ldc = image.read(cim::Reg::kLdc);
  const sim::PhysAddr pa_a = image.read(cim::Reg::kPaA);
  const sim::PhysAddr pa_b = image.read(cim::Reg::kPaB);
  const sim::PhysAddr pa_c = image.read(cim::Reg::kPaC);
  const float alpha = image.read_f32(cim::Reg::kAlpha);
  const float beta = image.read_f32(cim::Reg::kBeta);
  const auto op = static_cast<cim::Opcode>(image.read(cim::Reg::kOpcode));
  if (op != cim::Opcode::kGemm && op != cim::Opcode::kGemv) {
    return support::unimplemented("CPU fallback supports plain GEMM jobs only");
  }
  if (m == 0 || n == 0 || k == 0) {
    return support::invalid_argument("zero GEMM dimension");
  }

  auto& cpu = system_.cpu();
  auto& mem = system_.memory();
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::uint64_t kk = 0; kk < k; ++kk) {
        const sim::PhysAddr a_addr = pa_a + (i * lda + kk) * 4;
        const sim::PhysAddr b_addr = pa_b + (kk * ldb + j) * 4;
        acc += static_cast<double>(mem.read_scalar<float>(a_addr)) *
               static_cast<double>(mem.read_scalar<float>(b_addr));
        cpu.load(a_addr);
        cpu.load(b_addr);
        // fmadd + induction + backedge (accumulator register-promoted).
        cpu.issue(sim::InstBundle{.int_alu = 1, .fp_ops = 2, .branches = 1});
      }
      const sim::PhysAddr c_addr = pa_c + (i * ldc + j) * 4;
      double out = alpha * acc;
      if (beta != 0.0f) {
        cpu.load(c_addr);
        out += static_cast<double>(beta) *
               static_cast<double>(mem.read_scalar<float>(c_addr));
        cpu.issue(sim::InstBundle{.fp_ops = 2});
      } else {
        cpu.issue(sim::InstBundle{.fp_ops = 1});
      }
      mem.write_scalar<float>(c_addr, static_cast<float>(out));
      cpu.store(c_addr);
    }
  }
  return support::Status::ok();
}

}  // namespace tdo::rt
