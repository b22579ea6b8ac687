#include "cim/accelerator.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "topo/topology.hpp"

namespace tdo::cim {

AcceleratorParams instance_params(AcceleratorParams base, std::size_t index) {
  if (index > 0) {
    base.name += std::to_string(index);
    base.pmio_base += index * kPmioInstanceStride;
  }
  return base;
}

Accelerator::Accelerator(AcceleratorParams params, sim::System& system)
    : params_{std::move(params)}, system_{system}, model_{params_.energy} {
  tile_ = std::make_unique<CimTile>(params_.tile);
  dma_ = std::make_unique<Dma>(params_.dma, system.memory());
  engine_ = std::make_unique<MicroEngine>(
      params_.engine, *tile_, *dma_, model_, system.events(),
      EnergySinks{&e_write_, &e_compute_, &e_mixed_, &e_digital_, &e_buffers_,
                  &e_dma_});

  const auto attached =
      system.bus().attach(params_.pmio_base, kPmioWindowBytes, *this);
  assert(attached.is_ok() && "PMIO window attach failed");
  (void)attached;

  auto& stats = system.stats();
  const std::string& p = params_.name;
  stats.register_counter(p + ".jobs", &jobs_);
  stats.register_counter(p + ".queued_jobs", &queued_jobs_);
  stats.register_counter(p + ".jobs_completed", &completed_);
  stats.register_counter(p + ".jobs_failed", &failed_);
  stats.register_counter(p + ".copies", &copies_);
  stats.register_counter(p + ".copy_segments", &copy_segments_);
  stats.register_counter(p + ".overlap_ticks", &overlap_ticks_);
  stats.register_counter(p + ".withheld_responses", &withheld_responses_);
  stats.register_counter(p + ".weight_writes_saved8",
                         &engine_->weight_writes_saved_counter());
  stats.register_energy(p + ".energy.write", &e_write_);
  stats.register_energy(p + ".energy.compute", &e_compute_);
  stats.register_energy(p + ".energy.mixed_signal", &e_mixed_);
  stats.register_energy(p + ".energy.digital", &e_digital_);
  stats.register_energy(p + ".energy.buffers", &e_buffers_);
  stats.register_energy(p + ".energy.dma", &e_dma_);
  dma_->register_stats(stats, p);

  regs_.set_status(DeviceStatus::kIdle);
}

support::Status Accelerator::mmio_read(std::uint64_t offset,
                                       std::span<std::uint8_t> out) {
  if (offset % kRegStride != 0 || out.size() != kRegStride) {
    return support::invalid_argument("context registers require aligned 64-bit IO");
  }
  const auto index = static_cast<std::uint32_t>(offset / kRegStride);
  if (index >= kRegCount) return support::out_of_range("register index");
  const std::uint64_t value = regs_.read(static_cast<Reg>(index));
  std::memcpy(out.data(), &value, sizeof value);
  return support::Status::ok();
}

support::Status Accelerator::mmio_write(std::uint64_t offset,
                                        std::span<const std::uint8_t> in) {
  if (offset % kRegStride != 0 || in.size() != kRegStride) {
    return support::invalid_argument("context registers require aligned 64-bit IO");
  }
  const auto index = static_cast<std::uint32_t>(offset / kRegStride);
  if (index >= kRegCount) return support::out_of_range("register index");
  std::uint64_t value = 0;
  std::memcpy(&value, in.data(), sizeof value);

  // Jobs enter only through the work queue (enqueue_job); the one register
  // the host writes is kStatus, to acknowledge DONE/ERROR back to IDLE.
  if (static_cast<Reg>(index) != Reg::kStatus) {
    return support::failed_precondition("only the status register is writable");
  }
  if (regs_.status() == DeviceStatus::kBusy) {
    return support::failed_precondition("accelerator busy");
  }
  regs_.write(Reg::kStatus, value);
  return support::Status::ok();
}

support::Status Accelerator::enqueue_job(const ContextRegs& image) {
  // Copies never occupy the compute queue: they execute on the DMA channel,
  // which is otherwise idle while the micro-engine streams vectors.
  if (static_cast<Opcode>(image.read(Reg::kOpcode)) == Opcode::kCopy) {
    return start_copy(image);
  }
  if (regs_.status() == DeviceStatus::kBusy) {
    if (queue_.size() >= params_.work_queue_depth) {
      return support::resource_exhausted("CIM work queue full");
    }
    queue_.push_back(QueuedJob{image, system_.events().now()});
    queued_jobs_.add();
    // A job that became the queue front will prefetch its weight DMA during
    // the running job's stream tail: book that window on the channel
    // timeline now, so a later copy cannot first-fit into the same slot.
    if (queue_.size() == 1) reserve_queue_prefetch();
    // The new job also extends the queue's estimated body-DMA chain:
    // re-derive the advisory windows so copies account for it.
    dma_->drop_advisory();
    reserve_queue_body();
    return support::Status::ok();
  }
  apply_image(image);
  current_job_enqueued_ = system_.events().now();
  start_job(support::Duration::zero());
  return support::Status::ok();
}

void Accelerator::apply_image(const ContextRegs& image) {
  for (std::uint32_t i = 0; i < kRegCount; ++i) {
    const Reg reg = static_cast<Reg>(i);
    if (reg == Reg::kCommand || reg == Reg::kStatus || reg == Reg::kResult ||
        reg == Reg::kCompleted) {
      continue;
    }
    regs_.write(reg, image.read(reg));
  }
}

support::Status Accelerator::start_copy(const ContextRegs& image) {
  // Decode the descriptor: inline single rectangle, or a scatter-gather
  // chain whose CopySegEntry table the DMA fetches from shared memory.
  const std::uint64_t seg_count = image.read(Reg::kSegCount);
  const std::uint64_t bursts_before = dma_->bursts();
  support::Duration duration = support::Duration::zero();
  std::uint64_t bytes = 0;
  if (seg_count > 1) {
    std::vector<CopySegEntry> segs(seg_count);
    auto raw = std::as_writable_bytes(std::span<CopySegEntry>(segs));
    duration = duration + dma_->read_block(
        image.read(Reg::kSegTable),
        std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(raw.data()),
                                raw.size()));
    for (const CopySegEntry& seg : segs) {
      duration = duration + dma_->copy_rect(seg.src_base, seg.src_pitch,
                                            seg.dst_base, seg.dst_pitch,
                                            seg.width, seg.rows);
      bytes += seg.width * seg.rows;
    }
    copy_segments_.add(seg_count);
  } else {
    const std::uint64_t rows = image.read(Reg::kM);
    const std::uint64_t width = image.read(Reg::kN);
    bytes = rows * width;
    if (bytes == 0) return support::Status::ok();  // no-op descriptor
    duration = dma_->copy_rect(image.read(Reg::kPaA), image.read(Reg::kLda),
                               image.read(Reg::kPaC), image.read(Reg::kLdc),
                               width, rows);
    copy_segments_.add();
  }
  copies_.add();
  e_dma_.add(model_.dma_energy(dma_->bursts() - bursts_before));

  // Place the chain on a DMA channel: first-fit into the idle gaps of the
  // per-channel busy-window timeline, so a copy overlapping the engine's own
  // weight/vector traffic serializes behind it (or migrates to the idle
  // channel) instead of being counted as free overlap. Segments of one chain
  // run back-to-back inside a single reservation.
  const sim::Tick now = system_.events().now();
  const Dma::CopySlot slot = dma_->reserve_copy(now, duration.ticks());
  const sim::Tick start = slot.start;
  const sim::Tick done = start + duration.ticks();
  // Copy bytes whose transfer window lies under engine busy windows are
  // hidden behind compute (the DTO-style copy/compute overlap). The figure
  // is exact: the running job's remaining window is credited here, every
  // chained job credits its own window as it launches (start_job), and the
  // share of the window the engine's own DMA occupies on this channel is
  // subtracted — the credit never exceeds the channel's true idle window.
  dma_busy_until_ = std::max(dma_busy_until_, done);
  ++copies_in_flight_;
  const std::uint64_t id = next_copy_id_++;
  active_copies_.push_back(ActiveCopy{id, start, done, bytes, 0, slot.channel});
  if (busy_until_ > start) {
    const sim::Tick hi = std::min(done, busy_until_);
    const sim::Tick covered = hi - start;
    active_copies_.back().hidden =
        covered - dma_->engine_busy_overlap(slot.channel, start, hi);
  }
  if (obs::enabled()) {
    // The copy-window span: `wait` is the contention stall the first-fit
    // reservation imposed before the chain could start.
    obs::Tracer::instance().span(
        "dma/" + params_.name + ".ch" + std::to_string(slot.channel), "copy",
        start, duration.ticks(),
        {{"bytes", bytes},
         {"segs", seg_count > 1 ? seg_count : 1},
         {"wait", start - now},
         {"dmab", dma_->bursts() - bursts_before}});
  }
  system_.events().schedule_at(done, params_.name + ".copy_done", [this, id] {
    --copies_in_flight_;
    const auto it =
        std::find_if(active_copies_.begin(), active_copies_.end(),
                     [id](const ActiveCopy& c) { return c.id == id; });
    if (it != active_copies_.end()) {
      const sim::Tick window = it->done - it->start;
      if (window > 0 && it->hidden > 0) {
        const double fraction = static_cast<double>(std::min(it->hidden, window)) /
                                static_cast<double>(window);
        dma_->note_copy_overlap(static_cast<std::uint64_t>(
            fraction * static_cast<double>(it->bytes)));
      }
      active_copies_.erase(it);
    }
  });
  return support::Status::ok();
}

void Accelerator::credit_copy_overlap(sim::Tick win_start, sim::Tick win_end) {
  for (ActiveCopy& copy : active_copies_) {
    const sim::Tick lo = std::max(win_start, copy.start);
    const sim::Tick hi = std::min(win_end, copy.done);
    if (hi > lo) {
      // Engine DMA windows on the copy's channel are not idle time under
      // compute; only the remainder of the busy window counts as hidden.
      copy.hidden += (hi - lo) - dma_->engine_busy_overlap(copy.channel, lo, hi);
    }
  }
}

void Accelerator::reserve_queue_prefetch() {
  if (queue_.empty()) return;
  if (busy_until_ <= last_timeline_.weights_programmed) return;
  const QueuedJob& front = queue_.front();
  // Mirror the credit the chain launch will grant: the prefetch runs in the
  // stream tail, bounded by the front job's weight-DMA demand, the stream
  // phase, and how long the job will have been queued by then.
  const support::Duration estimate = engine_->estimate_prefetch_dma(front.image);
  const sim::Tick queued_for = busy_until_ - front.enqueued;
  const sim::Tick window =
      std::min({estimate.ticks(), last_timeline_.stream_phase().ticks(),
                queued_for});
  if (window == 0) return;
  dma_->reserve_engine(busy_until_ - window, busy_until_);
}

void Accelerator::reserve_queue_body() {
  if (!params_.queue_body_reserve || queue_.empty()) return;
  // Chain estimated launch points from the running job's completion: each
  // queued job's weight DMA then its stream-body DMA occupy the engine
  // channel in turn. The windows are advisory (estimates drop at the next
  // launch, when the authoritative reservations take over), but they are
  // what keeps a copy submitted against a deep queue from first-fitting
  // into channel time the queue already owns.
  sim::Tick t = busy_until_;
  for (const QueuedJob& job : queue_) {
    const sim::Tick weight = engine_->estimate_prefetch_dma(job.image).ticks();
    const sim::Tick body = engine_->estimate_stream_dma(job.image).ticks();
    if (weight + body > 0) {
      dma_->reserve_engine_advisory(t, t + weight + body);
    }
    t += weight + body;
  }
}

void Accelerator::start_job(support::Duration prefetch_credit) {
  jobs_.add();
  regs_.set_status(DeviceStatus::kBusy);
  dma_->retire_before(system_.events().now());
  // This job's launch reserves its authoritative channel windows below;
  // the enqueue-time advisory estimates (which end in the future, out of
  // retire_before's reach) must go first or the body DMA double-books.
  dma_->drop_advisory();
  last_timeline_ = engine_->launch(regs_, prefetch_credit);
  overlap_ticks_.add(last_timeline_.overlap);
  busy_until_ = last_timeline_.done;
  // A chained job's prefetched weight DMA occupied the engine channel
  // during the previous job's stream tail [trigger - overlap, trigger) —
  // ticks that were already credited to active copies as idle-under-compute
  // when the previous job launched. Debit copies on that channel so the
  // overlap figure stays within the channel's true idle window. (A copy
  // that retired before this launch keeps its credit; the residual
  // over-credit is bounded by the prefetch share of its final ticks.)
  if (last_timeline_.overlap > 0) {
    const sim::Tick lo = last_timeline_.trigger - last_timeline_.overlap;
    for (ActiveCopy& copy : active_copies_) {
      if (copy.channel != 0) continue;
      const sim::Tick begin = std::max(lo, copy.start);
      const sim::Tick end = std::min(last_timeline_.trigger, copy.done);
      if (end > begin) {
        copy.hidden -= std::min<sim::Tick>(copy.hidden, end - begin);
      }
    }
  }
  // Chained-launch share of the copy/compute overlap: any stream copy whose
  // transfer window spans this job's busy window is hidden under it.
  credit_copy_overlap(last_timeline_.trigger, busy_until_);
  // The queue front (if any) will prefetch its weight DMA during this job's
  // stream tail — reserve that window so copies can't double-book it. (The
  // enqueue path reserves when a job becomes front under an already-running
  // job; this covers fronts inherited across a chain launch.)
  reserve_queue_prefetch();
  // And the still-queued jobs' body DMA re-chains from the fresh busy_until_.
  reserve_queue_body();

  // Completion chain: the engine's own done/error event (same tick, earlier
  // sequence) has already updated kStatus/kResult when this runs.
  const support::Duration stream_phase = last_timeline_.stream_phase();
  system_.events().schedule_at(busy_until_, params_.name + ".advance",
                               [this, stream_phase,
                                timeline = last_timeline_,
                                enq = current_job_enqueued_] {
    completed_.add();
    regs_.write(Reg::kCompleted, completed_.value());
    if (regs_.status() == DeviceStatus::kError) {
      failed_.add();
      last_error_ = regs_.read(Reg::kResult);
    }
    if (obs::enabled()) {
      // One span per retired job on this engine's track. `completed` is the
      // FIFO retirement ordinal — the analyzer joins a request's completion
      // target {dev, completed} with exactly this span.
      obs::Tracer::instance().span(
          "engine/" + params_.name, "job", timeline.trigger,
          timeline.done - timeline.trigger,
          {{"dev", device_ordinal_ + 1},
           {"enq", enq},
           {"wp", timeline.weights_programmed},
           {"completed", completed_.value()},
           // Activity counts for trace-driven energy attribution — the
           // exact deltas launch() charged the energy sinks with.
           {"ww8", timeline.weight_writes8},
           {"mac", timeline.mac8_ops},
           {"gemv", timeline.gemv_ops},
           {"alu", timeline.extra_alu_ops},
           {"bufb", timeline.buffer_byte_accesses},
           {"dmab", timeline.dma_bursts}});
    }
    if (completion_observer_) {
      if (response_link_ != nullptr) {
        // Withhold-response: the completion message serializes over the
        // pool link; the host observes the completion only at its delivery
        // tick. Responses of concurrent far jobs contend on the link's
        // single timeline, and delivery ticks stay monotone in completion
        // order, so observers still see a non-decreasing completed count.
        withheld_responses_.add();
        const sim::Tick now = system_.events().now();
        response_link_->retire_before(now);
        const sim::Tick deliver = response_link_->delivery(
            now, response_link_->params().response_bytes);
        const std::uint64_t completed_count = completed_.value();
        system_.events().schedule_at(
            deliver, params_.name + ".response", [this, completed_count] {
              if (completion_observer_) {
                completion_observer_(completed_count, system_.events().now());
              }
            });
      } else {
        completion_observer_(completed_.value(), system_.events().now());
      }
    }
    if (queue_.empty()) return;
    const QueuedJob job = queue_.front();
    queue_.pop_front();
    apply_image(job.image);
    // Prefetch could only run while the job sat in the queue *and* the
    // engine was streaming: a late-enqueued image claims only the tail of
    // the stream phase, not all of it.
    const sim::Tick now = system_.events().now();
    const support::Duration queued_for = sim::from_ticks(now - job.enqueued);
    current_job_enqueued_ = job.enqueued;
    start_job(std::min(stream_phase, queued_for));
  });
}

support::Energy Accelerator::total_energy() const {
  return e_write_.total() + e_compute_.total() + e_mixed_.total() +
         e_digital_.total() + e_buffers_.total() + e_dma_.total();
}

AcceleratorReport Accelerator::report() const {
  AcceleratorReport rep;
  rep.jobs = jobs_.value();
  rep.gemv_ops = tile_->stats().gemv_ops;
  rep.mac8_ops = tile_->stats().mac8_ops;
  rep.weight_writes8 = tile_->stats().weight_writes8;
  rep.weight_writes_saved8 = engine_->weight_writes_saved8();
  rep.total_energy = total_energy();
  return rep;
}

}  // namespace tdo::cim
