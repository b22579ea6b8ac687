#include "runtime/cim_blas.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "obs/trace.hpp"
#include "support/log.hpp"

namespace tdo::rt {

namespace {
constexpr std::uint64_t kElem = 4;  // sizeof(float)
}

CimRuntime::CimRuntime(RuntimeConfig config, sim::System& system,
                       cim::Accelerator& accel)
    : config_{config}, system_{system}, accel_{accel} {
  driver_ = std::make_unique<CimDriver>(config_.driver, system, accel);
  stream_ = std::make_unique<CimStream>(config_.stream, system, *driver_);
  xfer_ = std::make_unique<XferEngine>(config_.xfer, system);
  residency_ = std::make_unique<ResidencyCache>(config_.residency, *driver_,
                                                system.stats());
  pool_ = std::make_unique<HostWorkerPool>(system, config_.split.pool);
  stream_->attach_host_pool(pool_.get());
}

void CimRuntime::set_split_fraction(double fraction) {
  config_.split.cpu_fraction =
      std::clamp(fraction, 0.0, config_.split.max_fraction);
}

support::Status CimRuntime::init(int device_index) {
  if (device_index != 0) {
    return support::not_found("only CIM device 0 exists in this system");
  }
  // Device node open + capability query.
  system_.cpu().charge_instructions(2000);
  initialized_ = true;
  return support::Status::ok();
}

support::StatusOr<sim::VirtAddr> CimRuntime::malloc_device(std::uint64_t bytes) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  auto buffer = driver_->alloc_buffer(bytes);
  if (!buffer.is_ok()) return buffer.status();
  buffers_.push_back(*buffer);
  return buffer->va;
}

support::Status CimRuntime::free_device(sim::VirtAddr va) {
  const auto it =
      std::find_if(buffers_.begin(), buffers_.end(),
                   [va](const DeviceBuffer& b) { return b.va == va; });
  if (it == buffers_.end()) {
    return support::not_found("free of unknown device buffer");
  }
  // Drain only when an in-flight command actually touches this buffer;
  // releasing a buffer no pending rectangle covers needs no barrier.
  const Rect extent = Rect::linear(it->pa, it->bytes);
  if (stream_->writes_overlap(extent) || stream_->reads_overlap(extent)) {
    TDO_RETURN_IF_ERROR(synchronize());
  }
  // Weights programmed from this buffer must not be reused once the backing
  // memory is recycled.
  residency_->invalidate_overlapping(extent);
  TDO_RETURN_IF_ERROR(driver_->free_buffer(*it));
  buffers_.erase(it);
  return support::Status::ok();
}

support::Status CimRuntime::synchronize() {
  auto status = stream_->synchronize();
  for (const DeviceBuffer& buffer : staging_) {
    const auto freed = driver_->free_buffer(buffer);
    if (!freed.is_ok() && status.is_ok()) status = freed;
  }
  staging_.clear();
  return status;
}

support::Status CimRuntime::sync_for_operands(
    std::initializer_list<Rect> reads, std::initializer_list<Rect> writes) {
  return sync_for_operands(std::span<const Rect>(reads.begin(), reads.size()),
                           std::span<const Rect>(writes.begin(), writes.size()));
}

support::Status CimRuntime::sync_for_operands(std::span<const Rect> reads,
                                              std::span<const Rect> writes) {
  bool hazard = false;
  for (const Rect& r : reads) {
    hazard = hazard || stream_->writes_overlap(r);  // RAW
  }
  for (const Rect& r : writes) {
    hazard = hazard || stream_->writes_overlap(r)  // WAW
             || stream_->reads_overlap(r);         // WAR
  }
  if (!hazard) return support::Status::ok();
  stream_->count_hazard();
  return synchronize();
}

support::Status CimRuntime::copy_view(CopyDesc::Dir dir, sim::VirtAddr dst,
                                      sim::VirtAddr src, std::uint64_t pitch,
                                      std::uint64_t width, std::uint64_t rows) {
  const std::uint64_t bytes = width * rows;
  if (bytes == 0) return support::Status::ok();
  CopyDesc desc;
  bool planned = xfer_->plan_view(dir, dst, src, pitch, width, rows, &desc);
  bool striped = false;
  if (planned && desc.single() && dir == CopyDesc::Dir::kDevToHost) {
    auto handled = striped_copy_back(desc);
    if (!handled.is_ok()) return handled.status();
    striped = *handled;
  }
  if (planned && !striped) {
    // Order the copy against in-flight producers/consumers at rectangle
    // granularity, one check per segment: a chain whose runs are disjoint
    // from every pending rectangle rides the stream without a
    // synchronization.
    std::vector<Rect> reads;
    std::vector<Rect> writes;
    reads.reserve(desc.segments.size());
    writes.reserve(desc.segments.size());
    for (const CopySeg& seg : desc.segments) {
      reads.push_back(seg.src);
      writes.push_back(seg.dst);
    }
    TDO_RETURN_IF_ERROR(sync_for_operands(reads, writes));
  }
  if (planned && !striped && !desc.single()) {
    // Marshal the scatter-gather chain into a staging descriptor table the
    // device DMA fetches (Figure-3 style: the runtime owns the table, the
    // driver cleans its lines at submit). The buffer stays alive until
    // synchronize(), like batch tables — which is why this must come AFTER
    // the hazard ordering above: a hazard-triggered synchronize() releases
    // every staged table, and it must not release this one before the
    // device has fetched it. If the CMA cannot hold the table, the copy
    // degrades to the host path instead of failing.
    auto staging =
        driver_->alloc_buffer(desc.segments.size() * sizeof(cim::CopySegEntry));
    if (staging.is_ok()) {
      staging_.push_back(*staging);
      auto& mem = system_.memory();
      auto& cpu = system_.cpu();
      std::uint64_t offset = 0;
      for (const CopySeg& seg : desc.segments) {
        cim::CopySegEntry entry;
        entry.src_base = seg.src.base;
        entry.src_pitch = seg.src.pitch;
        entry.dst_base = seg.dst.base;
        entry.dst_pitch = seg.dst.pitch;
        entry.width = seg.src.width;
        entry.rows = seg.src.rows;
        mem.write(staging->pa + offset,
                  std::span(reinterpret_cast<const std::uint8_t*>(&entry),
                            sizeof entry));
        for (std::uint64_t w = 0; w < sizeof entry; w += 8) {
          cpu.store(staging->pa + offset + w, 8);
        }
        offset += sizeof entry;
      }
      desc.table_pa = staging->pa;
    } else {
      planned = false;
    }
  }
  if (striped) {
    // Per-stripe copy-back handled the transfer: each producer drained in
    // completion order, its stripes enqueued while the rest kept computing.
  } else if (planned) {
    CimStream::Command command;
    command.kind = CimStream::Command::Kind::kCopy;
    command.copy = desc;
    TDO_RETURN_IF_ERROR(stream_->enqueue(command));
  } else {
    // Host memcpy path (small, over-fragmented, or async copies disabled).
    // The host touches both ranges immediately and they may span scattered
    // frames, so order conservatively: drain whenever the stream is busy
    // (the paper's original behaviour).
    if (!stream_->idle()) TDO_RETURN_IF_ERROR(synchronize());
    TDO_RETURN_IF_ERROR(xfer_->host_copy_2d(dst, src, pitch, width, rows));
  }
  const std::uint64_t span = (rows - 1) * pitch + width;
  invalidate_scales(dst, span);
  // Epoch-based residency invalidation: the destination just received a
  // host-visible write, so any cached stationary tile overlapping it is
  // stale. A destination the MMU cannot resolve contiguously falls back to
  // killing everything (it cannot alias a cached tile's contiguous rect,
  // but stay conservative).
  if (planned) {
    for (const CopySeg& seg : desc.segments) {
      residency_->invalidate_overlapping(seg.dst);
    }
  } else if (system_.mmu().is_contiguous(dst, span)) {
    const auto dst_pa = system_.mmu().translate(dst);
    if (dst_pa.is_ok()) {
      residency_->invalidate_overlapping(Rect{*dst_pa, pitch, width, rows});
    } else {
      residency_->invalidate_all();
    }
  } else {
    residency_->invalidate_all();
  }
  return support::Status::ok();
}

support::StatusOr<bool> CimRuntime::striped_copy_back(const CopyDesc& desc) {
  // The split needs a contiguous transfer (span containment below is only a
  // real containment test against a gap-free source), every overlapping
  // in-flight write to be a stripe of a known accelerator, the stripes to
  // exactly partition the copy's source, and the destination to be
  // otherwise unclaimed. Anything else falls back to the ordinary
  // full-drain ordering.
  if (!desc.single()) return false;
  if (!desc.src().contiguous() || !desc.dst().contiguous()) return false;
  const auto stripes = stream_->overlapping_writes(desc.src());
  if (stripes.size() < 2 || stripes.size() > 64) return false;
  if (stream_->writes_overlap(desc.dst()) || stream_->reads_overlap(desc.dst())) {
    return false;
  }
  std::uint64_t covered = 0;
  std::vector<std::size_t> devices;  // distinct, insertion order
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const TrackedRect& s = stripes[i];
    // Unknown producers and host-pool stripes (pseudo-device past the last
    // accelerator) cannot be drained per-device; take the full-drain path.
    if (s.device < 0 ||
        s.device >= static_cast<int>(driver_->device_count())) {
      return false;
    }
    if (s.rect.base < desc.src().base ||
        s.rect.span_end() > desc.src().span_end()) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (stripes[j].rect.overlaps(s.rect)) return false;
    }
    covered += s.rect.bytes();
    const auto dev = static_cast<std::size_t>(s.device);
    if (std::find(devices.begin(), devices.end(), dev) == devices.end()) {
      devices.push_back(dev);
    }
  }
  if (covered != desc.bytes()) return false;  // gaps: not an exact partition
  if (devices.size() < 2) return false;       // one producer == full drain

  // Earliest-finishing producer first: its stripes copy out while the later
  // ones are still streaming their tiles.
  std::sort(devices.begin(), devices.end(),
            [this](std::size_t lhs, std::size_t rhs) {
              return driver_->device(lhs).work_done_tick() <
                     driver_->device(rhs).work_done_tick();
            });
  const std::int64_t shift = static_cast<std::int64_t>(desc.dst().base) -
                             static_cast<std::int64_t>(desc.src().base);
  for (const std::size_t dev : devices) {
    TDO_RETURN_IF_ERROR(stream_->drain_device(dev));
    for (const TrackedRect& s : stripes) {
      if (static_cast<std::size_t>(s.device) != dev) continue;
      CopySeg part;
      part.src = s.rect;
      part.dst = s.rect;
      part.dst.base = static_cast<sim::PhysAddr>(
          static_cast<std::int64_t>(s.rect.base) + shift);
      CimStream::Command command;
      command.kind = CimStream::Command::Kind::kCopy;
      command.device = static_cast<int>(dev);
      command.copy.dir = desc.dir;
      command.copy.segments = {part};
      TDO_RETURN_IF_ERROR(stream_->enqueue(command));
    }
  }
  return true;
}

support::Status CimRuntime::host_to_dev(sim::VirtAddr dst, sim::VirtAddr src,
                                        std::uint64_t bytes) {
  return copy_view(CopyDesc::Dir::kHostToDev, dst, src, bytes, bytes, 1);
}

void CimRuntime::invalidate_scales(sim::VirtAddr va, std::uint64_t bytes) {
  for (auto it = scale_cache_.begin(); it != scale_cache_.end();) {
    const std::uint64_t extent =
        ((it->first.rows - 1) * it->first.ld + it->first.row_len) * kElem;
    const bool overlap =
        it->first.va < va + bytes && va < it->first.va + extent;
    it = overlap ? scale_cache_.erase(it) : std::next(it);
  }
}

support::Status CimRuntime::dev_to_host(sim::VirtAddr dst, sim::VirtAddr src,
                                        std::uint64_t bytes) {
  return copy_view(CopyDesc::Dir::kDevToHost, dst, src, bytes, bytes, 1);
}

support::Status CimRuntime::host_to_dev_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                           std::uint64_t pitch,
                                           std::uint64_t width,
                                           std::uint64_t rows) {
  return copy_view(CopyDesc::Dir::kHostToDev, dst, src, pitch, width, rows);
}

support::Status CimRuntime::dev_to_host_2d(sim::VirtAddr dst, sim::VirtAddr src,
                                           std::uint64_t pitch,
                                           std::uint64_t width,
                                           std::uint64_t rows) {
  return copy_view(CopyDesc::Dir::kDevToHost, dst, src, pitch, width, rows);
}

support::StatusOr<sim::PhysAddr> CimRuntime::translate_checked(
    sim::VirtAddr va, std::uint64_t bytes) const {
  if (!system_.mmu().is_contiguous(va, bytes)) {
    return support::failed_precondition(
        "CIM operands must live in physically contiguous device buffers");
  }
  return system_.mmu().translate(va);
}

support::StatusOr<double> CimRuntime::operand_max_abs(sim::VirtAddr va,
                                                      std::uint64_t rows,
                                                      std::uint64_t row_len,
                                                      std::uint64_t ld) {
  // Per-buffer granularity: when the operand is a sub-view of one device
  // buffer, scan (and cache) the whole buffer once. A whole-buffer max-abs
  // is a valid (if slightly coarser) scale for any sub-view, and it is what
  // per-tensor-scale runtimes do in practice.
  const std::uint64_t extent = ((rows - 1) * ld + row_len) * kElem;
  for (const DeviceBuffer& buffer : buffers_) {
    if (va >= buffer.va && va + extent <= buffer.va + buffer.bytes) {
      va = buffer.va;
      rows = 1;
      row_len = buffer.bytes / kElem;
      ld = row_len;
      break;
    }
  }
  const ScaleKey key{va, rows, row_len, ld};
  if (const auto it = scale_cache_.find(key); it != scale_cache_.end()) {
    return it->second;
  }
  auto& cpu = system_.cpu();
  auto& mem = system_.memory();
  const auto base_pa = translate_checked(va, ((rows - 1) * ld + row_len) * kElem);
  if (!base_pa.is_ok()) return base_pa.status();
  // The values come from memory a page-sized chunk at a time; the host is
  // still charged one load and one bundle per element, in element order.
  std::array<float, sim::kPageSize / sizeof(float)> chunk{};
  double max_abs = 0.0;
  for (std::uint64_t r = 0; r < rows; ++r) {
    const sim::PhysAddr row_pa = *base_pa + r * ld * kElem;
    for (std::uint64_t c0 = 0; c0 < row_len; c0 += chunk.size()) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(chunk.size(), row_len - c0));
      mem.read(row_pa + c0 * kElem,
               std::span(reinterpret_cast<std::uint8_t*>(chunk.data()), n * kElem));
      for (std::size_t i = 0; i < n; ++i) {
        max_abs = std::max(max_abs, static_cast<double>(std::fabs(chunk[i])));
        cpu.load(row_pa + (c0 + i) * kElem);
        cpu.issue(sim::InstBundle{.fp_ops = 2, .branches = 1});  // fabs+max+loop
      }
    }
  }
  if (max_abs == 0.0) max_abs = 1.0;  // all-zero operand: any scale is exact
  scale_cache_[key] = max_abs;
  return max_abs;
}

cim::ContextRegs CimRuntime::make_job_image(
    std::uint64_t m, std::uint64_t n, std::uint64_t k, float alpha, float beta,
    sim::PhysAddr pa_a, std::uint64_t lda, sim::PhysAddr pa_b, std::uint64_t ldb,
    sim::PhysAddr pa_c, std::uint64_t ldc, double scale_a, double scale_b,
    cim::StationaryOperand stationary, bool skip_weight_load,
    std::uint32_t tile_row0) const {
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode, static_cast<std::uint64_t>(cim::Opcode::kGemm));
  image.write(cim::Reg::kM, m);
  image.write(cim::Reg::kN, n);
  image.write(cim::Reg::kK, k);
  image.write(cim::Reg::kPaA, pa_a);
  image.write(cim::Reg::kPaB, pa_b);
  image.write(cim::Reg::kPaC, pa_c);
  image.write(cim::Reg::kLda, lda);
  image.write(cim::Reg::kLdb, ldb);
  image.write(cim::Reg::kLdc, ldc);
  image.write_f32(cim::Reg::kAlpha, alpha);
  image.write_f32(cim::Reg::kBeta, beta);
  image.write_f64(cim::Reg::kScaleA, support::QuantScale::for_max_abs(scale_a).scale);
  image.write_f64(cim::Reg::kScaleB, support::QuantScale::for_max_abs(scale_b).scale);
  image.write(cim::Reg::kStationary, static_cast<std::uint64_t>(stationary));
  image.write(cim::Reg::kTileRow, tile_row0);
  std::uint64_t flags = 0;
  if (config_.double_buffering) flags |= cim::JobFlags::kDoubleBuffering;
  if (skip_weight_load) flags |= cim::JobFlags::kSkipWeightLoad;
  image.write(cim::Reg::kFlags, flags);
  return image;
}

int CimRuntime::topo_place() {
  if (topology_ == nullptr || placement_ == topo::Placement::kBlind ||
      !topology_->has_far()) {
    return -1;
  }
  const std::size_t count = stream_->device_count();
  if (count == 0) return -1;
  const std::size_t start = place_cursor_++ % count;
  int best = -1;
  double best_cost = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t d = (start + i) % count;
    // Marginal cost of one more job on device d: its queue depth weighted by
    // the link's latency multiplier. Near devices win while idle; once their
    // queues run ~multiplier jobs deep, a far pool becomes cheaper and the
    // placement spills — the DTO_IS_NUMA_AWARE break-even, derived from load
    // instead of a static flag.
    const double mult = topology_->latency_multiplier(static_cast<int>(d));
    const double cost =
        static_cast<double>(stream_->device_in_flight(d) + 1) * mult;
    if (best < 0 || cost < best_cost) {
      best = static_cast<int>(d);
      best_cost = cost;
    }
  }
  return best;
}

int CimRuntime::stationary_device(std::span<const WeightKey> keys) {
  // Buffer-centric placement: the accelerator already holding a resident
  // tile wins regardless of tier — reprogramming a crossbar costs more than
  // any link penalty. Caller-centric placement skips the residency override
  // (host locality wins; the DTO_IS_NUMA_AWARE=0 analogue).
  if (placement_ != topo::Placement::kCallerCentric) {
    for (const WeightKey& key : keys) {
      if (const auto resident = residency_->peek(key)) return resident->device;
    }
  }
  if (const int device = topo_place(); device >= 0) return device;
  return static_cast<int>(stream_->next_device());
}

ResidencyCache::Acquire CimRuntime::place_tile(bool use_cache,
                                               const WeightKey& key,
                                               int device) {
  if (use_cache) {
    const auto acq = residency_->acquire(key, device);
    if (acq.cached) return acq;
  }
  // Uncached: the job programs rows [0, key.rows); resident tiles there die.
  residency_->on_programmed(device, 0, key.rows);
  return {};
}

cim::ContextRegs CimRuntime::make_program_image(const WeightKey& key,
                                                std::uint32_t row0) const {
  const bool stationary_b = key.layout == cim::StationaryOperand::kB;
  cim::ContextRegs image;
  image.write(cim::Reg::kOpcode,
              static_cast<std::uint64_t>(cim::Opcode::kProgram));
  // Dimensions that decode() accepts and that land the stationary tile as
  // key.rows x key.cols: the moving operands are never dereferenced (no
  // stream phase), so they alias the stationary pointer.
  const std::uint64_t k = key.rows;
  const std::uint64_t n = stationary_b ? key.cols : 1;
  const std::uint64_t m = stationary_b ? 1 : key.cols;
  image.write(cim::Reg::kM, m);
  image.write(cim::Reg::kN, n);
  image.write(cim::Reg::kK, k);
  if (stationary_b) {
    image.write(cim::Reg::kPaB, key.rect.base);
    image.write(cim::Reg::kLdb, key.ld);
    image.write_f64(cim::Reg::kScaleB, key.scale);
    image.write(cim::Reg::kPaA, key.rect.base);
    image.write(cim::Reg::kLda, std::max<std::uint64_t>(k, 1));
    image.write_f64(cim::Reg::kScaleA, 1.0);
    image.write(cim::Reg::kPaC, key.rect.base);
    image.write(cim::Reg::kLdc, n);
  } else {
    image.write(cim::Reg::kPaA, key.rect.base);
    image.write(cim::Reg::kLda, key.ld);
    image.write_f64(cim::Reg::kScaleA, key.scale);
    image.write(cim::Reg::kPaB, key.rect.base);
    image.write(cim::Reg::kLdb, 1);
    image.write_f64(cim::Reg::kScaleB, 1.0);
    image.write(cim::Reg::kPaC, key.rect.base);
    image.write(cim::Reg::kLdc, 1);
  }
  image.write_f32(cim::Reg::kAlpha, 1.0f);
  image.write_f32(cim::Reg::kBeta, 0.0f);
  image.write(cim::Reg::kStationary, static_cast<std::uint64_t>(key.layout));
  image.write(cim::Reg::kTileRow, row0);
  std::uint64_t flags = 0;
  if (config_.double_buffering) flags |= cim::JobFlags::kDoubleBuffering;
  image.write(cim::Reg::kFlags, flags);
  return image;
}

void CimRuntime::prefetch_predicted(const WeightKey& current, int device) {
  if (!config_.residency.prefetch_on_miss || !residency_->enabled()) return;
  if (current.rect.empty()) return;
  const auto next = residency_->predict_next(current);
  if (!next || next->rect.empty() || next->rows == 0 || next->cols == 0) return;
  if (residency_->peek(*next)) return;  // resident: nothing to hide
  // Never force a drain for a speculation: skip when the predicted operand
  // is still being produced by an in-flight command.
  if (stream_->writes_overlap(next->rect)) return;
  std::uint32_t row0 = 0;
  if (!residency_->prefill(*next, device, &row0)) return;
  const auto image = make_program_image(*next, row0);
  stream_->note_read(next->rect, device);
  const std::uint64_t writes =
      static_cast<std::uint64_t>(next->rows) * next->cols;
  // Behind the jobs just enqueued on this device, the kProgram's weight DMA
  // hides under their stream phase (the same queue-prefetch credit chained
  // jobs use). If the enqueue fails the prefilled entry over-promises; the
  // device-side validation turns the resulting stale hit into a reprogram.
  const auto status = enqueue_job(image, /*macs=*/0, writes, device,
                                  /*allow_cpu_fallback=*/false);
  if (!status.is_ok()) {
    TDO_LOG(kWarn, "cim.rt") << "residency prefetch enqueue failed: "
                             << status.message();
  }
}

support::Status CimRuntime::migrate_residency(const WeightKey& key,
                                              int to_device,
                                              bool peer_to_peer) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (!residency_->enabled()) {
    return support::failed_precondition("weight-residency cache is disabled");
  }
  if (to_device < 0 ||
      static_cast<std::size_t>(to_device) >= driver_->device_count()) {
    return support::invalid_argument("migration target device out of range");
  }
  const auto placement = residency_->peek(key);
  if (!placement) {
    return support::not_found("stationary tile is not resident");
  }
  const int from_device = placement->device;
  if (from_device == to_device) return support::Status::ok();
  const sim::Tick migrate_begin = system_.events().now();

  // Destination crossbar window first — nothing to undo when it cannot fit.
  std::uint32_t row0 = 0;
  if (!residency_->reserve_rows(to_device, key.rows, &row0)) {
    return support::resource_exhausted(
        "destination crossbar cannot hold the migrating tile");
  }
  // The staging copy packs the tile's rows tight; it lives as long as the
  // runtime because future hits validate against its address.
  const std::uint64_t bytes = key.rect.width * key.rect.rows;
  auto staging = driver_->alloc_buffer(bytes);
  if (!staging.is_ok()) return staging.status();
  migration_staging_.push_back(*staging);
  const Rect staging_rect{staging->pa, key.rect.width, key.rect.width,
                          key.rect.rows};
  const std::uint64_t shadow_ld = key.rect.width / kElem;

  // Order against in-flight producers of the tile bytes (RAW) and anything
  // still touching the staging window, then move the bytes.
  TDO_RETURN_IF_ERROR(sync_for_operands({key.rect}, {staging_rect}));
  if (peer_to_peer) {
    // One dev->dev hop: the adopting device's DMA pulls the tile directly
    // from the source pool — no host staging buffer, no host round trip.
    CimStream::Command command;
    command.kind = CimStream::Command::Kind::kCopy;
    command.device = to_device;
    command.copy.dir = CopyDesc::Dir::kDevToDev;
    command.copy.segments = {CopySeg{key.rect, staging_rect}};
    TDO_RETURN_IF_ERROR(stream_->enqueue(command));
  } else {
    // Host-bounce reference path: tile crosses to a host-side staging
    // buffer, then crosses again to the destination. The second hop reads
    // what the first wrote, so the hazard machinery serializes them — two
    // full transfers plus a drain, which is exactly what peer-to-peer saves.
    auto bounce = driver_->alloc_buffer(bytes);
    if (!bounce.is_ok()) return bounce.status();
    migration_staging_.push_back(*bounce);
    const Rect bounce_rect{bounce->pa, key.rect.width, key.rect.width,
                           key.rect.rows};
    CimStream::Command out;
    out.kind = CimStream::Command::Kind::kCopy;
    out.device = from_device;
    out.copy.dir = CopyDesc::Dir::kDevToHost;
    out.copy.segments = {CopySeg{key.rect, bounce_rect}};
    TDO_RETURN_IF_ERROR(stream_->enqueue(out));
    TDO_RETURN_IF_ERROR(sync_for_operands({bounce_rect}, {staging_rect}));
    CimStream::Command in;
    in.kind = CimStream::Command::Kind::kCopy;
    in.device = to_device;
    in.copy.dir = CopyDesc::Dir::kHostToDev;
    in.copy.segments = {CopySeg{bounce_rect, staging_rect}};
    TDO_RETURN_IF_ERROR(stream_->enqueue(in));
  }

  // Adopt: program the destination crossbar from the staging copy (the
  // functional bytes already landed — copies execute eagerly — and the
  // kProgram queues behind nothing else on the destination's engine).
  WeightKey shadow_key = key;
  shadow_key.rect = staging_rect;
  shadow_key.ld = shadow_ld;
  stream_->note_read(staging_rect, to_device);
  const auto image = make_program_image(shadow_key, row0);
  TDO_RETURN_IF_ERROR(enqueue_job(
      image, /*macs=*/0,
      static_cast<std::uint64_t>(key.rows) * key.cols, to_device,
      /*allow_cpu_fallback=*/false));

  // Re-home the cache entry. A miss here means a host write invalidated the
  // entry mid-migration: the destination crossbar then holds an unclaimed
  // stale tile and the next use of these weights simply reprograms — the
  // degradation is a wasted program, never a wrong result.
  residency_->rehome(key, from_device, to_device, row0, staging_rect,
                     shadow_ld);
  if (obs::enabled()) {
    // Host-side orchestration window of the migration (the copies and the
    // adopting kProgram trace their own spans on the dma/engine tracks).
    const sim::Tick migrate_end = system_.events().now();
    obs::Tracer::instance().span(
        "residency", "migrate_window", migrate_begin,
        migrate_end - migrate_begin,
        {{"from", static_cast<std::uint64_t>(from_device)},
         {"to", static_cast<std::uint64_t>(to_device)},
         {"bytes", bytes},
         {"p2p", peer_to_peer ? 1u : 0u}});
  }
  return support::Status::ok();
}

support::Status CimRuntime::enqueue_job(const cim::ContextRegs& image,
                                        std::uint64_t macs,
                                        std::uint64_t cim_writes, int device,
                                        bool allow_cpu_fallback) {
  CimStream::Command command;
  command.image = image;
  command.macs = macs;
  command.cim_writes = cim_writes;
  command.device = device;
  command.allow_cpu_fallback = allow_cpu_fallback;
  return stream_->enqueue(command);
}

WeightKey CimRuntime::tile_key(const Stationary& stat, std::uint64_t out0,
                               std::uint64_t red0) const {
  const std::uint64_t outs =
      std::min<std::uint64_t>(accel_.tile().cols(), stat.out - out0);
  const std::uint64_t reds =
      std::min<std::uint64_t>(accel_.tile().rows(), stat.reduce - red0);
  const Rect rect =
      stat.layout == cim::StationaryOperand::kB
          ? Rect{stat.pa + (red0 * stat.ld + out0) * kElem, stat.ld * kElem,
                 outs * kElem, reds}
          : Rect{stat.pa + (out0 * stat.ld + red0) * kElem, stat.ld * kElem,
                 reds * kElem, outs};
  return WeightKey{rect, stat.ld, stat.scale, stat.layout,
                   static_cast<std::uint32_t>(reds),
                   static_cast<std::uint32_t>(outs)};
}

template <typename StripeRect, typename TileImage>
support::Status CimRuntime::walk_stationary(const Stationary& stat, float beta,
                                            std::uint64_t streams,
                                            bool use_cache,
                                            StripeRect stripe_rect,
                                            TileImage tile_image) {
  // Each output stripe is element-disjoint, so stripes round-robin across
  // accelerators (and are tracked per device for per-stripe copy-back); the
  // reduce accumulation chain stays on one queue. A stripe whose weights are
  // resident on some accelerator lands there instead — affinity routing
  // makes the reuse request actually hit.
  const std::uint64_t max_rows = accel_.tile().rows();
  const std::uint64_t max_cols = accel_.tile().cols();
  for (std::uint64_t out0 = 0; out0 < stat.out; out0 += max_cols) {
    std::vector<WeightKey> keys;
    for (std::uint64_t red0 = 0; red0 < stat.reduce; red0 += max_rows) {
      keys.push_back(tile_key(stat, out0, red0));
    }
    const int device =
        stationary_device(use_cache ? keys : std::span<const WeightKey>{});
    stream_->note_write(stripe_rect(out0, keys.front().cols), device);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const WeightKey& key = keys[i];
      const ResidencyCache::Acquire tile = place_tile(use_cache, key, device);
      // Migrated tiles: the destination crossbar was programmed from the
      // peer-to-peer staging copy, so the job's stationary pointer must
      // reference it for the device-side validation to match.
      const bool shadow = tile.hit && tile.migrated;
      const cim::ContextRegs image = tile_image(StationaryTile{
          .out0 = out0, .outs = key.cols, .red0 = i * max_rows,
          .reds = key.rows,
          .stat_pa = shadow ? tile.shadow_base : key.rect.base,
          .stat_ld = shadow ? tile.shadow_ld : stat.ld,
          .beta = i == 0 ? beta : 1.0f, .skip = tile.hit, .row0 = tile.row0});
      const std::uint64_t writes = std::uint64_t{key.rows} * key.cols;
      TDO_RETURN_IF_ERROR(enqueue_job(image, streams * writes,
                                      tile.hit ? 0 : writes, device,
                                      /*allow_cpu_fallback=*/i == 0));
    }
    if (use_cache) prefetch_predicted(keys.back(), device);
  }
  return support::Status::ok();
}

support::Status CimRuntime::sgemm_async(std::uint64_t m, std::uint64_t n,
                                        std::uint64_t k, float alpha,
                                        sim::VirtAddr a, std::uint64_t lda,
                                        sim::VirtAddr b, std::uint64_t ldb,
                                        float beta, sim::VirtAddr c,
                                        std::uint64_t ldc,
                                        cim::StationaryOperand stationary,
                                        bool cacheable) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (m == 0 || n == 0 || k == 0) {
    return support::invalid_argument("zero GEMM dimension");
  }

  const std::uint64_t a_bytes = ((m - 1) * lda + k) * kElem;
  const std::uint64_t b_bytes = ((k - 1) * ldb + n) * kElem;
  const std::uint64_t c_bytes = ((m - 1) * ldc + n) * kElem;
  const auto pa_a = translate_checked(a, a_bytes);
  if (!pa_a.is_ok()) return pa_a.status();
  const auto pa_b = translate_checked(b, b_bytes);
  if (!pa_b.is_ok()) return pa_b.status();
  const auto pa_c = translate_checked(c, c_bytes);
  if (!pa_c.is_ok()) return pa_c.status();

  // Exact operand footprints: {base, pitch, width, rows} rectangles rather
  // than flat byte ranges, so the disjoint column stripes of different calls
  // never force a hazard synchronization.
  const Rect rect_a{*pa_a, lda * kElem, k * kElem, m};
  const Rect rect_b{*pa_b, ldb * kElem, n * kElem, k};
  const Rect rect_c{*pa_c, ldc * kElem, n * kElem, m};

  // Hazard ordering against in-flight commands from earlier calls.
  TDO_RETURN_IF_ERROR(sync_for_operands({rect_a, rect_b}, {rect_c}));

  auto max_a = operand_max_abs(a, m, k, lda);
  if (!max_a.is_ok()) return max_a.status();
  auto max_b = operand_max_abs(b, k, n, ldb);
  if (!max_b.is_ok()) return max_b.status();

  invalidate_scales(c, c_bytes);
  // The kernel's C output is a host-visible write like any other: a cached
  // stationary tile backed by memory this call overwrites must die.
  residency_->invalidate_overlapping(rect_c);
  stream_->note_read(rect_a);
  stream_->note_read(rect_b);
  const bool use_cache = cacheable && residency_->enabled();
  const double q_a = support::QuantScale::for_max_abs(*max_a).scale;
  const double q_b = support::QuantScale::for_max_abs(*max_b).scale;

  if (stationary == cim::StationaryOperand::kB) {
    // Pseudo-asynchronous split (DTO's DTO_CPU_SIZE_FRACTION): peel the
    // last rows of the M dimension off onto the host worker pool, which
    // runs them concurrently with the accelerators' stripes; the two halves
    // join at the next synchronization point. Row-splitting C keeps both
    // halves element-disjoint, so the only ordering needed is the join.
    std::uint64_t m_dev = m;
    if (config_.split.enabled && pool_->enabled() &&
        config_.split.cpu_fraction > 0.0 && m >= 2 &&
        m * n * k >= config_.split.min_macs) {
      const double fraction = std::clamp(config_.split.cpu_fraction, 0.0,
                                         config_.split.max_fraction);
      const std::uint64_t m_host = std::min<std::uint64_t>(
          m - 1,
          static_cast<std::uint64_t>(static_cast<double>(m) * fraction + 0.5));
      if (m_host >= 1) {
        HostStripeJob job;
        job.m = m_host;
        job.n = n;
        job.k = k;
        job.lda = lda;
        job.ldb = ldb;
        job.ldc = ldc;
        job.pa_a = *pa_a + (m - m_host) * lda * kElem;
        job.pa_b = *pa_b;
        job.pa_c = *pa_c + (m - m_host) * ldc * kElem;
        job.alpha = alpha;
        job.beta = beta;
        const HostPoolTicket ticket = pool_->submit(job);
        if (ticket.accepted) {
          m_dev = m - m_host;
          // The stripe read A/B eagerly, so it leaves no deferred-read
          // hazard; its C rows stay tracked until the join so later
          // consumers order behind the pool.
          stream_->note_write(
              Rect{job.pa_c, ldc * kElem, n * kElem, m_host},
              stream_->host_pool_device_id());
        }
      }
    }

    // Stationary B tiles (k x n); stream rows of A; C column stripes.
    return walk_stationary(
        Stationary{*pa_b, ldb, q_b, stationary, n, k}, beta, m_dev, use_cache,
        [&](std::uint64_t out0, std::uint64_t outs) {
          return Rect{*pa_c + out0 * kElem, ldc * kElem, outs * kElem, m_dev};
        },
        [&](const StationaryTile& t) {
          return make_job_image(m_dev, t.outs, t.reds, alpha, t.beta,
                                *pa_a + t.red0 * kElem, lda, t.stat_pa,
                                t.stat_ld, *pa_c + t.out0 * kElem, ldc, *max_a,
                                *max_b, stationary, t.skip, t.row0);
        });
  }

  // Stationary A^T tiles (k x m); stream columns of B; C row stripes.
  return walk_stationary(
      Stationary{*pa_a, lda, q_a, stationary, m, k}, beta, n, use_cache,
      [&](std::uint64_t out0, std::uint64_t outs) {
        return Rect{*pa_c + out0 * ldc * kElem, ldc * kElem, n * kElem, outs};
      },
      [&](const StationaryTile& t) {
        return make_job_image(t.outs, n, t.reds, alpha, t.beta, t.stat_pa,
                              t.stat_ld, *pa_b + t.red0 * ldb * kElem, ldb,
                              *pa_c + t.out0 * ldc * kElem, ldc, *max_a,
                              *max_b, stationary, t.skip, t.row0);
      });
}

support::Status CimRuntime::sgemv_async(bool transpose, std::uint64_t m,
                                        std::uint64_t n, float alpha,
                                        sim::VirtAddr a, std::uint64_t lda,
                                        sim::VirtAddr x, float beta,
                                        sim::VirtAddr y, bool cacheable) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (m == 0 || n == 0) return support::invalid_argument("zero GEMV dimension");

  const std::uint64_t xlen = transpose ? m : n;
  const std::uint64_t ylen = transpose ? n : m;
  const std::uint64_t a_bytes = ((m - 1) * lda + n) * kElem;
  const auto pa_a = translate_checked(a, a_bytes);
  if (!pa_a.is_ok()) return pa_a.status();
  const auto pa_x = translate_checked(x, xlen * kElem);
  if (!pa_x.is_ok()) return pa_x.status();
  const auto pa_y = translate_checked(y, ylen * kElem);
  if (!pa_y.is_ok()) return pa_y.status();

  const Rect rect_a{*pa_a, lda * kElem, n * kElem, m};
  const Rect rect_x = Rect::linear(*pa_x, xlen * kElem);
  const Rect rect_y = Rect::linear(*pa_y, ylen * kElem);
  TDO_RETURN_IF_ERROR(sync_for_operands({rect_a, rect_x}, {rect_y}));

  auto max_a = operand_max_abs(a, m, n, lda);
  if (!max_a.is_ok()) return max_a.status();
  auto max_x = operand_max_abs(x, 1, xlen, xlen);
  if (!max_x.is_ok()) return max_x.status();

  invalidate_scales(y, ylen * kElem);
  residency_->invalidate_overlapping(rect_y);
  stream_->note_read(rect_a);
  stream_->note_read(rect_x);
  const bool use_cache = cacheable && residency_->enabled();
  const double q_a = support::QuantScale::for_max_abs(*max_a).scale;
  const auto y_slice = [&](std::uint64_t out0, std::uint64_t outs) {
    return Rect::linear(*pa_y + out0 * kElem, outs * kElem);
  };

  if (!transpose) {
    // y[m] = alpha*A*x + beta*y. Stationary A^T (reduce n, out m).
    return walk_stationary(
        Stationary{*pa_a, lda, q_a, cim::StationaryOperand::kA, m, n}, beta,
        1, use_cache, y_slice, [&](const StationaryTile& t) {
          return make_job_image(t.outs, 1, t.reds, alpha, t.beta, t.stat_pa,
                                t.stat_ld, *pa_x + t.red0 * kElem, 1,
                                *pa_y + t.out0 * kElem, 1, *max_a, *max_x,
                                cim::StationaryOperand::kA, t.skip, t.row0);
        });
  }

  // y[n] = alpha*A^T*x + beta*y. A itself is the natural stationary layout:
  // crossbar rows = rows of A (reduce m), columns = columns of A (out n).
  // One streamed "row of A" = x^T; output row = y^T.
  return walk_stationary(
      Stationary{*pa_a, lda, q_a, cim::StationaryOperand::kB, n, m}, beta, 1,
      use_cache, y_slice, [&](const StationaryTile& t) {
        return make_job_image(1, t.outs, t.reds, alpha, t.beta,
                              *pa_x + t.red0 * kElem, t.reds, t.stat_pa,
                              t.stat_ld, *pa_y + t.out0 * kElem, t.outs,
                              *max_x, *max_a, cim::StationaryOperand::kB,
                              t.skip, t.row0);
      });
}

std::optional<int> CimRuntime::weight_affinity(std::uint64_t m, std::uint64_t n,
                                               std::uint64_t k,
                                               sim::VirtAddr stat,
                                               std::uint64_t ld_stat,
                                               cim::StationaryOperand stationary) {
  if (!initialized_ || !residency_->enabled()) return std::nullopt;
  if (m == 0 || n == 0 || k == 0) return std::nullopt;
  const bool stationary_b = stationary == cim::StationaryOperand::kB;
  // Stationary B: a k x n operand; stationary A: m x k (the dispatch path
  // keys tiles of A^T with A's row-major footprint).
  const std::uint64_t stat_rows = stationary_b ? k : m;
  const std::uint64_t stat_cols = stationary_b ? n : k;
  const std::uint64_t bytes = ((stat_rows - 1) * ld_stat + stat_cols) * kElem;
  const auto pa = translate_checked(stat, bytes);
  if (!pa.is_ok()) return std::nullopt;
  auto max_stat = operand_max_abs(stat, stat_rows, stat_cols, ld_stat);
  if (!max_stat.is_ok()) return std::nullopt;
  const Stationary tiles{*pa, ld_stat,
                         support::QuantScale::for_max_abs(*max_stat).scale,
                         stationary, stationary_b ? n : m, k};

  for (std::uint64_t out0 = 0; out0 < tiles.out;
       out0 += accel_.tile().cols()) {
    for (std::uint64_t red0 = 0; red0 < tiles.reduce;
         red0 += accel_.tile().rows()) {
      if (const auto resident = residency_->peek(tile_key(tiles, out0, red0))) {
        return resident->device;
      }
    }
  }
  return std::nullopt;
}

support::Status CimRuntime::sgemm_batched_async(
    std::uint64_t m, std::uint64_t n, std::uint64_t k, float alpha,
    std::span<const GemmBatchItem> items, std::uint64_t lda, std::uint64_t ldb,
    float beta, std::uint64_t ldc, cim::StationaryOperand stationary,
    bool cacheable, int device) {
  if (!initialized_) {
    return support::failed_precondition("polly_cimInit must be called first");
  }
  if (items.empty()) return support::invalid_argument("empty batch");

  const bool stationary_b = stationary == cim::StationaryOperand::kB;
  const std::uint64_t tile_rows = k;
  const std::uint64_t tile_cols = stationary_b ? n : m;
  if (tile_rows > accel_.tile().rows() || tile_cols > accel_.tile().cols()) {
    // Graceful fallback: oversized batched operands run as individual tiled
    // GEMMs (loses the shared-input endurance benefit, which is exactly why
    // the compiler tiles *before* batching).
    TDO_LOG(kWarn, "cim.rt") << "batched GEMM exceeds crossbar, falling back";
    for (const GemmBatchItem& item : items) {
      TDO_RETURN_IF_ERROR(sgemm_async(m, n, k, alpha, item.a, lda, item.b, ldb,
                                      beta, item.c, ldc, stationary,
                                      cacheable));
    }
    return support::Status::ok();
  }
  // Cross-call residency applies when the whole batch shares one stationary
  // operand (the conv/T lowering and shared-input fusion groups do).
  bool shared_stationary = true;
  for (const GemmBatchItem& item : items) {
    const sim::VirtAddr stat = stationary_b ? item.b : item.a;
    const sim::VirtAddr first = stationary_b ? items[0].b : items[0].a;
    shared_stationary = shared_stationary && stat == first;
  }
  const bool use_cache =
      cacheable && shared_stationary && residency_->enabled();

  // Translate every operand once, order against in-flight producers from
  // earlier calls, then register this call's ranges.
  const std::uint64_t a_bytes = ((m - 1) * lda + k) * kElem;
  const std::uint64_t b_bytes = ((k - 1) * ldb + n) * kElem;
  const std::uint64_t c_bytes = ((m - 1) * ldc + n) * kElem;
  struct ItemAddrs {
    sim::PhysAddr a = 0, b = 0, c = 0;
  };
  std::vector<ItemAddrs> addrs(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto pa_a = translate_checked(items[i].a, a_bytes);
    if (!pa_a.is_ok()) return pa_a.status();
    const auto pa_b = translate_checked(items[i].b, b_bytes);
    if (!pa_b.is_ok()) return pa_b.status();
    const auto pa_c = translate_checked(items[i].c, c_bytes);
    if (!pa_c.is_ok()) return pa_c.status();
    addrs[i] = ItemAddrs{*pa_a, *pa_b, *pa_c};
    TDO_RETURN_IF_ERROR(
        sync_for_operands({Rect{*pa_a, lda * kElem, k * kElem, m},
                           Rect{*pa_b, ldb * kElem, n * kElem, k}},
                          {Rect{*pa_c, ldc * kElem, n * kElem, m}}));
  }
  // Round-robin the batch across accelerator instances in contiguous chunks
  // (items of one batched call are independent by construction — the fusion
  // pass only groups reorderable kernels). Chunks preserve stationary reuse.
  // A caller-pinned device (serving scheduler placement) keeps the batch
  // whole on that accelerator.
  auto& mem = system_.memory();
  auto& cpu = system_.cpu();
  const std::uint64_t devices = stream_->device_count();
  const std::uint64_t chunks =
      device >= 0 ? 1 : std::min<std::uint64_t>(devices, items.size());
  const std::uint64_t per_chunk = (items.size() + chunks - 1) / chunks;

  // The shared stationary tile's identity (for the residency cache); the
  // whole operand fits the crossbar, so it is the walk's first tile.
  auto max_stat = operand_max_abs(stationary_b ? items[0].b : items[0].a,
                                  stationary_b ? k : m,
                                  stationary_b ? n : k,
                                  stationary_b ? ldb : lda);
  if (!max_stat.is_ok()) return max_stat.status();
  const WeightKey key = tile_key(
      Stationary{stationary_b ? addrs[0].b : addrs[0].a,
                 stationary_b ? ldb : lda,
                 support::QuantScale::for_max_abs(*max_stat).scale, stationary,
                 tile_cols, tile_rows},
      0, 0);

  // Chunk device pre-draw: a single-chunk batch whose weights are resident
  // somewhere lands there (affinity); a split batch keeps the round-robin
  // spread and caches the tile per device instead.
  std::vector<int> chunk_devices(chunks, -1);
  if (device >= 0) {
    chunk_devices[0] =
        static_cast<int>(static_cast<std::size_t>(device) % devices);
  } else if (use_cache && chunks == 1) {
    if (const auto resident = residency_->peek(key)) {
      chunk_devices[0] = resident->device;
    }
  }
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    if (chunk_devices[chunk] < 0) {
      const int placed = topo_place();
      chunk_devices[chunk] =
          placed >= 0 ? placed : static_cast<int>(stream_->next_device());
    }
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    const int device = chunk_devices[std::min<std::uint64_t>(
        i / per_chunk, chunks - 1)];
    invalidate_scales(items[i].c, c_bytes);
    residency_->invalidate_overlapping(Rect{addrs[i].c, ldc * kElem,
                                            n * kElem, m});
    stream_->note_read(Rect{addrs[i].a, lda * kElem, k * kElem, m}, device);
    stream_->note_read(Rect{addrs[i].b, ldb * kElem, n * kElem, k}, device);
    stream_->note_write(Rect{addrs[i].c, ldc * kElem, n * kElem, m}, device);
  }

  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const std::uint64_t begin = chunk * per_chunk;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + per_chunk, items.size());
    if (begin >= end) break;
    const std::span<const GemmBatchItem> slice = items.subspan(begin, end - begin);

    // Build the chunk's batch table in a device staging buffer (host stores,
    // charged). The buffer stays alive until synchronize().
    auto staging = driver_->alloc_buffer(slice.size() * sizeof(cim::BatchEntry));
    if (!staging.is_ok()) return staging.status();
    staging_.push_back(*staging);
    std::uint64_t offset = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const GemmBatchItem& item = items[i];
      auto max_a = operand_max_abs(item.a, m, k, lda);
      if (!max_a.is_ok()) return max_a.status();
      auto max_b = operand_max_abs(item.b, k, n, ldb);
      if (!max_b.is_ok()) return max_b.status();

      cim::BatchEntry entry;
      entry.pa_a = addrs[i].a;
      entry.pa_b = addrs[i].b;
      entry.pa_c = addrs[i].c;
      entry.scale_a = support::QuantScale::for_max_abs(*max_a).scale;
      entry.scale_b = support::QuantScale::for_max_abs(*max_b).scale;
      mem.write(staging->pa + offset,
                std::span(reinterpret_cast<const std::uint8_t*>(&entry),
                          sizeof entry));
      for (std::uint64_t w = 0; w < sizeof entry; w += 8) {
        cpu.store(staging->pa + offset + w, 8);
      }
      offset += sizeof entry;
    }

    const int device = chunk_devices[chunk];
    const ResidencyCache::Acquire tile = place_tile(use_cache, key, device);
    cim::ContextRegs image = make_job_image(
        m, n, k, alpha, beta, 0, lda, 0, ldb, 0, ldc,
        /*scale_a=*/1.0, /*scale_b=*/1.0, stationary, tile.hit, tile.row0);
    // Batched jobs carry per-entry pointers/scales; the image's scale fields
    // are placeholders that decode() requires to be positive.
    image.write(cim::Reg::kOpcode,
                static_cast<std::uint64_t>(cim::Opcode::kGemmBatched));
    image.write(cim::Reg::kBatchCount, slice.size());
    image.write(cim::Reg::kBatchTable, staging->pa);
    // The batch shares the stationary tile; only the first item programs it
    // (none do when the residency cache validated a resident tile).
    TDO_RETURN_IF_ERROR(enqueue_job(
        image, slice.size() * m * n * k,
        tile.hit ? 0 : tile_rows * tile_cols, device,
        /*allow_cpu_fallback=*/false));
  }
  if (use_cache) prefetch_predicted(key, chunk_devices[0]);
  return support::Status::ok();
}

}  // namespace tdo::rt
