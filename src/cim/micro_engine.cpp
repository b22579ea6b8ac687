#include "cim/micro_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "support/fixed_point.hpp"
#include "support/log.hpp"

namespace tdo::cim {

namespace {

using support::Duration;
using support::QuantScale;

/// Quantizes a float vector with a fixed scale into int8.
void quantize_into(std::span<const float> values, double scale,
                   std::vector<std::int8_t>& out) {
  const QuantScale q{scale};
  out.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = q.quantize(values[i]);
  }
}

}  // namespace

support::StatusOr<MicroEngine::GemmJob> MicroEngine::decode(
    const ContextRegs& regs) const {
  GemmJob job;
  job.m = regs.read(Reg::kM);
  job.n = regs.read(Reg::kN);
  job.k = regs.read(Reg::kK);
  job.pa_a = regs.read(Reg::kPaA);
  job.pa_b = regs.read(Reg::kPaB);
  job.pa_c = regs.read(Reg::kPaC);
  job.lda = regs.read(Reg::kLda);
  job.ldb = regs.read(Reg::kLdb);
  job.ldc = regs.read(Reg::kLdc);
  job.alpha = regs.read_f32(Reg::kAlpha);
  job.beta = regs.read_f32(Reg::kBeta);
  job.scale_a = regs.read_f64(Reg::kScaleA);
  job.scale_b = regs.read_f64(Reg::kScaleB);
  job.stationary = static_cast<StationaryOperand>(regs.read(Reg::kStationary));
  const std::uint64_t flags = regs.read(Reg::kFlags);
  job.double_buffering = (flags & JobFlags::kDoubleBuffering) != 0;
  job.skip_weight_load = (flags & JobFlags::kSkipWeightLoad) != 0;
  job.tile_row0 = static_cast<std::uint32_t>(regs.read(Reg::kTileRow));

  if (job.m == 0 || job.n == 0 || job.k == 0) {
    return support::invalid_argument("zero GEMM dimension");
  }
  if (job.lda < job.k || job.ldb < job.n || job.ldc < job.n) {
    return support::invalid_argument("leading dimension smaller than row length");
  }
  if (job.scale_a <= 0.0 || job.scale_b <= 0.0) {
    return support::invalid_argument("non-positive quantization scale");
  }
  return job;
}

void MicroEngine::invalidate_rows(std::uint32_t row0, std::uint64_t rows) {
  for (auto it = programmed_.begin(); it != programmed_.end();) {
    const std::uint64_t lo = it->first;
    const std::uint64_t hi = lo + it->second.rows;
    const bool overlap = lo < row0 + rows && row0 < hi;
    it = overlap ? programmed_.erase(it) : std::next(it);
  }
}

MicroEngine::WeightPhase MicroEngine::load_weights(const GemmJob& job) {
  const bool stationary_b = job.stationary == StationaryOperand::kB;
  const std::uint64_t tile_rows = job.k;
  const std::uint64_t tile_cols = stationary_b ? job.n : job.m;
  const double scale = stationary_b ? job.scale_b : job.scale_a;

  // Reuse check: within a batched job the compiler-fused "smart mapping"
  // shares the stationary operand (Section III-B "we exploit this by writing
  // only A in the crossbar"); across jobs the runtime's weight-residency
  // cache requests reuse of a tile it believes resident at this row window.
  // Either way the engine validates against its own records, so a stale or
  // wrong request degrades into a reprogram, never into wrong results.
  const std::uint64_t pa = stationary_b ? job.pa_b : job.pa_a;
  const std::uint64_t ld = stationary_b ? job.ldb : job.lda;
  if (job.skip_weight_load) {
    const ProgrammedTile* resident = programmed_tile(job.tile_row0);
    if (resident != nullptr && resident->pa == pa && resident->scale == scale &&
        resident->rows == tile_rows && resident->cols == tile_cols &&
        resident->layout == job.stationary && resident->ld == ld) {
      weight_writes_saved8_.add(tile_rows * tile_cols);
      return WeightPhase{};
    }
  }
  invalidate_rows(job.tile_row0, tile_rows);

  std::vector<float> row_f(tile_cols);
  std::vector<std::int8_t> row_q;
  Duration fill_done = Duration::zero();
  Duration prog_done = Duration::zero();
  Duration dma_total = Duration::zero();

  for (std::uint64_t r = 0; r < tile_rows; ++r) {
    Duration dma_time;
    auto bytes = std::as_writable_bytes(std::span<float>(row_f));
    auto u8 = std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(bytes.data()),
                                      bytes.size());
    if (stationary_b) {
      // Row r of B is contiguous: B[r][0..n).
      dma_time = dma_.read_block(job.pa_b + r * job.ldb * 4, u8);
    } else {
      // Row r of A^T is column r of A: stride lda floats.
      dma_time = dma_.read_strided(job.pa_a + r * 4, job.lda * 4, 4,
                                   static_cast<std::uint32_t>(tile_cols), u8);
    }
    quantize_into(row_f, scale, row_q);
    (void)tile_.program_row(job.tile_row0 + static_cast<std::uint32_t>(r), row_q);

    dma_total = dma_total + dma_time;
    const Duration program_latency = model_.write_latency(1);
    if (job.double_buffering) {
      // DMA fill of row r+1 overlaps programming of row r.
      fill_done = fill_done + dma_time;
      prog_done = std::max(prog_done, fill_done) + program_latency;
    } else {
      prog_done = prog_done + dma_time + program_latency;
    }
  }

  programmed_[job.tile_row0] =
      ProgrammedTile{pa, scale, tile_rows, tile_cols, job.stationary, ld};
  return WeightPhase{prog_done, dma_total, tile_rows * tile_cols * 4};
}

MicroEngine::StreamPhase MicroEngine::stream_vectors(const GemmJob& job) {
  const bool stationary_b = job.stationary == StationaryOperand::kB;
  // Streamed vectors: rows of A (stationary B) or columns of B (stationary A).
  const std::uint64_t vectors = stationary_b ? job.m : job.n;
  const std::uint64_t reduce = job.k;                      // active crossbar rows
  const std::uint64_t out_len = stationary_b ? job.n : job.m;  // active columns
  const double in_scale = stationary_b ? job.scale_a : job.scale_b;
  const double out_scale = job.scale_a * job.scale_b;

  std::vector<float> in_f(reduce);
  std::vector<float> c_old(out_len, 0.0f);
  std::vector<float> c_new(out_len);
  std::vector<std::int8_t> in_q;
  std::vector<std::int32_t> acc(out_len);

  Duration fill_done = Duration::zero();
  Duration compute_done = Duration::zero();
  Duration store_done = Duration::zero();
  Duration dma_total = Duration::zero();
  const Duration compute_latency = model_.compute_latency(1);

  for (std::uint64_t v = 0; v < vectors; ++v) {
    // --- fill row buffer (and old C when beta != 0) ---
    Duration in_time;
    {
      auto bytes = std::as_writable_bytes(std::span<float>(in_f));
      auto u8 = std::span<std::uint8_t>(
          reinterpret_cast<std::uint8_t*>(bytes.data()), bytes.size());
      if (stationary_b) {
        in_time = dma_.read_block(job.pa_a + v * job.lda * 4, u8);
      } else {
        in_time = dma_.read_strided(job.pa_b + v * 4, job.ldb * 4, 4,
                                    static_cast<std::uint32_t>(reduce), u8);
      }
    }
    if (job.beta != 0.0f) {
      auto bytes = std::as_writable_bytes(std::span<float>(c_old));
      auto u8 = std::span<std::uint8_t>(
          reinterpret_cast<std::uint8_t*>(bytes.data()), bytes.size());
      if (stationary_b) {
        in_time += dma_.read_block(job.pa_c + v * job.ldc * 4, u8);
      } else {
        in_time += dma_.read_strided(job.pa_c + v * 4, job.ldc * 4, 4,
                                     static_cast<std::uint32_t>(out_len), u8);
      }
    }

    // --- compute ---
    quantize_into(in_f, in_scale, in_q);
    tile_.gemv(in_q, static_cast<std::uint32_t>(reduce), job.tile_row0, acc);
    tile_.postprocess(acc, out_scale, job.alpha, job.beta, c_old, c_new);

    // --- store result from output buffers ---
    Duration out_time;
    {
      auto bytes = std::as_bytes(std::span<const float>(c_new));
      auto u8 = std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
      if (stationary_b) {
        out_time = dma_.write_block(job.pa_c + v * job.ldc * 4, u8);
      } else {
        out_time = dma_.write_strided(job.pa_c + v * 4, job.ldc * 4, 4,
                                      static_cast<std::uint32_t>(out_len), u8);
      }
    }

    dma_total = dma_total + in_time + out_time;
    if (job.double_buffering) {
      // Classic three-stage pipeline (Fig. 2d): fills run ahead, computes
      // chain on fills, stores chain on computes.
      fill_done = fill_done + in_time;
      compute_done = std::max(compute_done, fill_done) + compute_latency;
      store_done = compute_done + out_time;
    } else {
      store_done = store_done + in_time + compute_latency + out_time;
      fill_done = store_done;
      compute_done = store_done;
    }
  }
  return StreamPhase{store_done, dma_total};
}

support::StatusOr<MicroEngine::PhaseTimes> MicroEngine::run_gemm(
    const GemmJob& job) {
  const bool stationary_b = job.stationary == StationaryOperand::kB;
  const std::uint64_t tile_rows = job.k;
  const std::uint64_t tile_cols = stationary_b ? job.n : job.m;
  if (job.tile_row0 + tile_rows > tile_.rows() || tile_cols > tile_.cols()) {
    return support::invalid_argument(
        "operand tile exceeds crossbar geometry; the caller must tile");
  }
  PhaseTimes times;
  const WeightPhase weights = load_weights(job);
  times.weights = weights.total;
  times.weight_dma = weights.dma;
  times.weight_dma_bytes = weights.dma_bytes;
  const StreamPhase stream = stream_vectors(job);
  times.stream = stream.total;
  times.stream_dma = stream.dma;
  return times;
}

support::Duration MicroEngine::estimate_prefetch_dma(
    const ContextRegs& image) const {
  const Opcode op = static_cast<Opcode>(image.read(Reg::kOpcode));
  if (op != Opcode::kGemm && op != Opcode::kGemv &&
      op != Opcode::kGemmBatched && op != Opcode::kProgram) {
    return Duration::zero();
  }
  auto job = decode(image);
  if (!job.is_ok()) return Duration::zero();
  if (!job->double_buffering) return Duration::zero();

  const bool stationary_b = job->stationary == StationaryOperand::kB;
  const std::uint64_t tile_rows = job->k;
  const std::uint64_t tile_cols = stationary_b ? job->n : job->m;
  // A reuse request the engine expects to validate skips the weight DMA
  // entirely. Batched jobs carry per-entry pointers the estimate cannot see,
  // so only the explicit skip flag (residency-validated) counts for them.
  if (job->skip_weight_load) {
    if (op == Opcode::kGemmBatched) return Duration::zero();
    const double scale = stationary_b ? job->scale_b : job->scale_a;
    const std::uint64_t pa = stationary_b ? job->pa_b : job->pa_a;
    const std::uint64_t ld = stationary_b ? job->ldb : job->lda;
    const ProgrammedTile* resident = programmed_tile(job->tile_row0);
    if (resident != nullptr && resident->pa == pa && resident->scale == scale &&
        resident->rows == tile_rows && resident->cols == tile_cols &&
        resident->layout == job->stationary && resident->ld == ld) {
      return Duration::zero();
    }
  }
  const Duration per_row = stationary_b
                               ? dma_.estimate_block(tile_cols * 4)
                               : dma_.estimate_strided(tile_cols * 4);
  return per_row * static_cast<double>(tile_rows);
}

support::Duration MicroEngine::estimate_stream_dma(
    const ContextRegs& image) const {
  const Opcode op = static_cast<Opcode>(image.read(Reg::kOpcode));
  if (op != Opcode::kGemm && op != Opcode::kGemv && op != Opcode::kGemmBatched) {
    return Duration::zero();
  }
  auto job = decode(image);
  if (!job.is_ok()) return Duration::zero();

  // Mirror stream_vectors' per-vector traffic: one input fill, one old-C
  // read when beta != 0, one result store. Stationary-B streams rows
  // (contiguous bursts); stationary-A streams columns (strided bursts).
  const bool stationary_b = job->stationary == StationaryOperand::kB;
  const std::uint64_t vectors = stationary_b ? job->m : job->n;
  const std::uint64_t reduce = job->k;
  const std::uint64_t out_len = stationary_b ? job->n : job->m;
  const auto burst = [&](std::uint64_t bytes) {
    return stationary_b ? dma_.estimate_block(bytes)
                        : dma_.estimate_strided(bytes);
  };
  Duration per_vector = burst(reduce * 4) + burst(out_len * 4);
  if (job->beta != 0.0f) per_vector = per_vector + burst(out_len * 4);
  Duration total = per_vector * static_cast<double>(vectors);
  if (op == Opcode::kGemmBatched) {
    const std::uint64_t count =
        std::max<std::uint64_t>(image.read(Reg::kBatchCount), 1);
    total = total * static_cast<double>(count);
  }
  return total;
}

JobTimeline MicroEngine::launch(ContextRegs& regs,
                                support::Duration prefetch_credit) {
  JobTimeline timeline;
  timeline.trigger = events_.now();

  const TileStats before = tile_.stats();
  const std::uint64_t bursts_before = dma_.bursts();

  auto fail = [&](const support::Status& status) {
    TDO_LOG(kWarn, "cim.engine") << "job failed: " << status.to_string();
    const sim::Tick when = events_.now() + params_.job_setup.ticks();
    timeline.weights_programmed = when;
    timeline.done = when;
    events_.schedule_at(when, "cim.job_error", [&regs, status] {
      regs.set_status(DeviceStatus::kError);
      regs.write(Reg::kResult, static_cast<std::uint64_t>(status.code()));
    });
    return timeline;
  };

  const Opcode op = static_cast<Opcode>(regs.read(Reg::kOpcode));
  Duration weight_phase = params_.job_setup;
  Duration total = params_.job_setup;
  // Weight-DMA share of the first weight phase; what a chained job may have
  // prefetched while the previous job was still streaming.
  Duration prefetchable = Duration::zero();
  std::uint64_t prefetchable_bytes = 0;
  bool allow_prefetch = false;
  // DMA-channel occupancy of the job body after the first weight phase
  // (vector fills, result stores, later batch entries' weight loads) — the
  // busy window stream copies must serialize around.
  Duration body_dma = Duration::zero();

  switch (op) {
    case Opcode::kGemv:
    case Opcode::kGemm: {
      auto job = decode(regs);
      if (!job.is_ok()) return fail(job.status());
      // Residency survives across jobs: a fresh job simply reprograms its
      // own row window (load_weights retires any tiles it overwrites), so
      // tiles in disjoint windows stay valid for later reuse requests.
      auto phases = run_gemm(*job);
      if (!phases.is_ok()) return fail(phases.status());
      weight_phase += phases->weights;
      total = weight_phase + phases->stream;
      prefetchable = phases->weight_dma;
      prefetchable_bytes = phases->weight_dma_bytes;
      allow_prefetch = job->double_buffering;
      body_dma = phases->stream_dma;
      break;
    }
    case Opcode::kGemmBatched: {
      auto base = decode(regs);
      if (!base.is_ok()) return fail(base.status());
      const std::uint64_t count = regs.read(Reg::kBatchCount);
      if (count == 0) return fail(support::invalid_argument("empty batch"));
      // Fetch the batch table from shared memory.
      std::vector<BatchEntry> entries(count);
      auto bytes = std::as_writable_bytes(std::span<BatchEntry>(entries));
      auto u8 = std::span<std::uint8_t>(
          reinterpret_cast<std::uint8_t*>(bytes.data()), bytes.size());
      total += dma_.read_block(regs.read(Reg::kBatchTable), u8);

      // Without a residency-validated reuse request the batch cannot assume
      // its row window still holds the shared tile from an earlier call.
      if (!base->skip_weight_load) invalidate_rows(base->tile_row0, base->k);
      bool first_weights_done = false;
      for (const BatchEntry& entry : entries) {
        GemmJob job = *base;
        job.pa_a = entry.pa_a;
        job.pa_b = entry.pa_b;
        job.pa_c = entry.pa_c;
        job.scale_a = entry.scale_a;
        job.scale_b = entry.scale_b;
        // Shared-input exploitation: allow reuse when the stationary operand
        // matches what is already programmed.
        job.skip_weight_load = true;
        auto phases = run_gemm(job);
        if (!phases.is_ok()) return fail(phases.status());
        total += phases->weights + phases->stream;
        body_dma = body_dma + phases->stream_dma;
        if (!first_weights_done) {
          weight_phase += phases->weights;
          prefetchable = phases->weight_dma;
          prefetchable_bytes = phases->weight_dma_bytes;
          allow_prefetch = base->double_buffering;
          first_weights_done = true;
        } else {
          body_dma = body_dma + phases->weight_dma;
        }
      }
      break;
    }
    case Opcode::kProgram: {
      // Program-only job: loads the stationary tile into its crossbar row
      // window and completes without a stream phase. Carries the runtime's
      // prefetch-on-miss programming (hidden under the previous job's stream
      // phase via the normal chained-prefetch credit) and the adoption step
      // of peer-to-peer residency migration.
      auto job = decode(regs);
      if (!job.is_ok()) return fail(job.status());
      const bool stationary_b = job->stationary == StationaryOperand::kB;
      const std::uint64_t tile_rows = job->k;
      const std::uint64_t tile_cols = stationary_b ? job->n : job->m;
      if (job->tile_row0 + tile_rows > tile_.rows() ||
          tile_cols > tile_.cols()) {
        return fail(support::invalid_argument(
            "operand tile exceeds crossbar geometry; the caller must tile"));
      }
      const WeightPhase weights = load_weights(*job);
      weight_phase += weights.total;
      total = weight_phase;
      prefetchable = weights.dma;
      prefetchable_bytes = weights.dma_bytes;
      allow_prefetch = job->double_buffering;
      break;
    }
    case Opcode::kCopy:
      // Copies never reach the micro-engine; the accelerator routes them to
      // the DMA channel before launch (Accelerator::start_copy).
      return fail(support::unimplemented("copy jobs execute on the DMA channel"));
    case Opcode::kNop:
      break;
  }

  // Stream-level double buffering: a chained job's initial weight DMA ran
  // while the previous job streamed, so that share of the weight phase is
  // already paid for.
  Duration overlap = Duration::zero();
  if (allow_prefetch && prefetch_credit > Duration::zero() &&
      prefetchable > Duration::zero()) {
    overlap = std::min(prefetch_credit, prefetchable);
    weight_phase = weight_phase - overlap;
    total = total - overlap;
    const double fraction = overlap.picoseconds() / prefetchable.picoseconds();
    dma_.note_prefetch(static_cast<std::uint64_t>(
        fraction * static_cast<double>(prefetchable_bytes)));
  }
  timeline.overlap = overlap.ticks();

  // Charge energy from the tile/DMA activity deltas of this job. The same
  // deltas ride the timeline so the trace span carries the charged counts.
  const TileStats after = tile_.stats();
  const std::uint64_t bursts = dma_.bursts() - bursts_before;
  timeline.weight_writes8 = after.weight_writes8 - before.weight_writes8;
  timeline.mac8_ops = after.mac8_ops - before.mac8_ops;
  timeline.gemv_ops = after.gemv_ops - before.gemv_ops;
  timeline.extra_alu_ops = after.extra_alu_ops - before.extra_alu_ops;
  timeline.buffer_byte_accesses =
      after.buffer_byte_accesses - before.buffer_byte_accesses;
  timeline.dma_bursts = bursts;
  if (sinks_.write != nullptr) {
    sinks_.write->add(model_.write_energy(after.weight_writes8 - before.weight_writes8));
  }
  if (sinks_.compute != nullptr) {
    sinks_.compute->add(model_.compute_energy(after.mac8_ops - before.mac8_ops));
  }
  if (sinks_.mixed_signal != nullptr) {
    sinks_.mixed_signal->add(
        model_.mixed_signal_energy(after.gemv_ops - before.gemv_ops));
  }
  if (sinks_.digital != nullptr) {
    sinks_.digital->add(model_.digital_energy(
        after.gemv_ops - before.gemv_ops,
        after.extra_alu_ops - before.extra_alu_ops));
  }
  if (sinks_.buffers != nullptr) {
    sinks_.buffers->add(model_.buffer_energy(after.buffer_byte_accesses -
                                             before.buffer_byte_accesses));
  }
  if (sinks_.dma != nullptr) sinks_.dma->add(model_.dma_energy(bursts));

  timeline.weights_programmed = timeline.trigger + weight_phase.ticks();
  timeline.done = timeline.trigger + total.ticks();

  // Channel contention: the job's own DMA traffic reserves busy windows on
  // the engine's channel, so stream copies serialize behind it (or migrate
  // to an idle channel) instead of being counted as free overlap. The weight
  // phase interleaves DMA fills with row programming back-to-back, so it
  // claims the channel for the whole phase; the body's fills/stores (and a
  // batch's later weight loads) claim their aggregate DMA share from the
  // front of the stream phase — fills run ahead of computes under double
  // buffering — leaving only the genuine compute tail open for copies.
  if (prefetchable > overlap) {
    dma_.reserve_engine(timeline.trigger, timeline.weights_programmed);
  }
  if (body_dma > Duration::zero()) {
    dma_.reserve_engine(timeline.weights_programmed,
                        std::min(timeline.done,
                                 timeline.weights_programmed + body_dma.ticks()));
  }

  events_.schedule_at(timeline.weights_programmed, "cim.weights_programmed", [] {});
  events_.schedule_at(timeline.done, "cim.job_done", [&regs] {
    regs.set_status(DeviceStatus::kDone);
    regs.write(Reg::kResult, 0);
  });
  return timeline;
}

}  // namespace tdo::cim
