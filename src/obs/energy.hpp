// Trace-driven energy attribution over the PR 8 critical-path segments.
//
// Every traced activity span now carries the activity *counts* the §5 cost
// model charges (engine jobs: weights written, MACs, GEMVs, ALU ops, buffer
// bytes, DMA bursts; stream copies: DMA bursts; link responses: bytes; host
// pool stripes: MACs). This module replays those counts through
// integer-femtojoule roundings of the Table I constants and lands every
// joule in exactly one of the seven `obs::Segment` buckets:
//
//   engine weight writes            -> kSegWeights   (PCM programming)
//   engine MAC/GEMV/ALU/buffers     -> kSegStream    (crossbar + periphery)
//   engine + stream-copy DMA bursts -> kSegDmaWait   (DMA/micro-engine)
//   link response bytes             -> kSegLink      (pool-link serialization)
//   host-pool stripe MACs           -> kSegStream    (split-path host FLOPs)
//
// All arithmetic is uint64 femtojoules, so `segment_sum() == total_fj` is an
// *exact* invariant (the live EnergyAccumulators store double picojoules and
// round; tests cross-check against them with a tiny relative tolerance
// instead). Host-synchronous fallback compute (`host.energy`) never emits
// spans and is deliberately outside the attributable total.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace tdo::obs {

/// Whole-run attribution: femtojoules per segment plus per-source totals.
struct EnergyBreakdown {
  std::array<std::uint64_t, kSegmentCount> seg_fj{};
  /// Per-source totals (each span's joules land in exactly one of these and
  /// exactly one segment).
  std::uint64_t engine_write_fj = 0;
  std::uint64_t engine_stream_fj = 0;  // MAC + mixed-signal + digital + buffers
  std::uint64_t engine_dma_fj = 0;
  std::uint64_t copy_dma_fj = 0;
  std::uint64_t link_fj = 0;
  std::uint64_t host_pool_fj = 0;
  std::uint64_t total_fj = 0;
  std::uint64_t spans_counted = 0;

  [[nodiscard]] std::uint64_t segment_sum() const {
    std::uint64_t total = 0;
    for (const std::uint64_t s : seg_fj) total += s;
    return total;
  }
};

/// Replays every activity span in `events` (a Tracer::sorted_events()
/// stream) through integer-femtojoule llround()s of the default model
/// constants (pcm::CimEnergyParams, sim::HostParams x rt::HostPoolParams,
/// topo::LinkParams) — derived, never copied, so they cannot diverge from
/// the doubles the live accumulators charge. Deterministic: same trace,
/// same breakdown.
[[nodiscard]] EnergyBreakdown attribute_energy(
    const std::vector<TraceEvent>& events);

/// Display-only per-class split: each segment's joules divided across
/// deadline classes in proportion to that class's share of the segment's
/// *ticks* in the decomposed request paths (energy spans carry no request
/// identity, so proportional-by-time is the honest apportionment; the
/// row/column sums still match the exact breakdown). Keyed by class track
/// suffix ("interactive", ...); values are femtojoules as double.
using PerClassEnergy =
    std::map<std::string, std::array<double, kSegmentCount>>;

[[nodiscard]] PerClassEnergy per_class_energy(
    const std::vector<RequestPath>& paths, const EnergyBreakdown& breakdown);

}  // namespace tdo::obs
