#include "obs/energy.hpp"

#include <cmath>

#include "pcm/energy_model.hpp"
#include "runtime/host_pool.hpp"
#include "sim/host_cpu.hpp"
#include "topo/topology.hpp"

namespace tdo::obs {

namespace {

[[nodiscard]] std::uint64_t arg_or(const TraceEvent& event,
                                   const char* key, std::uint64_t fallback) {
  for (const auto& [name, value] : event.args) {
    if (name == key) return value;
  }
  return fallback;
}

[[nodiscard]] bool track_starts_with(const TraceEvent& event,
                                     const char* prefix) {
  return event.track.rfind(prefix, 0) == 0;
}

[[nodiscard]] std::uint64_t fj_of(support::Energy e) {
  return static_cast<std::uint64_t>(std::llround(e.femtojoules()));
}

}  // namespace

EnergyBreakdown attribute_energy(const std::vector<TraceEvent>& events) {
  const pcm::CimEnergyParams cim{};
  const sim::HostParams host_cpu{};
  const rt::HostPoolParams pool{};
  const topo::LinkParams pool_link{};
  const std::uint64_t write_fj = fj_of(cim.write_per_weight8);
  const std::uint64_t mac_fj = fj_of(cim.compute_per_mac8);
  const std::uint64_t gemv_fj = fj_of(cim.mixed_signal_per_gemv) +
                                fj_of(cim.digital_weighted_sum_per_gemv);
  const std::uint64_t alu_fj = fj_of(cim.digital_per_extra_alu_op);
  const std::uint64_t buffer_fj = fj_of(cim.buffer_per_byte_access);
  const std::uint64_t dma_fj = fj_of(cim.dma_engine_per_op);
  const std::uint64_t host_mac_fj =
      fj_of(host_cpu.energy_per_inst * pool.instructions_per_mac);
  const std::uint64_t link_fj = fj_of(pool_link.energy_per_byte);

  EnergyBreakdown out;
  for (const TraceEvent& event : events) {
    if (event.phase != Phase::kSpan) continue;
    if (track_starts_with(event, "engine/") && event.name == "job") {
      const std::uint64_t write = arg_or(event, "ww8", 0) * write_fj;
      const std::uint64_t stream =
          arg_or(event, "mac", 0) * mac_fj +
          arg_or(event, "gemv", 0) * gemv_fj +
          arg_or(event, "alu", 0) * alu_fj +
          arg_or(event, "bufb", 0) * buffer_fj;
      const std::uint64_t dma = arg_or(event, "dmab", 0) * dma_fj;
      out.engine_write_fj += write;
      out.engine_stream_fj += stream;
      out.engine_dma_fj += dma;
      out.seg_fj[kSegWeights] += write;
      out.seg_fj[kSegStream] += stream;
      out.seg_fj[kSegDmaWait] += dma;
      ++out.spans_counted;
    } else if (track_starts_with(event, "dma/") && event.name == "copy") {
      const std::uint64_t dma = arg_or(event, "dmab", 0) * dma_fj;
      out.copy_dma_fj += dma;
      out.seg_fj[kSegDmaWait] += dma;
      ++out.spans_counted;
    } else if (track_starts_with(event, "link/") &&
               event.name == "response") {
      const std::uint64_t link = arg_or(event, "bytes", 0) * link_fj;
      out.link_fj += link;
      out.seg_fj[kSegLink] += link;
      ++out.spans_counted;
    } else if (track_starts_with(event, "host_pool") &&
               event.name == "stripe") {
      const std::uint64_t host = arg_or(event, "macs", 0) * host_mac_fj;
      out.host_pool_fj += host;
      out.seg_fj[kSegStream] += host;
      ++out.spans_counted;
    }
  }
  out.total_fj = out.engine_write_fj + out.engine_stream_fj +
                 out.engine_dma_fj + out.copy_dma_fj + out.link_fj +
                 out.host_pool_fj;
  return out;
}

PerClassEnergy per_class_energy(const std::vector<RequestPath>& paths,
                                const EnergyBreakdown& breakdown) {
  // Per-segment tick totals, overall and per class.
  std::array<double, kSegmentCount> seg_ticks{};
  std::map<std::string, std::array<double, kSegmentCount>> class_ticks;
  for (const RequestPath& path : paths) {
    auto& cls = class_ticks[path.cls];
    for (std::size_t s = 0; s < kSegmentCount; ++s) {
      seg_ticks[s] += static_cast<double>(path.seg[s]);
      cls[s] += static_cast<double>(path.seg[s]);
    }
  }
  PerClassEnergy out;
  for (const auto& [cls, ticks] : class_ticks) {
    auto& fj = out[cls];
    for (std::size_t s = 0; s < kSegmentCount; ++s) {
      if (seg_ticks[s] <= 0.0) continue;
      fj[s] = static_cast<double>(breakdown.seg_fj[s]) * ticks[s] /
              seg_ticks[s];
    }
  }
  return out;
}

}  // namespace tdo::obs
