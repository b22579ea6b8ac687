// The TDO-CIM compilation pipeline (paper Figure 4, Section III).
//
// compile() takes a front-end-produced IR function through:
//   1. SCoP validation + Loop Tactics kernel detection (detect.hpp);
//   2. offload policy (always, or the selective MACs-per-write cost model);
//   3. kernel fusion into batched calls (fusion.hpp);
//   4. endurance-aware tiling of oversized kernels (tiling.hpp);
//   5. runtime-call substitution with on-demand host/device coherence copies
//      (Listing 1's polly_cim* orchestration). Kernel calls AND copies
//      dispatch into the runtime's asynchronous command stream (copies ride
//      it as DMA commands, rectangle-hazard-ordered against producers); the
//      emitter inserts polly_cimSynchronize barriers only where host nests
//      consume data with a copy or kernel still in flight, so kernels,
//      fusion groups and transfers pipeline across the accelerator queues.
// The result carries both the untouched host program (the `-O3` baseline of
// the evaluation) and the CIM program (`-O3 -enable-loop-tactics`).
#pragma once

#include <string>
#include <vector>

#include "core/detect.hpp"
#include "core/fusion.hpp"
#include "core/tiling.hpp"
#include "exec/program.hpp"
#include "ir/program.hpp"

namespace tdo::core {

enum class OffloadPolicy {
  /// Offload every detected kernel (the paper's Figure 6 configuration).
  kAlways,
  /// Selective offload (the paper's "Selective Geomean"): the compile-time
  /// policy lowers `min_macs_per_write` into the runtime stream's dynamic
  /// dispatch threshold (StreamParams::min_macs_per_write) instead of
  /// dropping kernels statically — one knob decides both the static intent
  /// and the per-command runtime fallback.
  kSelective,
};

struct CompileOptions {
  bool enable_fusion = true;
  /// Reuse-friendly tiled call order (Listing 3 interchange). When false,
  /// oversized kernels are emitted in the naive jj-innermost order that
  /// reprograms the stationary tile per column chunk.
  bool enable_tiling = true;
  OffloadPolicy policy = OffloadPolicy::kAlways;
  double min_macs_per_write = 16.0;
  /// Crossbar geometry the compiler plans against.
  std::uint32_t crossbar_rows = 256;
  std::uint32_t crossbar_cols = 256;
};

struct KernelReport {
  std::string description;
  double macs_per_write = 0.0;
  /// Emitted as a device call. True for every detected kernel: host-vs-
  /// device is decided per command at runtime by the stream's dynamic
  /// dispatch (see OffloadPolicy::kSelective); stream fallback counters
  /// report what actually ran where.
  bool offloaded = false;
  bool fused = false;
  bool tiled = false;
};

struct CompileResult {
  exec::Program host_program;  // baseline, no CIM
  exec::Program cim_program;   // transformed
  /// Runtime stream threshold the policy lowered to (0 = offload always).
  /// The harness merges this into StreamParams::min_macs_per_write.
  double stream_min_macs_per_write = 0.0;
  DetectionResult detection;
  std::vector<FusionGroup> fusion_groups;
  std::vector<KernelReport> reports;
  std::string schedule_tree_dump;

  [[nodiscard]] bool any_offloaded() const {
    for (const auto& r : reports) {
      if (r.offloaded) return true;
    }
    return false;
  }
};

/// Runs the full pipeline. The input function must validate().
[[nodiscard]] CompileResult compile(const ir::Function& fn,
                                    const CompileOptions& options = {});

}  // namespace tdo::core
