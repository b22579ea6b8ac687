// PolyBench/C workloads evaluated by the paper (Section IV): 2mm, 3mm,
// gemm, conv, gesummv, bicg, mvt.
//
// Each workload carries the kernel source in the front-end language, the
// deterministic input data (PolyBench-style init formulas, bounded so 8-bit
// quantization is well-conditioned), a natively computed double-precision
// reference for every output array, and a validation tolerance derived from
// the quantization error bounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace tdo::pb {

struct Workload {
  std::string name;
  std::string source;  // kernel-language text fed to the front-end
  std::map<std::string, std::vector<float>> inputs;    // initial contents
  std::map<std::string, std::vector<float>> expected;  // reference outputs
  std::vector<std::string> outputs;  // arrays checked / copied back
  double tolerance = 1e-3;           // max |got - expected| accepted
};

/// Analytic quantization tolerance for one output element of a GEMM with
/// reduction length `k`, scaled by `alpha`, whose operands lie in
/// [-range, range] and are quantized to 8 bits.
[[nodiscard]] double gemm_tolerance(double alpha, std::int64_t k,
                                    double range = 1.0);

/// Size preset: kTest keeps unit tests fast; kPaper is the bench default.
enum class Preset { kTest, kPaper };

[[nodiscard]] Workload make_gemm(Preset preset);
[[nodiscard]] Workload make_2mm(Preset preset);
[[nodiscard]] Workload make_3mm(Preset preset);
[[nodiscard]] Workload make_conv(Preset preset);
[[nodiscard]] Workload make_gesummv(Preset preset);
[[nodiscard]] Workload make_bicg(Preset preset);
[[nodiscard]] Workload make_mvt(Preset preset);

/// The evaluation order of Figure 6.
[[nodiscard]] const std::vector<std::string>& kernel_names();
[[nodiscard]] support::StatusOr<Workload> make_workload(const std::string& name,
                                                        Preset preset);

}  // namespace tdo::pb
