#include "polybench/harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cim/accelerator.hpp"
#include "exec/interpreter.hpp"
#include "frontend/parser.hpp"
#include "sim/system.hpp"
#include "support/log.hpp"

namespace tdo::pb {

namespace {

using support::Status;
using support::StatusOr;

/// Validates every output array of the workload; returns max abs error.
StatusOr<double> validate(exec::Interpreter& interp, const Workload& workload) {
  double max_err = 0.0;
  for (const std::string& name : workload.outputs) {
    auto got = interp.get_array(name);
    if (!got.is_ok()) return got.status();
    const auto& expected = workload.expected.at(name);
    if (got->size() != expected.size()) {
      return support::internal_error("output size mismatch on " + name);
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      max_err = std::max(
          max_err, static_cast<double>(std::fabs((*got)[i] - expected[i])));
    }
  }
  return max_err;
}

StatusOr<RunReport> run_program(const Workload& workload,
                                const exec::Program& program, bool use_cim,
                                const rt::RuntimeConfig& rt_config,
                                const cim::AcceleratorParams& accel_params,
                                std::size_t accelerators) {
  sim::System system;
  cim::Accelerator accel{accel_params, system};
  rt::CimRuntime runtime{rt_config, system, accel};
  // Extra accelerator instances: distinct PMIO windows and stats prefixes;
  // the runtime's command stream round-robins across them.
  std::vector<std::unique_ptr<cim::Accelerator>> extra;
  for (std::size_t i = 1; i < accelerators; ++i) {
    extra.push_back(std::make_unique<cim::Accelerator>(
        cim::instance_params(accel_params, i), system));
    runtime.add_accelerator(*extra.back());
  }

  exec::Interpreter interp{system, use_cim ? &runtime : nullptr};
  TDO_RETURN_IF_ERROR(interp.prepare(program));
  for (const auto& [name, data] : workload.inputs) {
    TDO_RETURN_IF_ERROR(interp.set_array(name, data));
  }

  // ROI begin (the paper inserts ROI markers around the kernel in gem5).
  const auto before = system.snapshot();
  const auto t0 = system.global_time();
  TDO_RETURN_IF_ERROR(interp.run(program));
  const auto t1 = system.global_time();
  const auto delta = system.snapshot().delta_since(before);
  // ROI end.

  RunReport report;
  report.kernel = workload.name;
  report.used_cim = use_cim;
  report.runtime = t1 - t0;
  report.host_instructions = delta.counter_or("host.instructions");
  report.host_energy = delta.energy_or("host.energy");
  // Every registered energy except the host's belongs to an accelerator
  // instance (cim.energy.*, cim1.energy.*, ...).
  for (const auto& [name, pj] : delta.energies_pj) {
    if (name != "host.energy") report.accel_energy += support::Energy::from_pj(pj);
  }
  report.total_energy = report.host_energy + report.accel_energy;
  auto accel_report = accel.report();
  for (const auto& a : extra) {
    const auto r = a->report();
    accel_report.jobs += r.jobs;
    accel_report.gemv_ops += r.gemv_ops;
    accel_report.mac8_ops += r.mac8_ops;
    accel_report.weight_writes8 += r.weight_writes8;
    accel_report.weight_writes_saved8 += r.weight_writes_saved8;
  }
  report.mac_ops = accel_report.mac8_ops;
  report.cim_writes = accel_report.weight_writes8;
  report.macs_per_cim_write = accel_report.macs_per_cim_write();
  report.stream_commands = delta.counter_or("stream.enqueued");
  report.stream_fallbacks = delta.counter_or("stream.cpu_fallbacks");
  report.stream_occupancy = delta.counter_or("stream.occupancy_peak");
  report.copies_enqueued = delta.counter_or("stream.copies_enqueued");
  report.copy_bytes = delta.counter_or("stream.copy_bytes");
  report.host_copies = delta.counter_or("xfer.host_copies");
  report.hazard_syncs = delta.counter_or("stream.hazard_syncs");
  report.device_drains = delta.counter_or("stream.device_drains");
  report.residency_hits = delta.counter_or("residency.hits");
  report.residency_misses = delta.counter_or("residency.misses");
  report.residency_evictions = delta.counter_or("residency.evictions");
  report.residency_invalidations = delta.counter_or("residency.invalidations");
  report.weight_writes_saved = accel_report.weight_writes_saved8;
  report.overlap_ticks = delta.sum_ending_with(".overlap_ticks");
  report.overlapped_copy_bytes =
      delta.sum_ending_with(".dma.overlapped_copy_bytes");
  report.copy_segments = delta.sum_ending_with(".copy_segments");
  report.copy_contended_ticks =
      delta.sum_ending_with(".dma.contended_copy_ticks");
  report.copy_migrations = delta.sum_ending_with(".dma.copy_migrations");

  auto err = validate(interp, workload);
  if (!err.is_ok()) return err.status();
  report.max_abs_error = *err;
  report.correct = *err <= workload.tolerance;
  if (!report.correct) {
    TDO_LOG(kWarn, "harness") << workload.name << " validation failed: err "
                              << *err << " > tol " << workload.tolerance;
  }
  return report;
}

}  // namespace

StatusOr<RunReport> run_host(const Workload& workload) {
  auto fn = frontend::parse_kernel(workload.source);
  if (!fn.is_ok()) return fn.status();
  const exec::Program program = exec::host_only_program(*fn);
  return run_program(workload, program, /*use_cim=*/false, rt::RuntimeConfig{},
                     cim::AcceleratorParams{}, /*accelerators=*/1);
}

StatusOr<RunReport> run_cim(const Workload& workload,
                            const HarnessOptions& options) {
  auto fn = frontend::parse_kernel(workload.source);
  if (!fn.is_ok()) return fn.status();
  core::CompileResult compiled = core::compile(*fn, options.compile);
  // The compile-time offload policy lowers to the stream's dynamic
  // dispatch threshold — one knob for static intent and runtime fallback.
  rt::RuntimeConfig rt_config = options.runtime;
  rt_config.stream.min_macs_per_write =
      std::max(rt_config.stream.min_macs_per_write,
               compiled.stream_min_macs_per_write);
  auto report = run_program(workload, compiled.cim_program, /*use_cim=*/true,
                            rt_config, options.accelerator,
                            std::max<std::size_t>(1, options.accelerators));
  if (report.is_ok()) report->any_offloaded = compiled.any_offloaded();
  return report;
}

}  // namespace tdo::pb
