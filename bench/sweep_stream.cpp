// Sweep: accelerators x stream depth x async copies.
//
// Locates the knee of the multi-device scaling curve for the asynchronous
// offload path: how deep the command stream must be before submission stops
// being the bottleneck, how many accelerator instances the tiled stripes can
// feed, and how much of the remaining time the transfer engine's
// stream-resident copies buy back. Runs the 256^3 PolyBench GEMM with
// 128x128 crossbars so every configuration has several chained tile jobs
// per stripe to pipeline.
//
// Copies and the engine's own weight/vector DMA contend on the per-channel
// busy-window timeline, so the table also reports the contention the copies
// absorbed (ticks waited, chains migrated off the copy channel) and the
// scatter-gather segment count — overlap numbers are exact, not optimistic.
//
// `--smoke` runs a reduced grid on the test-size workload (CI bench-rot
// guard for the copy path).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "polybench/harness.hpp"
#include "support/table.hpp"

namespace {

struct Sample {
  std::size_t accelerators = 1;
  std::size_t depth = 1;
  bool async_copies = false;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using tdo::support::TextTable;
  bool smoke = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::printf("usage: bench_sweep_stream [--smoke] [--trace out.json]\n");
      return arg == "--help" ? 0 : 1;
    }
  }
  tdo::benchutil::TraceSession trace{trace_path};
  auto workload = tdo::pb::make_workload(
      "gemm", smoke ? tdo::pb::Preset::kTest : tdo::pb::Preset::kPaper);
  if (!workload.is_ok()) {
    std::cerr << workload.status().to_string() << "\n";
    return 1;
  }

  TextTable table(smoke ? "Stream sweep - gemm (smoke)"
                        : "Stream sweep - gemm 256^3, 128x128 tiles");
  table.set_header({"Accels", "Depth", "Async copies", "Runtime",
                    "Overlap ticks", "Copy KiB on stream", "Overlapped KiB",
                    "SG segs", "Contended ticks", "Migrations", "Correct"});

  const std::vector<std::size_t> accel_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  const std::vector<std::size_t> depths =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};

  std::vector<Sample> samples;
  tdo::benchutil::Json points = tdo::benchutil::Json::array();
  for (const std::size_t accelerators : accel_counts) {
    for (const std::size_t depth : depths) {
      for (const bool async_copies : {false, true}) {
        tdo::pb::HarnessOptions options;
        options.accelerators = accelerators;
        options.runtime.stream.depth = depth;
        options.runtime.xfer.async_copies = async_copies;
        options.compile.crossbar_rows = 128;
        options.compile.crossbar_cols = 128;
        options.accelerator.tile.crossbar.rows = 128;
        options.accelerator.tile.crossbar.cols = 128;
        if (smoke) options.runtime.xfer.min_async_bytes = 1024;
        const auto report = tdo::pb::run_cim(*workload, options);
        if (!report.is_ok()) {
          std::cerr << report.status().to_string() << "\n";
          return 1;
        }
        samples.push_back(Sample{accelerators, depth, async_copies,
                                 report->runtime.seconds()});
        {
          using tdo::benchutil::Json;
          Json p = Json::object();
          p.set("accelerators",
                Json::number(static_cast<std::uint64_t>(accelerators)));
          p.set("depth", Json::number(static_cast<std::uint64_t>(depth)));
          p.set("async_copies", Json::boolean(async_copies));
          p.set("runtime_s", Json::number(report->runtime.seconds()));
          p.set("overlap_ticks", Json::number(report->overlap_ticks));
          p.set("copy_bytes", Json::number(report->copy_bytes));
          p.set("overlapped_copy_bytes",
                Json::number(report->overlapped_copy_bytes));
          p.set("copy_segments", Json::number(report->copy_segments));
          p.set("copy_contended_ticks",
                Json::number(report->copy_contended_ticks));
          p.set("correct", Json::boolean(report->correct));
          points.push(std::move(p));
        }
        table.add_row({std::to_string(accelerators), std::to_string(depth),
                       async_copies ? "on" : "off",
                       report->runtime.to_string(),
                       std::to_string(report->overlap_ticks),
                       std::to_string(report->copy_bytes / 1024),
                       std::to_string(report->overlapped_copy_bytes / 1024),
                       std::to_string(report->copy_segments),
                       std::to_string(report->copy_contended_ticks),
                       std::to_string(report->copy_migrations),
                       report->correct ? "yes" : "NO"});
      }
    }
  }
  table.print(std::cout);

  // The knee: per accelerator count, the smallest depth (async copies on)
  // within 2% of that count's best runtime — deeper queues past this point
  // buy nothing, so it is where the scaling curve flattens.
  const auto find = [&samples](std::size_t accelerators, std::size_t depth,
                               bool async_copies) -> const Sample* {
    for (const Sample& s : samples) {
      if (s.accelerators == accelerators && s.depth == depth &&
          s.async_copies == async_copies) {
        return &s;
      }
    }
    return nullptr;
  };
  std::cout << "\nKnee of the scaling curve (async copies on):\n";
  for (const std::size_t accelerators : accel_counts) {
    double best = 0.0;
    for (const std::size_t depth : depths) {
      const Sample* s = find(accelerators, depth, true);
      if (s != nullptr && (best == 0.0 || s->seconds < best)) best = s->seconds;
    }
    for (const std::size_t depth : depths) {
      const Sample* knee = find(accelerators, depth, true);
      if (knee == nullptr || knee->seconds > 1.02 * best) continue;
      std::printf("  %zu accelerator(s): depth %zu (%.3f ms, best %.3f ms)",
                  accelerators, depth, knee->seconds * 1e3, best * 1e3);
      // Async-copy payoff measured at this knee configuration.
      const Sample* sync = find(accelerators, depth, false);
      if (sync != nullptr) {
        std::printf(" - async copies %.1f%% faster",
                    (sync->seconds / knee->seconds - 1.0) * 100.0);
      }
      std::printf("\n");
      break;
    }
  }

  tdo::benchutil::Json results = tdo::benchutil::Json::object();
  results.set("points", std::move(points));
  tdo::benchutil::write_bench_json("sweep_stream", std::move(results));
  return 0;
}
