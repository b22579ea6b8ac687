// Shared load-generation helpers for the serving/sweep benches.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cim/accelerator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/cim_blas.hpp"
#include "sim/system.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "topo/topology.hpp"

namespace tdo::benchutil {

// --- command-line values ---
//
// Every numeric bench flag goes through these checked parsers, so a bad
// value prints the bench's usage message instead of running a zero-sized
// or garbage configuration (or dividing by zero).

/// Upper bound for count-valued flags (tenants, requests, weight sets, ...).
inline constexpr std::uint64_t kMaxFlagCount = 1u << 20;

/// Parses a whole decimal integer in [min, max].
[[nodiscard]] inline std::optional<std::uint64_t> parse_count(
    const char* text, std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

/// Parses a finite real >= 0 (> 0 when `positive`, for values a zero would
/// divide by).
[[nodiscard]] inline std::optional<double> parse_real(const char* text,
                                                      bool positive) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) ||
      (positive ? value <= 0.0 : value < 0.0)) {
    return std::nullopt;
  }
  return value;
}

/// Scoped `--trace out.json` support for a whole bench run: starts the
/// tracer on construction (when a path was given) and exports + stops on
/// destruction. Benches that need finer control (bench_serve_loop's traced
/// experiment) drive obs::Tracer directly instead.
///
/// A traced bench run is a correctness gate, not best-effort telemetry: if
/// any shard ring overflowed (dropped events), downstream consumers
/// (energy attribution, critical-path decomposition) would silently
/// under-count, so finish() fails the whole bench instead.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_{std::move(path)} {
    if (!path_.empty()) obs::Tracer::instance().start({});
  }
  ~TraceSession() { finish(); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void finish() {
    if (path_.empty() || finished_) return;
    finished_ = true;
    auto& tracer = obs::Tracer::instance();
    tracer.pump();
    // Sampled metrics ride along as Perfetto counter tracks so the
    // trajectory lines up under the spans in the same UI.
    obs::MetricsRegistry::instance().append_counter_tracks();
    tracer.pump();
    std::ofstream out(path_, std::ios::binary);
    if (out) {
      tracer.export_json(out);
      std::printf("trace: %zu events -> %s (%llu dropped)\n",
                  tracer.collected_count(), path_.c_str(),
                  static_cast<unsigned long long>(tracer.dropped()));
    } else {
      std::fprintf(stderr, "trace: cannot open %s\n", path_.c_str());
    }
    if (tracer.dropped() != 0) {
      std::fprintf(stderr,
                   "FAILED: %llu trace events dropped (shard overflow)\n",
                   static_cast<unsigned long long>(tracer.dropped()));
      tracer.stop();
      std::exit(1);
    }
    tracer.stop();
  }

 private:
  std::string path_;
  bool finished_ = false;
};

/// Minimal ordered JSON document builder for the machine-readable bench
/// results (`BENCH_<name>.json`). Insertion order is preserved and doubles
/// print with enough digits to round-trip, so the same run produces
/// byte-identical files — which is what lets tools/bench_diff.py gate on
/// them in CI without flakiness.
class Json {
 public:
  static Json object() { return Json{Kind::kObject}; }
  static Json array() { return Json{Kind::kArray}; }
  static Json number(std::uint64_t v) {
    Json j{Kind::kUint};
    j.uint_ = v;
    return j;
  }
  static Json number(double v) {
    Json j{Kind::kDouble};
    j.double_ = v;
    return j;
  }
  static Json string(std::string v) {
    Json j{Kind::kString};
    j.string_ = std::move(v);
    return j;
  }
  static Json boolean(bool v) {
    Json j{Kind::kBool};
    j.bool_ = v;
    return j;
  }

  Json& set(const std::string& key, Json value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  Json& push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  void dump(std::ostream& os) const {
    switch (kind_) {
      case Kind::kObject: {
        os << '{';
        bool first = true;
        for (const auto& [key, value] : members_) {
          if (!first) os << ',';
          first = false;
          write_string(os, key);
          os << ':';
          value.dump(os);
        }
        os << '}';
        break;
      }
      case Kind::kArray: {
        os << '[';
        bool first = true;
        for (const Json& value : items_) {
          if (!first) os << ',';
          first = false;
          value.dump(os);
        }
        os << ']';
        break;
      }
      case Kind::kUint:
        os << uint_;
        break;
      case Kind::kDouble: {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", double_);
        os << buf;
        break;
      }
      case Kind::kString:
        write_string(os, string_);
        break;
      case Kind::kBool:
        os << (bool_ ? "true" : "false");
        break;
    }
  }

 private:
  enum class Kind { kObject, kArray, kUint, kDouble, kString, kBool };
  explicit Json(Kind kind) : kind_{kind} {}

  static void write_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
      switch (c) {
        case '"':
          os << "\\\"";
          break;
        case '\\':
          os << "\\\\";
          break;
        case '\n':
          os << "\\n";
          break;
        case '\t':
          os << "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            os << buf;
          } else {
            os << c;
          }
      }
    }
    os << '"';
  }

  Kind kind_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  bool bool_ = false;
};

/// Writes `BENCH_<name>.json` in the working directory, wrapping `body`
/// in the shared `tdo.bench.v1` envelope. Silent on success: the benches'
/// stdout is part of the determinism contract, so machine-readable output
/// must not perturb it.
inline void write_bench_json(const std::string& name, Json body) {
  Json root = Json::object();
  root.set("schema", Json::string("tdo.bench.v1"));
  root.set("bench", Json::string(name));
  root.set("results", std::move(body));
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bench json: cannot open %s\n", path.c_str());
    return;
  }
  root.dump(out);
  out << '\n';
}

/// Zipf(s) sampler over {0, ..., count-1} via inverse-CDF on a precomputed
/// table (rank 0 most popular).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t count, double s, std::uint64_t seed) : rng_{seed} {
    cdf_.reserve(count);
    double total = 0.0;
    for (std::size_t i = 1; i <= count; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), s);
      cdf_.push_back(total);
    }
    for (double& v : cdf_) v /= total;
  }
  [[nodiscard]] std::size_t next() {
    const double u = rng_.uniform(0.0, 1.0);
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
      if (u <= cdf_[i]) return i;
    }
    return cdf_.size() - 1;
  }

 private:
  support::Rng rng_;
  std::vector<double> cdf_;
};

/// Deterministic random float matrix in [-range, range].
[[nodiscard]] inline std::vector<float> random_matrix(std::size_t count,
                                                      double range,
                                                      std::uint64_t seed) {
  support::Rng rng{seed};
  std::vector<float> out(count);
  for (float& v : out) {
    v = rng.uniform_f(static_cast<float>(-range), static_cast<float>(range));
  }
  return out;
}

/// A simulated CIM fleet: device ids [0, near) form the near tier and
/// [near, near + far) sit behind one shared far link. A far device sees its
/// DMA derated by the link multiplier (bandwidth down, burst setup up), how
/// pooled memory looks from a DMA engine's seat, and signals completions
/// through the link's withhold-response path. Handing the topology to the
/// runtime (set_topology) is left to the caller.
struct Fabric {
  sim::System system;
  std::unique_ptr<topo::Link> far_link;  ///< null without a far tier
  topo::Topology topology;
  std::vector<std::unique_ptr<cim::Accelerator>> accels;
  std::unique_ptr<rt::CimRuntime> runtime;

  Fabric(const topo::TopologySpec& spec, const rt::RuntimeConfig& config) {
    if (spec.far > 0) {
      topo::LinkParams lp;
      lp.latency_multiplier = spec.far_multiplier;
      lp.name = "farlink";
      far_link = std::make_unique<topo::Link>(lp);
    }
    const cim::AcceleratorParams base;
    for (std::size_t d = 0; d < spec.device_count(); ++d) {
      const bool is_far = d >= spec.near;
      auto params = cim::instance_params(base, d);
      if (is_far) {
        params.dma.bandwidth_bytes_per_sec /= spec.far_multiplier;
        params.dma.burst_setup = support::Duration::from_ps(
            params.dma.burst_setup.picoseconds() * spec.far_multiplier);
      }
      accels.push_back(std::make_unique<cim::Accelerator>(params, system));
      if (is_far) {
        accels.back()->set_response_link(far_link.get());
        topology.add_device(topo::Topology::kFarTier, far_link.get());
      } else {
        topology.add_device(topo::Topology::kNearTier);
      }
    }
    runtime =
        std::make_unique<rt::CimRuntime>(config, system, *accels.front());
    for (std::size_t d = 1; d < accels.size(); ++d) {
      runtime->add_accelerator(*accels[d]);
    }
  }
  // The accelerators and the runtime hold references into `system`.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Copies `data` into a fresh device allocation.
  [[nodiscard]] support::StatusOr<sim::VirtAddr> upload(
      const std::vector<float>& data) {
    auto va = runtime->malloc_device(data.size() * 4);
    if (!va.is_ok()) return va.status();
    auto pa = system.mmu().translate(*va);
    if (!pa.is_ok()) return pa.status();
    system.memory().write(
        *pa, std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                       data.size() * 4));
    return *va;
  }

  /// Whether the packed row-major m x n result at `c` is within `tolerance`
  /// of the host reference a (m x k) * b (k x n) in every element.
  [[nodiscard]] support::StatusOr<bool> matches_gemm(
      sim::VirtAddr c, const std::vector<float>& a,
      const std::vector<float>& b, std::uint64_t m, std::uint64_t n,
      std::uint64_t k, double tolerance) {
    std::vector<float> got(m * n);
    auto pa = system.mmu().translate(c);
    if (!pa.is_ok()) return pa.status();
    system.memory().read(
        *pa, std::span(reinterpret_cast<std::uint8_t*>(got.data()),
                       got.size() * 4));
    for (std::uint64_t i = 0; i < m; ++i) {
      for (std::uint64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::uint64_t kk = 0; kk < k; ++kk) {
          acc += static_cast<double>(a[i * k + kk]) *
                 static_cast<double>(b[kk * n + j]);
        }
        if (std::fabs(acc - static_cast<double>(got[i * n + j])) >
            tolerance) {
          return false;
        }
      }
    }
    return true;
  }
};

}  // namespace tdo::benchutil
