// DTO-style adaptive offload admission.
//
// The paper (and Intel's DSA Transparent Offload library it cites) gates
// offload on a *static* intensity threshold: DTO_MIN_BYTES there,
// `StreamParams::min_macs_per_write` and `XferParams::min_async_bytes`
// here. Static knobs are wrong twice in a serving system: the right value
// depends on the live host/device speed ratio (which shifts with residency
// hit rates and queue depths), and nobody re-runs the sweep in production.
//
// This controller re-derives both knobs continuously from observation:
//   * per call-site (shape) EWMAs of observed per-MAC latency on the device
//     path and on the host-fallback path, refreshed by occasional forced
//     probes of whichever path has gone stale;
//   * `min_macs_per_write` snaps to the smallest rung of a geometric ladder
//     that routes every host-winning site to the host (the knee between the
//     highest-intensity site the host wins and the lowest the device wins);
//   * `min_async_bytes` is the measured break-even transfer size: async
//     enqueue overhead divided by the host copy's observed cost per byte.
//
// The ladder quantization is deliberate: it makes "converged" checkable —
// the adaptive threshold must land within one rung of the best static value
// an offline sweep finds on the same load (bench/serve_loop.cpp enforces
// exactly that).
#pragma once

#include <cstdint>
#include <map>

#include "support/ewma.hpp"
#include "support/units.hpp"

namespace tdo::serve {

/// Call-site identity for admission statistics: the kernel shape plus the
/// memory tier the launch is expected to land on. (Tenants sharing a shape
/// share a site — the offload tradeoff is a property of the kernel, not of
/// who submitted it. The tier splits the EWMAs because the same shape has a
/// different device-path cost behind a far CXL-style link: the offload
/// break-even knee sits higher there, and folding both tiers into one site
/// would average the knees away.)
struct SiteKey {
  std::uint64_t m = 0, n = 0, k = 0;
  int tier = 0;  ///< topo::Topology tier of the anticipated placement
  auto operator<=>(const SiteKey&) const = default;
};

/// Dispatch-path directive for one launch.
enum class AdmitPath : std::uint8_t {
  kAuto,         ///< let the stream's threshold decide (normal operation)
  kForceDevice,  ///< probe: refresh the device-latency EWMA
  kForceHost,    ///< probe: refresh the host-latency EWMA
};

struct AdmissionParams {
  /// Master switch; off keeps the configured static knobs untouched.
  bool adaptive = true;
  /// EWMA smoothing factor for latency observations.
  double ewma_alpha = 0.3;
  /// Every `probe_period`-th dispatch of a site is forced down whichever
  /// path has fewer observations (0 disables steady-state probing; the
  /// bootstrap probes — first dispatch per path — always happen).
  std::uint64_t probe_period = 16;
  /// Threshold ladder: rungs ladder_base * ladder_step^i, i in [0, rungs).
  double ladder_base = 1.0;
  double ladder_step = 2.0;
  int ladder_rungs = 16;
  /// min_async_bytes clamp range (the derived break-even can be noisy early).
  std::uint64_t min_async_floor = 256;
  std::uint64_t min_async_ceiling = 1ull << 20;
  /// Pseudo-async split-fraction ladder: rung 0 is "no split", rung i in
  /// [1, split_rungs] is 0.5 * 2^(i - split_rungs) — geometric down from
  /// one half, because the optimum dev/(dev+host) share is often a percent
  /// or less when the device is two orders of magnitude faster, and a
  /// linear ladder would quantize every such optimum to zero.
  int split_rungs = 10;
};

struct AdmissionReport {
  std::uint64_t sites = 0;
  std::uint64_t observations = 0;
  std::uint64_t probes_host = 0;
  std::uint64_t probes_device = 0;
  std::uint64_t retunes = 0;  ///< knob changes (any knob)
  double min_macs_per_write = 0.0;
  std::uint64_t min_async_bytes = 0;
  double split_fraction = 0.0;
};

class AdmissionController {
 public:
  AdmissionController(AdmissionParams params, double initial_min_macs_per_write,
                      std::uint64_t initial_min_async_bytes);

  [[nodiscard]] bool adaptive() const { return params_.adaptive; }

  /// Called once per launch of `site`; returns the probe directive.
  /// `host_probe_ok` is false for launches the host path cannot (or should
  /// not) carry — e.g. a large coalesced batch: a due host probe is deferred
  /// to a later singleton launch instead of burning the whole batch.
  [[nodiscard]] AdmitPath admit(const SiteKey& site, bool host_probe_ok = true);

  /// Feeds one observed launch: which path ran, the end-to-end latency, and
  /// the cost-model inputs. Hit-path device launches (cim_writes == 0) keep
  /// the EWMAs untouched — the intensity rule only ever gates cache-miss
  /// dispatches, so mixing hit latencies in would bias the knee. Retunes
  /// min_macs_per_write.
  void observe(const SiteKey& site, bool offloaded, support::Duration latency,
               std::uint64_t macs, std::uint64_t cim_writes);

  /// Feeds one host<->device transfer: size, whether it took the host
  /// memcpy path, and the host-side cost the caller measured around the
  /// call (for async copies that cost is the enqueue overhead — the copy
  /// itself rides the stream). Retunes min_async_bytes to the break-even.
  void observe_copy(std::uint64_t bytes, bool host_path,
                    support::Duration host_cost);

  [[nodiscard]] double min_macs_per_write() const { return knob_macs_; }
  [[nodiscard]] std::uint64_t min_async_bytes() const { return knob_async_; }

  /// Current pseudo-async split fraction (host-side share of a split job),
  /// retuned from the device/host EWMAs: when both paths of a site are
  /// observed, the join is earliest at f* = dev/(dev + host) — the row
  /// share that makes both stripes finish together — snapped to the split
  /// ladder. The global knob follows the largest observed site (only
  /// large jobs split; see SplitConfig::min_macs).
  [[nodiscard]] double split_fraction() const { return knob_split_; }
  /// Site-specific split target; falls back to the global knob for sites
  /// missing an EWMA on either path.
  [[nodiscard]] double split_fraction_for(const SiteKey& site) const;

  /// Fleet-level device-path cost estimate: the dispatch-weighted mean of
  /// the per-site device EWMAs (picoseconds per MAC), over sites with at
  /// least one device observation. This is the denominator of the overload
  /// shedder's capacity estimate — device_count / device_ps_per_mac() is the
  /// sustainable aggregate MAC rate. 0 when nothing has been observed yet
  /// (the shedder must stay open until the EWMAs warm up). The EWMAs measure
  /// dispatch-to-done, so queueing inside the stream inflates the estimate
  /// under load — a conservative bias the shed headroom absorbs.
  [[nodiscard]] double device_ps_per_mac() const;

  /// Ladder rung value / index-of-nearest-rung (shared with the bench's
  /// static sweep so "within one step" is well defined).
  [[nodiscard]] double rung(int index) const;
  [[nodiscard]] int rung_index(double value) const;

  /// Split-fraction ladder: split_rung(0) == 0 (no split); higher rungs
  /// double up to one half. Nearest-in-log-space index, like rung_index.
  [[nodiscard]] double split_rung(int index) const;
  [[nodiscard]] int split_rung_index(double fraction) const;

  [[nodiscard]] AdmissionReport report() const;

 private:
  struct Site {
    double intensity = 0.0;  ///< macs / cim_writes of a miss dispatch
    support::Ewma dev;   ///< device-path picoseconds per MAC
    support::Ewma host;  ///< host-path picoseconds per MAC
    std::uint64_t dispatches = 0;
  };

  void retune_macs();
  void retune_split();
  /// Ideal (unquantized) host share for one site; < 0 when unobservable.
  [[nodiscard]] double ideal_split(const Site& site) const;

  AdmissionParams params_;
  double knob_macs_;
  std::uint64_t knob_async_;
  double knob_split_ = 0.0;
  std::map<SiteKey, Site> sites_;
  support::Ewma host_ps_per_byte_;     ///< over host-path copies
  support::Ewma enqueue_overhead_ps_;  ///< over async-path submissions
  std::uint64_t observations_ = 0;
  std::uint64_t probes_host_ = 0;
  std::uint64_t probes_device_ = 0;
  std::uint64_t retunes_ = 0;
};

}  // namespace tdo::serve
