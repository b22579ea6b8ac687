#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace tdo::serve {

AdmissionController::AdmissionController(AdmissionParams params,
                                         double initial_min_macs_per_write,
                                         std::uint64_t initial_min_async_bytes)
    : params_{params},
      knob_macs_{initial_min_macs_per_write},
      knob_async_{initial_min_async_bytes} {
  if (params_.ladder_rungs < 1) params_.ladder_rungs = 1;
  if (params_.ladder_step <= 1.0) params_.ladder_step = 2.0;
  if (params_.ladder_base <= 0.0) params_.ladder_base = 1.0;
  if (params_.split_rungs < 1) params_.split_rungs = 1;
}

double AdmissionController::rung(int index) const {
  index = std::clamp(index, 0, params_.ladder_rungs - 1);
  return params_.ladder_base * std::pow(params_.ladder_step, index);
}

int AdmissionController::rung_index(double value) const {
  if (value <= params_.ladder_base) return 0;
  // Nearest rung in log space.
  const double steps =
      std::log(value / params_.ladder_base) / std::log(params_.ladder_step);
  const int index = static_cast<int>(std::lround(steps));
  return std::clamp(index, 0, params_.ladder_rungs - 1);
}

double AdmissionController::split_rung(int index) const {
  if (index <= 0) return 0.0;
  index = std::min(index, params_.split_rungs);
  return 0.5 * std::pow(2.0, index - params_.split_rungs);
}

int AdmissionController::split_rung_index(double fraction) const {
  if (fraction <= 0.0) return 0;
  // Nearest rung in log space among i >= 1; fractions more than half a
  // rung below the smallest one mean "no split".
  const double steps =
      std::log2(fraction / 0.5) + static_cast<double>(params_.split_rungs);
  const int index = static_cast<int>(std::lround(steps));
  return std::clamp(index, 0, params_.split_rungs);
}

AdmitPath AdmissionController::admit(const SiteKey& key, bool host_probe_ok) {
  if (!params_.adaptive) return AdmitPath::kAuto;
  Site& site = sites_[key];
  site.dispatches += 1;
  const auto probe = [&](bool host) {
    if (host && !host_probe_ok) return AdmitPath::kAuto;  // defer, don't count
    (host ? probes_host_ : probes_device_) += 1;
    return host ? AdmitPath::kForceHost : AdmitPath::kForceDevice;
  };
  // Bootstrap: measure each path once before trusting the threshold.
  if (!site.dev.seeded()) return probe(false);
  if (!site.host.seeded()) return probe(true);
  // Steady state: periodically refresh whichever EWMA is staler.
  if (params_.probe_period != 0 &&
      site.dispatches % params_.probe_period == 0) {
    return probe(site.host.count <= site.dev.count);
  }
  return AdmitPath::kAuto;
}

void AdmissionController::observe(const SiteKey& key, bool offloaded,
                                  support::Duration latency,
                                  std::uint64_t macs,
                                  std::uint64_t cim_writes) {
  if (!params_.adaptive || macs == 0) return;
  if (offloaded && cim_writes == 0) return;  // hit path: no programming paid
  Site& site = sites_[key];
  site.intensity = cim_writes == 0
                       ? site.intensity
                       : static_cast<double>(macs) /
                             static_cast<double>(cim_writes);
  (offloaded ? site.dev : site.host)
      .observe(latency.picoseconds() / static_cast<double>(macs),
               params_.ewma_alpha);
  observations_ += 1;
  retune_macs();
  retune_split();
}

double AdmissionController::ideal_split(const Site& site) const {
  if (!site.dev.seeded() || !site.host.seeded() || site.dev.value <= 0.0 ||
      site.host.value <= 0.0) {
    return -1.0;
  }
  // Both stripes finish together when rows are shared inversely to each
  // path's per-MAC latency: host share f* = dev / (dev + host).
  return site.dev.value / (site.dev.value + site.host.value);
}

double AdmissionController::split_fraction_for(const SiteKey& key) const {
  const auto it = sites_.find(key);
  if (it == sites_.end()) return knob_split_;
  const double ideal = ideal_split(it->second);
  if (ideal < 0.0) return knob_split_;
  return split_rung(split_rung_index(ideal));
}

void AdmissionController::retune_split() {
  // The global knob tracks the largest fully-observed site: only jobs above
  // SplitConfig::min_macs split at all, so small sites must not drag the
  // fraction toward their (overhead-dominated) host latencies.
  const Site* best = nullptr;
  std::uint64_t best_macs = 0;
  for (const auto& [key, site] : sites_) {
    if (ideal_split(site) < 0.0) continue;
    const std::uint64_t macs = key.m * key.n * key.k;
    if (best == nullptr || macs > best_macs) {
      best = &site;
      best_macs = macs;
    }
  }
  if (best == nullptr) return;
  const double target = split_rung(split_rung_index(ideal_split(*best)));
  if (target != knob_split_) {
    knob_split_ = target;
    retunes_ += 1;
    if (obs::enabled()) {
      obs::Tracer::instance().instant(
          "admission", "retune_split", obs::Tracer::instance().last_tick(),
          {{"rung_permille",
            static_cast<std::uint64_t>(knob_split_ * 1000.0)}});
    }
  }
}

void AdmissionController::retune_macs() {
  // The knee: every site where the host EWMA beats the device EWMA should
  // fall below the threshold, every site where the device wins should clear
  // it. Intensity is monotone in practice (more MACs amortize the same
  // programming cost), so the smallest ladder rung above the best
  // host-winning intensity separates the two sets.
  double losing_max = -1.0;  // highest intensity the host wins
  bool any = false;
  for (const auto& [key, site] : sites_) {
    if (!site.dev.seeded() || !site.host.seeded() || site.intensity <= 0.0) {
      continue;
    }
    any = true;
    if (site.host.value < site.dev.value) {
      losing_max = std::max(losing_max, site.intensity);
    }
  }
  if (!any) return;
  double target = 0.0;  // no host-winning site: offload everything
  if (losing_max > 0.0) {
    target = rung(params_.ladder_rungs - 1);
    for (int i = 0; i < params_.ladder_rungs; ++i) {
      if (rung(i) > losing_max) {
        target = rung(i);
        break;
      }
    }
  }
  if (target != knob_macs_) {
    knob_macs_ = target;
    retunes_ += 1;
    if (obs::enabled()) {
      obs::Tracer::instance().instant(
          "admission", "retune_macs", obs::Tracer::instance().last_tick(),
          {{"knob", static_cast<std::uint64_t>(knob_macs_)}});
    }
  }
}

void AdmissionController::observe_copy(std::uint64_t bytes, bool host_path,
                                       support::Duration host_cost) {
  if (!params_.adaptive || bytes == 0) return;
  if (host_path) {
    host_ps_per_byte_.observe(
        host_cost.picoseconds() / static_cast<double>(bytes),
        params_.ewma_alpha);
  } else {
    enqueue_overhead_ps_.observe(host_cost.picoseconds(), params_.ewma_alpha);
  }
  if (!host_ps_per_byte_.seeded() || !enqueue_overhead_ps_.seeded() ||
      host_ps_per_byte_.value <= 0.0) {
    return;
  }
  // Break-even size: below it the host memcpy finishes before the enqueue
  // round trip would; snap to the next power of two for stability.
  const double break_even =
      enqueue_overhead_ps_.value / host_ps_per_byte_.value;
  std::uint64_t snapped = params_.min_async_floor;
  while (snapped < break_even && snapped < params_.min_async_ceiling) {
    snapped <<= 1;
  }
  snapped = std::clamp(snapped, params_.min_async_floor,
                       params_.min_async_ceiling);
  if (snapped != knob_async_) {
    knob_async_ = snapped;
    retunes_ += 1;
    if (obs::enabled()) {
      obs::Tracer::instance().instant(
          "admission", "retune_async", obs::Tracer::instance().last_tick(),
          {{"knob", knob_async_}});
    }
  }
}

double AdmissionController::device_ps_per_mac() const {
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& [key, site] : sites_) {
    if (!site.dev.seeded() || site.dev.value <= 0.0) continue;
    // Weight by dispatch traffic so the estimate tracks the live mix; a
    // site observed but never re-dispatched still contributes its
    // device observations.
    const double w =
        static_cast<double>(std::max(site.dispatches, site.dev.count));
    weighted += site.dev.value * w;
    weight += w;
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

AdmissionReport AdmissionController::report() const {
  AdmissionReport rep;
  rep.sites = sites_.size();
  rep.observations = observations_;
  rep.probes_host = probes_host_;
  rep.probes_device = probes_device_;
  rep.retunes = retunes_;
  rep.min_macs_per_write = knob_macs_;
  rep.min_async_bytes = knob_async_;
  rep.split_fraction = knob_split_;
  return rep;
}

}  // namespace tdo::serve
