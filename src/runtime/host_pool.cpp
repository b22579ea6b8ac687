#include "runtime/host_pool.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace tdo::rt {

HostWorkerPool::HostWorkerPool(sim::System& system, HostPoolParams params)
    : system_{system}, params_{std::move(params)} {
  worker_busy_until_.assign(
      static_cast<std::size_t>(std::max(params_.workers, 0)), 0);
  auto& stats = system_.stats();
  const std::string& p = params_.name;
  const Counters& c = counters_;
  stats.register_counter(p + ".jobs", &c.jobs);
  stats.register_counter(p + ".completed", &c.completed);
  stats.register_counter(p + ".macs", &c.macs);
  stats.register_counter(p + ".busy_ticks", &c.busy_ticks);
  stats.register_energy(p + ".energy", &energy_);
}

HostWorkerPool::~HostWorkerPool() {
  auto& stats = system_.stats();
  const Counters& c = counters_;
  for (const support::Counter* counter :
       {&c.jobs, &c.completed, &c.macs, &c.busy_ticks}) {
    stats.unregister_counter(counter);
  }
  stats.unregister_energy(&energy_);
}

sim::Tick HostWorkerPool::busy_until() const {
  sim::Tick latest = 0;
  for (const sim::Tick t : worker_busy_until_) latest = std::max(latest, t);
  return latest;
}

HostPoolTicket HostWorkerPool::submit(const HostStripeJob& job) {
  HostPoolTicket ticket;
  if (!enabled() || job.m == 0 || job.n == 0 || job.k == 0) return ticket;

  // Exact math now (results land in simulated memory immediately, like the
  // CPU-fallback loop); timing is booked on the worker's own clock so it
  // overlaps the accelerator instead of blocking the driver thread.
  auto& mem = system_.memory();
  for (std::uint64_t i = 0; i < job.m; ++i) {
    for (std::uint64_t j = 0; j < job.n; ++j) {
      double acc = 0.0;
      for (std::uint64_t kk = 0; kk < job.k; ++kk) {
        acc += static_cast<double>(
                   mem.read_scalar<float>(job.pa_a + (i * job.lda + kk) * 4)) *
               static_cast<double>(
                   mem.read_scalar<float>(job.pa_b + (kk * job.ldb + j) * 4));
      }
      const sim::PhysAddr c_addr = job.pa_c + (i * job.ldc + j) * 4;
      double out = static_cast<double>(job.alpha) * acc;
      if (job.beta != 0.0f) {
        out += static_cast<double>(job.beta) *
               static_cast<double>(mem.read_scalar<float>(c_addr));
      }
      mem.write_scalar<float>(c_addr, static_cast<float>(out));
    }
  }

  const std::uint64_t stripe_macs = job.m * job.n * job.k;
  const auto& host = system_.cpu().params();
  const support::Duration span = host.frequency.cycles(
      params_.dispatch_cycles +
      params_.cycles_per_mac * static_cast<double>(stripe_macs));

  const sim::Tick now =
      std::max(system_.events().now(), system_.cpu().elapsed().ticks());
  std::size_t worker = 0;
  for (std::size_t w = 1; w < worker_busy_until_.size(); ++w) {
    if (worker_busy_until_[w] < worker_busy_until_[worker]) worker = w;
  }
  const sim::Tick start = std::max(now, worker_busy_until_[worker]);
  const sim::Tick done = start + span.ticks();
  worker_busy_until_[worker] = done;

  counters_.jobs.add();
  counters_.macs.add(stripe_macs);
  counters_.busy_ticks.add(span.ticks());
  energy_.add(host.energy_per_inst * (params_.instructions_per_mac *
                                      static_cast<double>(stripe_macs)));

  // Retire in submission order: a stripe that lands on an idler worker can
  // finish before an earlier one, but observers (the serving scheduler's
  // harvest) key on "completed count reaches N", which is only exact under
  // FIFO retirement — the same contract the accelerator's job-done
  // interrupt provides.
  const std::size_t index = done_.size();
  done_.push_back(0);
  system_.events().schedule_at(done, params_.name + ".stripe_done",
                               [this, index] {
    done_[index] = 1;
    std::uint64_t retired = 0;
    while (retire_ < done_.size() && done_[retire_] != 0) {
      ++retire_;
      ++retired;
    }
    if (retired == 0) return;
    counters_.completed.add(retired);
    if (observer_) {
      observer_(counters_.completed.value(), system_.events().now());
    }
  });

  if (obs::enabled()) {
    obs::Tracer::instance().span(
        params_.name + "/w" + std::to_string(worker), "stripe", start,
        done - start,
        {{"seq", static_cast<std::uint64_t>(index) + 1},
         {"macs", stripe_macs}});
  }

  ticket.accepted = true;
  ticket.worker = static_cast<int>(worker);
  ticket.start = start;
  ticket.done = done;
  return ticket;
}

}  // namespace tdo::rt
