// Serving-layer request model (multi-tenant front end over the BLAS facade).
//
// TDO-CIM's runtime decides *where* one call runs; the ROADMAP's north star
// is serving heavy traffic from many users, which additionally needs a layer
// that decides *when* and *with whom* a call runs. A Request is one tenant's
// inference-style BLAS call (sgemm/sgemv) tagged with a deadline class; the
// scheduler (serve/scheduler.hpp) queues it per tenant, coalesces same-shape
// same-weight requests into batched launches, and emits a Completion record
// carrying the exact arrival/dispatch/done timeline for tail-latency
// accounting.
#pragma once

#include <cstdint>

#include "cim/context_regs.hpp"
#include "sim/system.hpp"
#include "support/units.hpp"

namespace tdo::serve {

enum class Op : std::uint8_t { kSgemm, kSgemv };

/// Latency expectation attached by the tenant. Classes are strict dispatch
/// priorities (interactive preempts standard preempts batch at batch-close
/// granularity — a running launch is never revoked).
enum class DeadlineClass : std::uint8_t {
  kInteractive = 0,
  kStandard = 1,
  kBatch = 2,
};
inline constexpr std::size_t kDeadlineClasses = 3;

[[nodiscard]] inline const char* to_string(DeadlineClass c) {
  switch (c) {
    case DeadlineClass::kInteractive: return "interactive";
    case DeadlineClass::kStandard: return "standard";
    case DeadlineClass::kBatch: return "batch";
  }
  return "?";
}

/// One asynchronous serving request. For kSgemm: c = alpha*a*b + beta*c with
/// row-major m x k / k x n / m x n operands; the stationary operand (the
/// "weights" in a serving workload) is `b` under StationaryOperand::kB.
/// For kSgemv: y(=c) = alpha*A(=a)*x(=b) + beta*y, shapes via m/n.
struct Request {
  std::uint64_t id = 0;  ///< assigned by Scheduler::submit
  std::uint32_t tenant = 0;
  DeadlineClass deadline = DeadlineClass::kStandard;
  Op op = Op::kSgemm;

  std::uint64_t m = 0, n = 0, k = 0;
  float alpha = 1.0f, beta = 0.0f;
  sim::VirtAddr a = 0;  ///< activations (kSgemv: the matrix A)
  sim::VirtAddr b = 0;  ///< weights / stationary operand (kSgemv: the vector x)
  sim::VirtAddr c = 0;  ///< output
  std::uint64_t lda = 0, ldb = 0, ldc = 0;
  bool transpose = false;  ///< kSgemv only
  cim::StationaryOperand stationary = cim::StationaryOperand::kB;
  /// The stationary operand is reused across requests: consult the
  /// weight-residency cache and route by affinity.
  bool cacheable = true;

  /// Tenant share weight for the scheduler's deficit round robin: a weight-w
  /// tenant receives w requests of service per DRR round against a weight-1
  /// competitor in the same deadline class. 0 means "keep the tenant's
  /// current weight" (default 1); a positive value re-registers the tenant's
  /// weight on enqueue, so front ends can carry the share contract on the
  /// request itself instead of a separate registration call.
  std::uint32_t weight = 0;

  /// Arrival time; zero means "stamp with now at submit". An explicit value
  /// in the past models open-loop load generation (the request queued at the
  /// front end before the scheduler could look at it).
  support::Duration arrival;

  /// When the scheduler pulled this request out of its tenant queue (stamped
  /// by pop_next_request; the first checkpoint of the trace span's
  /// critical-path walk — arrival..pulled is pure queue wait).
  support::Duration pulled;

  /// MAC count of the call (the admission controller's intensity numerator).
  [[nodiscard]] std::uint64_t macs() const {
    return op == Op::kSgemm ? m * n * k : m * n;
  }
  /// Crossbar weight writes a cache-miss dispatch pays (intensity
  /// denominator): the stationary tile's cells.
  [[nodiscard]] std::uint64_t cim_writes() const {
    return op == Op::kSgemm ? k * n : m * n;
  }
};

/// Dense row-major sgemm request with packed leading dimensions (lda = k,
/// ldb = n, ldc = n); every other field keeps its default.
[[nodiscard]] inline Request sgemm_request(std::uint32_t tenant,
                                           DeadlineClass cls, std::uint64_t m,
                                           std::uint64_t n, std::uint64_t k,
                                           sim::VirtAddr a, sim::VirtAddr b,
                                           sim::VirtAddr c) {
  Request request;
  request.tenant = tenant;
  request.deadline = cls;
  request.m = m;
  request.n = n;
  request.k = k;
  request.a = a;
  request.b = b;
  request.c = c;
  request.lda = k;
  request.ldb = n;
  request.ldc = n;
  return request;
}

/// Timeline of one finished request.
///
/// "Finished" includes requests the scheduler dropped: overload shedding and
/// pump-time rejection surface a completion-style record too (outcome kShed /
/// kRejected, done stamped at the drop tick, device -1), so closed-loop
/// clients waiting on an id always unblock. Dropped records never enter the
/// latency histograms or the completed counter.
struct Completion {
  enum class Outcome : std::uint8_t {
    kDone = 0,      ///< ran to completion; latency fields are meaningful
    kShed = 1,      ///< dropped by overload shedding before dispatch
    kRejected = 2,  ///< dropped at pump time (per-tenant bound on ring path)
  };

  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  DeadlineClass deadline = DeadlineClass::kStandard;
  Outcome outcome = Outcome::kDone;
  support::Duration arrival;
  support::Duration dispatch;  ///< when the scheduler launched its batch
  support::Duration done;
  int device = -1;       ///< accelerator that ran it; -1 for host/mixed
  bool offloaded = false;  ///< at least one device job (vs full CPU fallback)
  std::uint32_t batch_size = 1;  ///< requests coalesced into its launch

  [[nodiscard]] support::Duration latency() const { return done - arrival; }
  [[nodiscard]] support::Duration queue_delay() const {
    return dispatch - arrival;
  }
};

}  // namespace tdo::serve
