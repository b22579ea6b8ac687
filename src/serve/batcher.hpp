// Dynamic batch formation for the serving scheduler.
//
// Same-shape requests against the same stationary operand coalesce into one
// sgemm_batched_async launch: the crossbar programs the shared weights once
// (or not at all on a residency hit), the per-job setup and driver round
// trips amortize across the batch, and the device sees one table-driven job
// instead of B separate ones. A batch closes when it reaches `max_batch`
// requests or its oldest member has waited `max_wait` — the classic
// dynamic-batching tradeoff between amortization and added queueing delay.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "serve/request.hpp"
#include "support/units.hpp"

namespace tdo::serve {

/// Coalescing identity: requests batch together iff every field matches
/// (sgemm_batched_async requires shared dims, leading dimensions and
/// scalars; a shared `weights` pointer is what makes the stationary operand
/// reusable inside the launch).
struct BatchKey {
  Op op = Op::kSgemm;
  std::uint64_t m = 0, n = 0, k = 0;
  std::uint64_t lda = 0, ldb = 0, ldc = 0;
  float alpha = 1.0f, beta = 0.0f;
  sim::VirtAddr weights = 0;
  cim::StationaryOperand stationary = cim::StationaryOperand::kB;
  bool transpose = false;  ///< kSgemv only
  bool cacheable = true;

  [[nodiscard]] static BatchKey of(const Request& r) {
    // The weights are whichever operand stays programmed in the crossbar:
    // for sgemm, b under StationaryOperand::kB and a under kA; for sgemv
    // always the matrix (r.a — r.b is the streamed x vector).
    const sim::VirtAddr weights =
        r.op == Op::kSgemv
            ? r.a
            : (r.stationary == cim::StationaryOperand::kB ? r.b : r.a);
    return BatchKey{r.op, r.m, r.n, r.k, r.lda, r.ldb, r.ldc,
                    r.alpha, r.beta, weights, r.stationary,
                    r.op == Op::kSgemv && r.transpose, r.cacheable};
  }
  [[nodiscard]] bool operator==(const BatchKey& other) const {
    return op == other.op && m == other.m && n == other.n && k == other.k &&
           lda == other.lda && ldb == other.ldb && ldc == other.ldc &&
           alpha == other.alpha && beta == other.beta &&
           weights == other.weights && stationary == other.stationary &&
           transpose == other.transpose && cacheable == other.cacheable;
  }
};

/// A closed (dispatch-ready) or still-open batch.
struct Batch {
  BatchKey key;
  std::vector<Request> requests;
  /// Highest priority among members (a later interactive join promotes the
  /// whole batch) and the earliest member arrival (dispatch ordering).
  DeadlineClass deadline = DeadlineClass::kBatch;
  support::Duration oldest_enqueue;
};

struct BatcherParams {
  std::size_t max_batch = 8;
  /// Batch-close age bound, measured from the oldest member's *enqueue into
  /// the batcher* (not its arrival: a request that aged in an admission
  /// queue should not force-close an otherwise fresh batch).
  support::Duration max_wait = support::Duration::from_us(50.0);
};

class Batcher {
 public:
  explicit Batcher(BatcherParams params) : params_{params} {}

  /// Adds one request at time `now`, opening a batch for its key if none is
  /// open. A batch that reaches max_batch moves to the ready list, as does a
  /// batch at least half of max_batch whose priority a strictly-higher-class
  /// join just promoted (preemptive split: the interactive newcomer must not
  /// sit out the old members' age clock).
  void add(const Request& request, support::Duration now);

  /// Closes every open batch whose oldest member has waited >= max_wait,
  /// then returns all ready batches ordered by (deadline class, oldest
  /// member) — the dispatch order.
  [[nodiscard]] std::vector<Batch> take_ready(support::Duration now);

  /// Closes and returns everything (drain path), same ordering.
  [[nodiscard]] std::vector<Batch> take_all(support::Duration now);

  /// Earliest future tick at which an open batch will age out, if any open
  /// batch exists. Ready batches report "now" (dispatch immediately).
  [[nodiscard]] std::optional<support::Duration> next_close_time() const;

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const BatcherParams& params() const { return params_; }

  /// The one dispatch ordering (deadline class, then oldest member) —
  /// shared by take_ready() and the scheduler's pending-dispatch queue.
  [[nodiscard]] static bool dispatch_order(const Batch& a, const Batch& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.oldest_enqueue < b.oldest_enqueue;
  }

 private:
  BatcherParams params_;
  std::vector<Batch> open_;
  std::vector<Batch> ready_;
};

}  // namespace tdo::serve
