// Simulation-time tracing: span/instant/counter events stamped with
// *simulated* ticks, exported as Chrome trace-event JSON (Perfetto-loadable).
//
// Design constraints (DESIGN.md §13):
//  - Zero cost when off. Every instrumentation site guards on
//    `obs::enabled()`, a single relaxed atomic load; the tracer only ever
//    *records* — it never charges simulated time or perturbs event order —
//    so a run with tracing disabled is bit-identical to a build without it.
//  - Race-free under real submitter threads. Events land in bounded
//    per-thread shards (the support/threading.hpp ShardedRing idiom), so
//    `enqueue_from_thread` / `submit_from_thread` producers trace without
//    taking any shared lock; the simulation driver thread drains shards.
//  - Deterministic export. Events are sorted by their full field tuple
//    (tick, track, name, ...), never by arrival order, so the same seed
//    yields a byte-identical JSON stream.
//
// Track taxonomy (one Perfetto track per row):
//   engine/<accel>    job spans: trigger -> done, args {enq, wp, completed}
//   dma/<accel>.ch<k> copy-window spans, args {bytes, segs, wait}
//   link/<name>       far-fabric response-delivery spans, args {bytes, wait}
//   host_pool/w<k>    host worker stripe spans, args {seq, macs}
//   sched/<class>     per-request spans (critical-path checkpoints in args)
//   batcher, admission, residency, log, sched ...  instant/counter rows
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "support/threading.hpp"

namespace tdo::obs {

enum class Phase : std::uint8_t { kSpan = 0, kInstant = 1, kCounter = 2 };

/// One recorded event. Timestamps are simulated ticks (integer picoseconds);
/// args are typed numeric pairs so the in-memory analyzer never re-parses
/// strings and the JSON export stays locale-independent.
struct TraceEvent {
  std::string track;
  std::string name;
  Phase phase = Phase::kInstant;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;    // kSpan only
  std::uint64_t value = 0;  // kCounter only
  std::vector<std::pair<std::string, std::uint64_t>> args;
};

struct TracerParams {
  /// Bounded per-thread shard capacity; pushes beyond it are counted as
  /// dropped rather than growing without limit.
  std::size_t shard_capacity = 1u << 16;
};

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// The global on/off gate. Relaxed load — this is the *only* cost any
/// instrumentation site pays when tracing is off.
[[nodiscard]] inline bool enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide trace recorder. start()/stop()/drain run on the simulation
/// driver thread; record sites may run on any thread (each lands in its own
/// shard). Sites without clock access stamp with last_tick().
class Tracer {
 public:
  static Tracer& instance();

  /// Clears any previous trace and enables recording.
  void start(TracerParams params = {});
  /// Disables recording (producer threads must be joined) and drains the
  /// shards so events() sees everything.
  void stop();
  /// Drops all recorded events (does not change the enabled state).
  void clear();

  void span(std::string track, std::string name, std::uint64_t ts,
            std::uint64_t dur,
            std::vector<std::pair<std::string, std::uint64_t>> args = {});
  void instant(std::string track, std::string name, std::uint64_t ts,
               std::vector<std::pair<std::string, std::uint64_t>> args = {});
  void counter(std::string track, std::string name, std::uint64_t ts,
               std::uint64_t value);

  /// Most recent explicitly-stamped tick; clockless sites (log lines,
  /// residency bookkeeping, admission retunes) timestamp with this.
  [[nodiscard]] std::uint64_t last_tick() const {
    return last_tick_.load(std::memory_order_relaxed);
  }
  /// Advances last_tick() monotonically (also done by every explicit-ts
  /// record); the driver calls this as simulated time moves.
  void note_tick(std::uint64_t tick);

  /// Drains the per-thread shards into the collected list (driver thread).
  void pump();

  /// All events pumped so far, sorted by the full field tuple — the
  /// deterministic stream the exporter and analyzer consume.
  [[nodiscard]] std::vector<TraceEvent> sorted_events();

  /// Chrome trace-event JSON ("traceEvents" array, ph X/i/C/M). Tracks map
  /// to pid 1 / one tid per track named via thread_name metadata; ts/dur are
  /// microseconds with .6f precision (exact for integer-picosecond ticks).
  void export_json(std::ostream& os);

  /// Total events refused because a shard was full. Per-shard counts point
  /// at which producer (thread shard) overflowed; both are exported in the
  /// JSON metadata so overflow is visible, not just counted.
  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t total = 0;
    for (const auto& shard : drop_shards_) {
      total += shard.count.load(std::memory_order_relaxed);
    }
    return total;
  }
  [[nodiscard]] std::array<std::uint64_t, support::kStatShards>
  dropped_by_shard() const {
    std::array<std::uint64_t, support::kStatShards> out{};
    for (std::size_t i = 0; i < support::kStatShards; ++i) {
      out[i] = drop_shards_[i].count.load(std::memory_order_relaxed);
    }
    return out;
  }
  [[nodiscard]] std::size_t collected_count() const {
    return collected_.size();
  }
  [[nodiscard]] const TracerParams& params() const { return params_; }

 private:
  Tracer();

  void record(TraceEvent event);

  TracerParams params_{};
  /// Owned indirectly: ShardedRing holds atomics (not reassignable), and
  /// start() rebuilds it to apply the configured shard capacity.
  std::unique_ptr<support::ShardedRing<TraceEvent>> ring_;
  std::vector<TraceEvent> collected_;
  /// Cache-line-padded per-shard drop counts (same sharding as the ring, so
  /// a full shard's producer only ever touches its own line).
  struct alignas(64) DropShard {
    std::atomic<std::uint64_t> count{0};
  };
  std::array<DropShard, support::kStatShards> drop_shards_{};
  std::atomic<std::uint64_t> last_tick_{0};
};

}  // namespace tdo::obs
