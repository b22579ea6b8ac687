// Discrete-event simulation core (gem5-style event queue).
//
// The CIM accelerator side of the system (micro-engine, DMA, crossbar
// operations) is simulated event-driven; the host CPU runs in an
// atomic/accumulate mode and synchronizes with the queue at offload
// boundaries (see DESIGN.md Section 5).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "support/units.hpp"

namespace tdo::sim {

/// Simulation time in integral picosecond ticks.
using Tick = std::uint64_t;

[[nodiscard]] constexpr support::Duration from_ticks(Tick t) {
  return support::Duration::from_ps(static_cast<double>(t));
}

/// A scheduled callback. Events are one-shot; recurring behaviour reschedules
/// itself from inside the callback.
struct Event {
  Tick when = 0;
  std::uint64_t sequence = 0;  // FIFO tie-break for same-tick events
  std::string label;           // for tracing
  std::function<void()> action;
};

/// Priority queue of events ordered by (when, sequence).
class EventQueue {
 public:
  /// Schedules `action` at absolute tick `when` (must be >= now()).
  void schedule_at(Tick when, std::string label, std::function<void()> action);

  /// Runs events with `when <= limit`. Advances now() to `limit` even when
  /// the queue drains earlier. Returns now().
  Tick run_until(Tick limit);

  [[nodiscard]] Tick now() const { return now_; }
  /// Tick of the earliest pending event; now() when the queue is empty.
  /// Cooperative drivers (the serving scheduler's drain loop) use this to
  /// advance time exactly to the next completion instead of polling.
  [[nodiscard]] Tick next_when() const {
    return queue_.empty() ? now_ : queue_.top().when;
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Moves the current time forward without executing anything; no pending
  /// event may be due before `t` (a driver joining submitter-thread clocks
  /// onto the queue clock).
  void advance_to(Tick t);

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Tick now_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace tdo::sim
