#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace tdo::sim {

void EventQueue::schedule_at(Tick when, std::string label,
                             std::function<void()> action) {
  assert(when >= now_ && "cannot schedule in the past");
  queue_.push(Event{when, next_sequence_++, std::move(label), std::move(action)});
}

Tick EventQueue::run_until(Tick limit) {
  while (!queue_.empty() && queue_.top().when <= limit) {
    // Copy out before pop: the action may schedule new events.
    Event event = queue_.top();
    queue_.pop();
    now_ = event.when;
    ++executed_;
    event.action();
  }
  if (now_ < limit) now_ = limit;
  return now_;
}

void EventQueue::advance_to(Tick t) {
  if (t > now_) {
    assert((queue_.empty() || queue_.top().when >= t) &&
           "advancing past pending events");
    now_ = t;
  }
}

}  // namespace tdo::sim
