#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>

namespace griphon::sim {

EventHandle Engine::schedule(SimTime delay, Callback fn) {
  return schedule_at(now_ + std::max(SimTime{}, delay), std::move(fn));
}

EventHandle Engine::schedule_at(SimTime when, Callback fn) {
  assert(fn && "scheduling an empty callback");
  const auto seq = next_seq_++;
  when = std::max(when, now_);
  queue_.push(Event{when, seq, std::move(fn)});
  return EventHandle{seq, when};
}

bool Engine::gone(const EventHandle& h) const noexcept {
  if (h.seq_ < drained_seq_) return true;
  if (h.when_ != popped_when_) return h.when_ < popped_when_;
  return h.seq_ <= popped_seq_;
}

void Engine::cancel(EventHandle handle) {
  if (!handle.valid() || gone(handle)) return;
  if (std::find(cancelled_.begin(), cancelled_.end(), handle.seq_) !=
      cancelled_.end())
    return;  // already cancelled
  cancelled_.push_back(handle.seq_);
  ++cancelled_pending_;
}

bool Engine::pop_one(SimTime horizon) {
  // The horizon is checked against every entry, cancelled ones included:
  // dropping a cancelled entry inside the horizon must not let the loop
  // fire a live event from beyond it.
  while (!queue_.empty() && queue_.top().when <= horizon) {
    // priority_queue has no non-const top-move; copy of the std::function is
    // unavoidable without a custom heap, and event rates here are low.
    Event ev = queue_.top();
    queue_.pop();
    popped_when_ = ev.when;
    popped_seq_ = ev.seq;
    const auto it =
        std::find(cancelled_.begin(), cancelled_.end(), ev.seq);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      --cancelled_pending_;
      continue;
    }
    now_ = ev.when;
    ++fired_;
    ev.fn();
    return true;
  }
  if (queue_.empty()) {
    drained_seq_ = next_seq_;
    popped_when_ = now_;
    popped_seq_ = 0;
  }
  return false;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (pop_one(SimTime::max())) ++n;
  return n;
}

std::size_t Engine::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (pop_one(deadline)) ++n;
  now_ = std::max(now_, deadline);
  return n;
}

bool Engine::step() { return pop_one(SimTime::max()); }

std::size_t Engine::pending() const noexcept {
  return queue_.size() - cancelled_pending_;
}

}  // namespace griphon::sim
