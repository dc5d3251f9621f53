// Discrete-event simulation engine.
//
// A single-threaded event loop with a simulated clock. Every active entity
// in GRIPhoN (EMS, device, controller, protocol channel, workload source)
// schedules callbacks on one Engine. Events at equal timestamps fire in
// scheduling order (FIFO tie-break), which makes runs fully deterministic.
// The engine also owns the deployment's one event ring (sim::Trace): every
// component that can stamp now() can log a transition.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/trace.hpp"

namespace griphon::sim {

/// Handle used to cancel a scheduled event. Cancellation is lazy: the slot
/// stays in the queue but fires as a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return seq_ != 0; }

 private:
  friend class Engine;
  EventHandle(std::uint64_t seq, SimTime when) : seq_(seq), when_(when) {}
  std::uint64_t seq_ = 0;
  SimTime when_{};  ///< fire time, after clamping to the schedule-time now
};

class Engine {
 public:
  using Callback = std::function<void()>;

  explicit Engine(std::uint64_t seed = 1) : rng_(seed) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Engine-owned RNG; all stochastic models should draw from it (or from
  /// forks of it) for reproducibility.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// The event ring every component logs its transitions to.
  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Schedule `fn` to run `delay` from now. Negative delays are clamped to
  /// zero (i.e. "run as soon as possible, after already-queued events at
  /// the current instant").
  EventHandle schedule(SimTime delay, Callback fn);

  /// Schedule at an absolute simulated time (>= now).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Cancel a pending event. No-op if it already fired or was cancelled.
  void cancel(EventHandle handle);

  /// Run until the queue is empty. Returns the number of events fired.
  std::size_t run();

  /// Run until the queue is empty or simulated time would exceed
  /// `deadline`; events after the deadline stay queued and `now()` is
  /// advanced to exactly `deadline`.
  std::size_t run_until(SimTime deadline);

  /// Fire at most one event. Returns false when the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending() const noexcept;
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break + cancellation key
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Fire the next live event due at or before `horizon`, dropping
  /// cancelled entries on the way. False when none is due.
  bool pop_one(SimTime horizon);
  /// The event behind `h` has left the queue (fired, or dropped as
  /// cancelled).
  [[nodiscard]] bool gone(const EventHandle& h) const noexcept;

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::uint64_t> cancelled_;  // sorted insertion not needed; small
  SimTime now_{};
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::size_t cancelled_pending_ = 0;
  // Key of the last entry popped. Until the queue drains, entries leave
  // in increasing (when, seq) order, so an event whose key is at or below
  // it has gone; everything scheduled before the last drain has gone too.
  SimTime popped_when_{};
  std::uint64_t popped_seq_ = 0;
  std::uint64_t drained_seq_ = 0;
  Rng rng_;
  Trace trace_;
};

}  // namespace griphon::sim
