// Structured trace log for the simulator.
//
// Components append records (time, actor, event, detail). Tests assert on
// the sequence; benches and examples can print it. Kept as values, not
// formatted strings, so consumers can filter cheaply.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace griphon::sim {

enum class TraceLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

[[nodiscard]] const char* to_string(TraceLevel level) noexcept;

struct TraceRecord {
  SimTime when{};
  TraceLevel level = TraceLevel::kInfo;
  std::string actor;   ///< e.g. "roadm-ems/2", "controller"
  std::string event;   ///< e.g. "xconnect", "alarm", "setup-done"
  std::string detail;  ///< free-form context
};

/// Owner-thread only (DESIGN.md §15): the simulation thread emits and
/// reads; nothing here is locked.
class Trace {
 public:
  void emit(SimTime when, TraceLevel level, std::string actor,
            std::string event, std::string detail = {});

  /// Retained records, oldest first. With a capacity set, only the newest
  /// `capacity` records survive (see set_capacity).
  [[nodiscard]] const std::vector<TraceRecord>& records() const;
  void clear() {
    records_.clear();
    head_ = 0;
    dropped_ = 0;
    overflow_warned_ = false;
  }

  /// Number of retained records whose event name matches exactly.
  [[nodiscard]] std::size_t count(std::string_view event) const;

  /// Minimum level retained; below it emit() is a no-op.
  void set_min_level(TraceLevel level) {
    min_level_ = level;
  }

  /// Bound the trace to a ring of the newest `capacity` records; 0 (the
  /// default) keeps everything. Soak runs and long benches set a bound so
  /// the trace cannot grow without limit; shrinking below the current size
  /// drops the oldest records immediately.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const {
    return capacity_;
  }
  /// Records evicted by the ring so far (0 while unbounded).
  [[nodiscard]] std::size_t dropped_count() const {
    return dropped_;
  }

  /// Mirror records to a stream as they are emitted (for examples/demos).
  void echo_to(std::ostream* os) {
    echo_ = os;
  }

  /// Serialize retained records for offline tooling:
  /// {"dropped": N, "records": [...]} — `dropped` makes ring truncation
  /// visible in the dump. Strings are escaped per RFC 8259.
  [[nodiscard]] std::string to_json() const;

 private:
  /// Rotate the ring so records_ is oldest-first and head_ is 0. Logically
  /// const: the record sequence is unchanged, only storage order.
  void normalize() const;

  mutable std::vector<TraceRecord> records_;
  /// Ring start when size == capacity.
  mutable std::size_t head_ = 0;
  std::size_t capacity_ = 0;  ///< 0 = unbounded
  std::size_t dropped_ = 0;
  /// First-drop warning already emitted.
  bool overflow_warned_ = false;
  TraceLevel min_level_ = TraceLevel::kDebug;
  std::ostream* echo_ = nullptr;
};

std::ostream& operator<<(std::ostream& os, const TraceRecord& r);

}  // namespace griphon::sim
