// The simulator's one event ring: "what happened and when".
//
// Components append records (time, level, actor, event, detail,
// correlation tag) at notable transitions — connection lifecycle changes,
// command retries, fiber cuts, EMS crashes, breaker open/close, resync
// audits, injected faults, SLO alerts, reopt campaigns. The ring is owned
// by sim::Engine, so it is always on and every emitter stamps the engine's
// clock. Kept as values, not formatted strings, so consumers can filter
// cheaply; TraceExporter turns retained records into Chrome-trace instants.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace griphon::sim {

enum class TraceLevel { kInfo, kWarn, kError };

[[nodiscard]] const char* to_string(TraceLevel level) noexcept;

struct TraceRecord {
  SimTime when{};
  TraceLevel level = TraceLevel::kInfo;
  std::string actor;   ///< e.g. "roadm-ems", "controller", "slo-monitor"
  std::string event;   ///< e.g. "setup-done", "fiber-cut", "slo", "breaker"
  std::string detail;  ///< free-form context
  CorrelationTag tag = 0;  ///< connection correlation (0 = untagged)
};

/// Owner-thread only (DESIGN.md §15): the simulation thread emits and
/// reads; nothing here is locked.
class Trace {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  void emit(SimTime when, TraceLevel level, std::string actor,
            std::string event, std::string detail = {},
            CorrelationTag tag = 0);

  /// Retained records, oldest first: only the newest `capacity` records
  /// survive (see set_capacity).
  [[nodiscard]] const std::vector<TraceRecord>& records() const;
  void clear() {
    records_.clear();
    head_ = 0;
    dropped_ = 0;
    overflow_warned_ = false;
  }

  /// Number of retained records whose event name matches exactly.
  [[nodiscard]] std::size_t count(std::string_view event) const;

  /// Bound the ring to the newest `capacity` records (default
  /// kDefaultCapacity, so long runs stay O(capacity) in memory); 0 keeps
  /// everything. Shrinking below the current size drops the oldest
  /// records immediately.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const {
    return capacity_;
  }
  /// Records evicted by the ring so far.
  [[nodiscard]] std::size_t dropped_count() const {
    return dropped_;
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
  std::size_t capacity_ = kDefaultCapacity;  ///< 0 = unbounded
  std::size_t dropped_ = 0;
  /// First-drop warning already emitted.
  bool overflow_warned_ = false;
};

/// One line: "[t s] LEVEL actor event (detail) #tag".
std::ostream& operator<<(std::ostream& os, const TraceRecord& r);

}  // namespace griphon::sim
