// Per-EMS-domain health tracking: a consecutive-timeout circuit breaker.
//
// Every controller EMS command reports its transport outcome here. A run
// of consecutive timeouts against one domain trips that domain's breaker
// open: further commands fail fast with kUnavailable instead of burning
// 30-second protocol timeouts against a dead EMS. After a cooldown the
// breaker goes half-open and admits one probe command; a success closes
// it, another timeout re-opens it. Modelled on the classic Nygard circuit
// breaker; thresholds are deliberately conservative (an EMS restart takes
// tens of seconds, a retransmit storm should not flap the breaker).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace griphon::telemetry {
class Telemetry;
}  // namespace griphon::telemetry

namespace griphon::core {

class EmsHealthTracker {
 public:
  /// Consecutive transport timeouts that trip the breaker open.
  static constexpr int kFailureThreshold = 3;
  /// Open -> half-open after this cooldown (one probe admitted).
  static constexpr SimTime kOpenCooldown = seconds(45);

  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  explicit EmsHealthTracker(sim::Engine* engine) : engine_(engine) {}

  /// May a command be issued to `domain` right now? False while the
  /// breaker is open (callers fail fast with kUnavailable). In half-open
  /// state exactly one caller is admitted as the probe until its outcome
  /// is recorded.
  [[nodiscard]] bool allow(const std::string& domain);

  void record_success(const std::string& domain);
  void record_timeout(const std::string& domain);

  [[nodiscard]] BreakerState state(const std::string& domain) const;
  [[nodiscard]] int consecutive_timeouts(const std::string& domain) const;

  struct Stats {
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
    std::uint64_t fast_failures = 0;  ///< commands shed while open
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Attach/detach telemetry (null = fast path). Registers
  /// griphon_controller_ems_breaker_{opened,closed}_total counters and a
  /// griphon_controller_ems_breaker_open gauge, labelled per domain.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

 private:
  struct Domain {
    BreakerState state = BreakerState::kClosed;
    int consecutive_timeouts = 0;
    SimTime opened_at{};
    bool probe_in_flight = false;
  };

  Domain& domain_of(const std::string& name) { return domains_[name]; }
  void open_breaker(const std::string& name, Domain& d);
  void close_breaker(const std::string& name, Domain& d);
  void gauge_set(const std::string& name, double value);

  sim::Engine* engine_;
  std::map<std::string, Domain> domains_;
  Stats stats_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

[[nodiscard]] constexpr const char* to_string(
    EmsHealthTracker::BreakerState s) noexcept {
  switch (s) {
    case EmsHealthTracker::BreakerState::kClosed:
      return "closed";
    case EmsHealthTracker::BreakerState::kOpen:
      return "open";
    case EmsHealthTracker::BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

}  // namespace griphon::core
