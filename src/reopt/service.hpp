// Re-optimization driver: analysis cadence, trip policy, campaigns.
//
// The ReoptService owns the analyzer, the planner, and the executor, and
// wires them to the sim clock: every `period` it scores the wavelength
// plane; when the mean fragmentation score trips `trip_threshold` (and at
// least `min_moves` strictly-improving moves exist) it runs a migration
// campaign. Campaigns never overlap, and connections the exempt provider
// names — the BoD layer supplies connections inside calendar-committed
// transfer windows — are never touched. While the controller is in a
// restoration storm the periodic trip is held: defragmentation competes
// with restorations for the same wavelengths and EMS dialogue budget, so
// the tick defers until the storm clears (explicit run_campaign() is an
// operator override and still runs).
//
// Observability: griphon_reopt_* counters on the deployment's telemetry,
// bare-named gauges for the GaugeSampler (fragmentation mean/max,
// stranded pairs, campaign totals), and fragmentation_objective() for the
// SloMonitor. The objective reads NaN until the first analysis has run,
// which freezes the SLO hysteresis streaks — a monitor that starts before
// traffic must not trip on "no data".
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "reopt/executor.hpp"
#include "reopt/fragmentation.hpp"
#include "reopt/planner.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/slo.hpp"

namespace griphon::reopt {

class ReoptService {
 public:
  struct Params {
    SimTime period = hours(1);    ///< analysis cadence once start()ed
    double trip_threshold = 0.3;  ///< mean fragmentation score tripping a run
    std::size_t min_moves = 1;    ///< don't campaign for fewer moves
    std::size_t max_moves_per_campaign = 64;
    MigrationExecutor::Params executor{};  // griphon-lint: allow(unset-option) test_reopt ReoptCampaign.*: the executor's kept fields (see MigrationExecutor::Params)
    /// Demand pairs probed for stranded capacity (typically the DC sites).
    std::vector<std::pair<NodeId, NodeId>> pairs;
  };

  /// Connections a campaign must not touch (queried at planning time).
  using ExemptProvider = std::function<std::set<ConnectionId>()>;

  ReoptService(core::GriphonController* controller, Params params);
  ~ReoptService() { stop(); }

  ReoptService(const ReoptService&) = delete;
  ReoptService& operator=(const ReoptService&) = delete;

  void set_exempt_provider(ExemptProvider provider) {
    exempt_ = std::move(provider);
  }

  /// Begin the periodic analyze-and-maybe-campaign loop.
  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Score the wavelength plane now; retained as last_report().
  const FragmentationReport& analyze();
  /// Compute a migration delta for the current live set (no execution).
  [[nodiscard]] MigrationPlan plan_now() const;
  /// Run one campaign now regardless of the trip threshold. `done` may be
  /// null; fires after the campaign drains.
  void run_campaign(MigrationExecutor::DoneCallback done);

  struct Stats {
    std::size_t analyses = 0;
    std::size_t campaigns_started = 0;
    std::size_t campaigns_completed = 0;
    std::size_t campaigns_aborted = 0;
    std::size_t moves_rolled = 0;
    std::size_t moves_skipped = 0;
    std::size_t moves_failed = 0;
    std::size_t cycle_breaks = 0;
    std::size_t campaigns_held_storm = 0;  ///< ticks deferred by a storm
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Null until the first analyze().
  [[nodiscard]] const FragmentationReport* last_report() const noexcept {
    return last_report_ ? &*last_report_ : nullptr;
  }
  /// Null until the first campaign completes.
  [[nodiscard]] const MigrationExecutor::CampaignReport* last_campaign()
      const noexcept {
    return last_campaign_ ? &*last_campaign_ : nullptr;
  }
  [[nodiscard]] bool campaign_in_progress() const noexcept {
    return executor_.running();
  }
  [[nodiscard]] GlobalPlanner& planner() noexcept { return planner_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Register reopt gauges (fragmentation mean/max, stranded pairs,
  /// campaign totals) on the deployment's sampler.
  void install_probes(telemetry::GaugeSampler& sampler);

 private:
  void schedule_tick();
  void on_tick();
  void sync_metrics();

  core::GriphonController* controller_;
  Params params_;
  FragmentationAnalyzer analyzer_;
  GlobalPlanner planner_;
  MigrationExecutor executor_;
  ExemptProvider exempt_;
  Stats stats_;
  std::optional<FragmentationReport> last_report_;
  std::optional<MigrationExecutor::CampaignReport> last_campaign_;
  bool running_ = false;
  sim::EventHandle pending_{};
};

/// SLO objective: mean fragmentation score <= bound. NaN (streak-freezing)
/// until the service has produced its first report — see slo.hpp.
[[nodiscard]] telemetry::Objective fragmentation_objective(
    const ReoptService& service, double bound);

}  // namespace griphon::reopt
