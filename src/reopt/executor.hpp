// Hitless execution of a migration delta.
//
// The planner's delta is simultaneous ("final state: connection 3 on
// channel 0, connection 7 on channel 1...") but rolls happen one at a
// time on live hardware, and a move's target cells may currently be
// occupied by another mover. The executor orders the delta by that
// dependency — "my target channel is freed by your move" — and walks it
// topologically, so every roll finds its target spectrum free when it
// launches. Dependency cycles (A wants B's cells, B wants A's) are broken
// by first rolling one member to a temporary *bridge channel* high in the
// spectrum, which frees its cells for the others; it rolls again onto its
// real target once its own dependencies drain. Both hops are ordinary
// bridge-and-rolls, so the cycle break is as hitless as any other move.
//
// Safety over progress, in three layers:
//  - every launch re-verifies against a fresh Inventory snapshot (target
//    cells still free, spare endpoint optics available) and skips the
//    move otherwise — a skipped move leaves its connection untouched;
//  - the campaign aborts cleanly when the plan has gone stale under it: a
//    topology change (fiber cut/repair) or an EMS circuit breaker opening
//    stops new launches, in-flight rolls finish, and the report says why;
//  - launches are paced on the sim clock (`launch_spacing`) and bounded
//    (`max_concurrent_rolls`) so a campaign never floods the EMS queues
//    that production traffic is using.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/controller.hpp"
#include "reopt/planner.hpp"
#include "sim/engine.hpp"

namespace griphon::reopt {

class MigrationExecutor {
 public:
  struct Params {
    std::size_t max_concurrent_rolls = 2;  // griphon-lint: allow(unset-option) test_reopt ReoptCampaign.AbortsCleanlyOnFiberCut (1: one roll at a time) and ExecutorHonorsFreedByDependencies (4: ordering by freed-by edges, not by the window)
    /// Minimum sim-time spacing between roll launches.
    SimTime launch_spacing = seconds(1);  // griphon-lint: allow(unset-option) test_reopt ReoptCampaign.AbortsCleanlyOnFiberCut: a cut lands between two launches only with wide spacing
  };

  enum class MoveResult {
    kRolled,   ///< reached its target channels
    kSkipped,  ///< left untouched (stale verification, no spare optics...)
    kFailed,   ///< a roll failed; bridge-and-roll rolled the service back
  };

  struct MoveOutcome {
    ConnectionId id{};
    MoveResult result = MoveResult::kSkipped;
    bool via_scratch = false;  ///< moved through a cycle-break bridge channel
    SimTime launched_at{};
    SimTime finished_at{};
    std::string detail;
  };

  struct CampaignReport {
    std::size_t moves_planned = 0;
    std::size_t moves_rolled = 0;
    std::size_t moves_skipped = 0;
    std::size_t moves_failed = 0;
    std::size_t rolls_ok = 0;  ///< completed rolls, scratch hops included
    std::size_t rolls_failed = 0;
    std::size_t cycle_breaks = 0;
    bool aborted = false;
    std::string abort_reason;
    std::vector<MoveOutcome> outcomes;  ///< plan order
  };

  using DoneCallback = std::function<void(const CampaignReport&)>;

  MigrationExecutor(sim::Engine* engine, core::GriphonController* controller,
                    Params params);

  MigrationExecutor(const MigrationExecutor&) = delete;
  MigrationExecutor& operator=(const MigrationExecutor&) = delete;

  /// Execute one campaign; `done` fires (on the sim clock) when every move
  /// finished, was skipped, or the campaign aborted and drained. One
  /// campaign at a time — a second run() while one is live reports an
  /// immediately-aborted empty campaign.
  void run(MigrationPlan plan, DoneCallback done);

  [[nodiscard]] bool running() const noexcept { return campaign_ != nullptr; }

 private:
  enum class Phase {
    kWaiting,          ///< dependencies not drained yet
    kScratchInFlight,  ///< rolling onto the cycle-break bridge channel
    kWaitingFinal,     ///< on the bridge channel, waiting for dependencies
    kInFlight,         ///< rolling onto the target
    kDone,
  };

  struct Node {
    Move move;
    core::WavelengthPlan current;  ///< plan at campaign start / after scratch
    Phase phase = Phase::kWaiting;
    std::size_t deps_remaining = 0;
    std::vector<std::size_t> dependents;
    bool freed = false;  ///< dependents already notified
    MoveOutcome outcome;
  };

  struct Campaign {
    CampaignReport report;
    DoneCallback done;
    std::vector<Node> nodes;
    std::uint64_t span = 0;  ///< campaign tracer span (0 = telemetry off)
    std::uint64_t start_topology_version = 0;
    std::size_t in_flight = 0;
    std::size_t open = 0;  ///< nodes not yet kDone
    bool pump_scheduled = false;
  };

  void pump();
  void schedule_pump(SimTime delay);
  /// Launch node `i` toward `target`; returns false when the launch was
  /// refused (abort tripped or verification skipped the node).
  bool launch(std::size_t i, const core::WavelengthPlan& target,
              bool scratch_hop);
  void on_roll_done(std::size_t i, bool scratch_hop, const Status& status);
  void mark_freed(std::size_t i);
  void mark_done(std::size_t i, MoveResult result, std::string detail);
  bool try_break_cycle();
  /// Abort trip-wire: topology drifted from campaign start, or any EMS
  /// domain breaker is open.
  [[nodiscard]] bool should_abort(std::string* reason) const;
  /// Fill the plan's device fields with spare optics from `snap`; false
  /// when an endpoint OT or boundary regen is not available.
  bool resolve_devices(core::WavelengthPlan* plan, DataRate rate,
                       const core::Inventory::Snapshot& snap,
                       std::string* why) const;
  void finish();

  sim::Engine* engine_;
  core::GriphonController* controller_;
  Params params_;
  std::unique_ptr<Campaign> campaign_;
};

}  // namespace griphon::reopt
