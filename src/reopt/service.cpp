#include "reopt/service.hpp"

#include <cmath>
#include <utility>

#include "core/network_model.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::reopt {

ReoptService::ReoptService(core::GriphonController* controller, Params params)
    : controller_(controller),
      params_(std::move(params)),
      analyzer_(&controller->model()),
      planner_(controller),
      executor_(&controller->model().engine(), controller, params_.executor) {}

void ReoptService::start() {
  if (running_) return;
  running_ = true;
  schedule_tick();
}

void ReoptService::stop() {
  if (!running_) return;
  running_ = false;
  controller_->model().engine().cancel(pending_);
}

void ReoptService::schedule_tick() {
  pending_ = controller_->model().engine().schedule(params_.period,
                                                    [this]() { on_tick(); });
}

void ReoptService::on_tick() {
  if (!running_) return;
  sim::Engine& engine = controller_->model().engine();
  // Hold the trip during a restoration storm: campaign rolls would
  // compete with restorations for wavelengths and EMS dialogue slots,
  // and capacity freed by a move is better spent re-arming the
  // restoration backlog than chasing a fragmentation score mid-crisis.
  if (controller_->restoration_storm_active()) {
    ++stats_.campaigns_held_storm;
    engine.trace().emit(engine.now(), sim::TraceLevel::kInfo, "reopt",
                        "reopt", "tick held: restoration storm active");
    sync_metrics();
    if (running_) schedule_tick();
    return;
  }
  const FragmentationReport& report = analyze();
  // One campaign at a time; a still-draining campaign just defers the
  // decision to the next tick.
  if (report.mean_score > params_.trip_threshold && !executor_.running()) {
    MigrationPlan plan = plan_now();
    if (plan.moves.size() >= params_.min_moves) {
      engine.trace().emit(engine.now(), sim::TraceLevel::kInfo, "reopt",
                          "reopt",
                          "fragmentation " + std::to_string(report.mean_score) +
                              " tripped threshold; campaign of " +
                              std::to_string(plan.moves.size()) + " moves");
      ++stats_.campaigns_started;
      executor_.run(std::move(plan),
                    [this](const MigrationExecutor::CampaignReport& r) {
                      ++stats_.campaigns_completed;
                      if (r.aborted) ++stats_.campaigns_aborted;
                      stats_.moves_rolled += r.moves_rolled;
                      stats_.moves_skipped += r.moves_skipped;
                      stats_.moves_failed += r.moves_failed;
                      stats_.cycle_breaks += r.cycle_breaks;
                      last_campaign_ = r;
                      sync_metrics();
                    });
    }
  }
  if (running_) schedule_tick();
}

const FragmentationReport& ReoptService::analyze() {
  const auto snap = controller_->inventory().snapshot();
  last_report_ = analyzer_.analyze(*snap, controller_->rwa(), params_.pairs);
  ++stats_.analyses;
  sync_metrics();
  return *last_report_;
}

MigrationPlan ReoptService::plan_now() const {
  const std::set<ConnectionId> exempt =
      exempt_ ? exempt_() : std::set<ConnectionId>{};
  return planner_.plan(exempt, params_.max_moves_per_campaign);
}

void ReoptService::run_campaign(MigrationExecutor::DoneCallback done) {
  ++stats_.campaigns_started;
  executor_.run(plan_now(),
                [this, done = std::move(done)](
                    const MigrationExecutor::CampaignReport& r) {
                  ++stats_.campaigns_completed;
                  if (r.aborted) ++stats_.campaigns_aborted;
                  stats_.moves_rolled += r.moves_rolled;
                  stats_.moves_skipped += r.moves_skipped;
                  stats_.moves_failed += r.moves_failed;
                  stats_.cycle_breaks += r.cycle_breaks;
                  last_campaign_ = r;
                  sync_metrics();
                  if (done) done(r);
                });
}

void ReoptService::sync_metrics() {
  telemetry::Telemetry* t = controller_->model().telemetry();
  if (t == nullptr) return;
  auto& m = t->metrics();
  m.gauge("griphon_reopt_fragmentation_mean",
          "Mean per-link external fragmentation score (last analysis)")
      ->set(last_report_ ? last_report_->mean_score : 0.0);
  m.gauge("griphon_reopt_fragmentation_max",
          "Worst per-link external fragmentation score (last analysis)")
      ->set(last_report_ ? last_report_->max_score : 0.0);
  m.gauge("griphon_reopt_stranded_pairs",
          "Pairs with demand blocked purely by wavelength continuity")
      ->set(last_report_ ? static_cast<double>(last_report_->stranded_pairs)
                         : 0.0);
  m.gauge("griphon_reopt_blocked_candidates",
          "Candidate routes blocked by continuity despite per-hop capacity")
      ->set(last_report_
                ? static_cast<double>(last_report_->blocked_candidates)
                : 0.0);
  m.gauge("griphon_reopt_campaigns_total", "Migration campaigns started")
      ->set(static_cast<double>(stats_.campaigns_started));
  m.gauge("griphon_reopt_moves_rolled_total",
          "Connections moved to their re-optimized channels")
      ->set(static_cast<double>(stats_.moves_rolled));
  m.gauge("griphon_reopt_moves_skipped_total",
          "Planned moves skipped by launch-time verification")
      ->set(static_cast<double>(stats_.moves_skipped));
  m.gauge("griphon_reopt_moves_failed_total",
          "Planned moves whose roll failed (service rolled back safely)")
      ->set(static_cast<double>(stats_.moves_failed));
  m.gauge("griphon_reopt_cycle_breaks_total",
          "Dependency cycles broken via a temporary bridge channel")
      ->set(static_cast<double>(stats_.cycle_breaks));
  m.gauge("griphon_reopt_campaigns_held_storm_total",
          "Periodic reopt ticks deferred by an active restoration storm")
      ->set(static_cast<double>(stats_.campaigns_held_storm));
}

void ReoptService::install_probes(telemetry::GaugeSampler& sampler) {
  sampler.add_probe("reopt_fragmentation_mean", "ratio", [this] {
    return last_report_ ? last_report_->mean_score : 0.0;
  });
  sampler.add_probe("reopt_fragmentation_max", "ratio", [this] {
    return last_report_ ? last_report_->max_score : 0.0;
  });
  sampler.add_probe("reopt_stranded_pairs", "count", [this] {
    return last_report_ ? static_cast<double>(last_report_->stranded_pairs)
                        : 0.0;
  });
  sampler.add_probe("reopt_moves_rolled", "count", [this] {
    return static_cast<double>(stats_.moves_rolled);
  });
  sampler.add_probe("reopt_campaigns", "count", [this] {
    return static_cast<double>(stats_.campaigns_started);
  });
}

telemetry::Objective fragmentation_objective(const ReoptService& service,
                                             double bound) {
  telemetry::Objective o;
  o.name = "reopt_fragmentation";
  o.description = "mean wavelength fragmentation under control";
  o.bound = bound;
  // NaN before the first analysis: the SLO monitor's hysteresis streaks
  // stay frozen instead of tripping on an idle, never-analyzed plane.
  o.value = [&service] {
    const FragmentationReport* r = service.last_report();
    return r == nullptr ? std::nan("") : r->mean_score;
  };
  return o;
}

}  // namespace griphon::reopt
