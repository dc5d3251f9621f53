// GriphonController failure handling and the restoration pipeline:
// alarms -> failure manager -> affected connections, the tier-ordered
// concurrent restoration queue with its retry backlog, and wavelength
// restoration itself (release the dead path, replan, bring the new one
// up).
#include "core/controller_internal.hpp"

namespace griphon::core {

namespace {

/// Restoration retry backlog: a failed attempt waits kRestoreRetryBase x
/// kRestoreRetryMultiplier^(n-1), capped at kRestoreRetryMax, and goes
/// dormant after kMaxTimedRestoreRetries timed retries.
constexpr int kMaxTimedRestoreRetries = 6;
constexpr SimTime kRestoreRetryBase = seconds(10);
constexpr double kRestoreRetryMultiplier = 2.0;
constexpr SimTime kRestoreRetryMax = seconds(300);
/// Preemption rounds (best-effort BoD windows freed for a gold
/// restoration out of wavelengths) one connection may trigger before it
/// has to wait for organic capacity.
constexpr int kMaxPreemptionsPerConnection = 2;

/// Backoff before restoration retry `attempt` (1-based). Deterministic
/// (no jitter): chaos soaks compare digests across runs.
SimTime restoration_retry_delay(int attempt) {
  double delay = to_seconds(kRestoreRetryBase);
  for (int i = 1; i < attempt; ++i) delay *= kRestoreRetryMultiplier;
  return std::min(kRestoreRetryMax, from_seconds(delay));
}

}  // namespace

void GriphonController::handle_alarm_frame(const proto::Frame& frame) {
  // Keep the failure manager's sink in lock-step with the model's (the
  // sink may be attached after construction); a pointer store, idempotent.
  failures_.set_telemetry(model_->telemetry());
  const auto* ev = std::get_if<proto::AlarmEvent>(&frame.message);
  if (ev == nullptr) return;
  if (ev->alarm.type == AlarmType::kEmsRestart) {
    // The EMS lost its command queues and response cache in the crash;
    // device state may have diverged from the inventory. Audit once the
    // control plane quiets down.
    trace(sim::TraceLevel::kWarn, "ems-restart",
          ev->alarm.source + ": scheduling reconciliation audit");
    schedule_resync();
    return;
  }
  failures_.ingest(ev->alarm);
}

void GriphonController::mark_failed(Connection& c) {
  if (c.state == ConnectionState::kFailed ||
      c.state == ConnectionState::kRestoring)
    return;
  c.state = ConnectionState::kFailed;
  c.outage_started_at = model_->engine().now();
  trace(sim::TraceLevel::kWarn, "outage",
        "connection " + std::to_string(c.id.value()), c.id);
}

void GriphonController::mark_recovered(Connection& c) {
  if (c.state != ConnectionState::kFailed &&
      c.state != ConnectionState::kRestoring)
    return;
  c.total_outage += model_->engine().now() - c.outage_started_at;
  c.state = ConnectionState::kActive;
  // Service is back — retire the retry-backlog entry (if any) so a stale
  // backoff timer cannot relaunch a restoration of a healthy connection.
  if (restore_backlog_.erase(c.id) != 0) update_restoration_gauges();
  trace(sim::TraceLevel::kInfo, "recovered",
        "connection " + std::to_string(c.id.value()) + " outage " +
            std::to_string(to_seconds(c.total_outage)) + "s total",
        c.id);
}

void GriphonController::on_links_failed(
    const FailureManager::FailureEvent& event) {
  const std::vector<LinkId>& links = event.links;
  if (event.storm && !storm_active_) {
    // Degraded mode: restoration demand just exceeded what serial handling
    // was designed for. The flag holds until the pipeline drains; reopt
    // campaigns stand down while it is up.
    storm_active_ = true;
    trace(sim::TraceLevel::kWarn, "storm-start",
          std::to_string(links.size()) + " link(s) across " +
              std::to_string(event.conduits) + " conduit(s)");
    if (telemetry::Telemetry* t = model_->telemetry()) {
      t->metrics()
          .counter("griphon_restoration_storms_total",
                   "Correlated failure storms entering the restoration "
                   "pipeline")
          ->inc();
    }
  }
  const std::set<LinkId> failed(links.begin(), links.end());
  for (auto& [id, c] : connections_) {
    if (!c.is_up() && c.state != ConnectionState::kSettingUp) continue;
    if (c.kind == ConnectionKind::kWavelength) {
      const WavelengthPlan& active =
          (c.traffic_on_standby && c.standby) ? *c.standby : c.plan;
      if (!plan_uses_any(active, failed)) continue;
      const bool mid_setup = c.state == ConnectionState::kSettingUp;
      mark_failed(c);
      if (mid_setup) continue;  // finish_setup re-checks and restores
      if (c.protection == ProtectionMode::kOnePlusOne && c.standby) {
        // Tail-end switch to the other leg if it survives.
        const WavelengthPlan& other =
            c.traffic_on_standby ? c.plan : *c.standby;
        if (!plan_uses_any(other, failures_.believed_failed()))
          switch_legs(id, /*on_failure=*/true);
      } else if (c.protection == ProtectionMode::kRestorable) {
        enqueue_restoration(id);
      }
    } else {
      // Sub-wavelength: the OTN layer knows; mirror its state. Mesh
      // restoration (if protected) reports back through the restorer.
      if (!c.odu.valid()) continue;
      const auto& circuit = model_->otn().circuit(c.odu);
      if (circuit.state == otn::OduCircuit::State::kFailed) mark_failed(c);
    }
  }
  if (topology_observer_) topology_observer_(links, /*failed=*/true);
  // A storm with no restorable victims drains immediately.
  maybe_clear_storm();
  update_restoration_gauges();
}

void GriphonController::switch_legs(ConnectionId id, bool on_failure) {
  model_->engine().schedule(kRollHit, [this, id, on_failure]() {
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) return;
    c->traffic_on_standby = !c->traffic_on_standby;
    if (on_failure) ++c->restorations;
    mark_recovered(*c);
    trace(sim::TraceLevel::kInfo, on_failure ? "1+1-switch" : "1+1-switch-back",
          "connection " + std::to_string(id.value()), id);
  });
}

void GriphonController::on_links_repaired(const std::vector<LinkId>& links) {
  const std::set<LinkId>& believed = failures_.believed_failed();
  (void)links;
  for (auto& [id, c] : connections_) {
    if (c.state != ConnectionState::kFailed) continue;
    if (c.kind == ConnectionKind::kWavelength) {
      const WavelengthPlan& active =
          (c.traffic_on_standby && c.standby) ? *c.standby : c.plan;
      if (!plan_uses_any(active, believed)) {
        if (c.deprovisioned) {
          // A failed restoration attempt already released this path's
          // devices: light alone is not service; re-provision now.
          if (c.protection == ProtectionMode::kRestorable)
            enqueue_restoration(id);
        } else {
          // Light returns on the repaired fiber; devices never
          // deconfigured.
          mark_recovered(c);
        }
      } else if (c.protection == ProtectionMode::kOnePlusOne && c.standby) {
        // The active leg is still dark but the other one just came back:
        // tail-end switch onto it.
        const WavelengthPlan& other =
            c.traffic_on_standby ? c.plan : *c.standby;
        if (!plan_uses_any(other, believed))
          switch_legs(id, /*on_failure=*/false);
      }
    } else if (c.odu.valid()) {
      const auto& circuit = model_->otn().circuit(c.odu);
      if (circuit.state == otn::OduCircuit::State::kActive ||
          circuit.state == otn::OduCircuit::State::kOnBackup)
        mark_recovered(c);
    }
  }
  // Repair is the strongest re-arm signal the backlog gets: dormant
  // entries wake and the backoff clock restarts (the world changed).
  kick_restoration_backlog(/*reset_attempts=*/true);
  if (topology_observer_) topology_observer_(links, /*failed=*/false);
}

void GriphonController::enqueue_restoration(ConnectionId id) {
  if (std::find(restore_queue_.begin(), restore_queue_.end(), id) !=
      restore_queue_.end())
    return;
  restore_queue_.push_back(id);
  // Gold before silver before bronze; FIFO within a tier (stable sort).
  std::stable_sort(restore_queue_.begin(), restore_queue_.end(),
                   [this](ConnectionId a, ConnectionId b) {
                     const Connection* ca = find_conn(a);
                     const Connection* cb = find_conn(b);
                     if (ca == nullptr || cb == nullptr) return false;
                     return static_cast<int>(ca->tier) <
                            static_cast<int>(cb->tier);
                   });
  // Defer the dispatch one event so that a burst of failures (one cut,
  // many connections) is fully enqueued — and therefore fully sorted —
  // before the first restoration is picked.
  model_->engine().schedule(SimTime{}, [this]() { pump_restorations(); });
}

void GriphonController::pump_restorations() {
  // Wavelength restoration trains (include_access=false) are dominated by
  // roadm-ems dialogues: OT tuning, add/drop, regens, power balancing.
  // Admission is gated on that domain — with one dominant domain the
  // effective parallelism is min(max_concurrent, per_domain_inflight).
  static const std::string kDomain = "roadm-ems";
  while (restorations_in_flight_ < params_.restoration.max_concurrent &&
         !restore_queue_.empty()) {
    const ConnectionId id = restore_queue_.front();
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) {
      restore_queue_.erase(restore_queue_.begin());
      continue;
    }
    if (ems_health_.state(kDomain) == EmsHealthTracker::BreakerState::kOpen) {
      // The domain's breaker is open: nothing restores until it heals.
      // Send the head to the backlog (bounded backoff, observable) rather
      // than spinning or burning the half-open probe slot.
      restore_queue_.erase(restore_queue_.begin());
      backlog_restoration(id, "restoration shed: " + kDomain +
                                  " breaker open");
      continue;
    }
    if (restoration_domain_inflight_[kDomain] >=
        params_.restoration.per_domain_inflight)
      break;  // a landing restoration re-pumps
    restore_queue_.erase(restore_queue_.begin());
    if (restore_backlog_.contains(id)) count(Outcome::kRestorationRetried);
    ++restorations_in_flight_;
    ++restoration_domain_inflight_[kDomain];
    update_restoration_gauges();
    restore_wavelength(id, [this]() {
      --restorations_in_flight_;
      --restoration_domain_inflight_[kDomain];
      // Deferred one event: restore_wavelength's early exits call done
      // synchronously, and a re-entrant pump inside the launch loop would
      // act on half-updated counters.
      model_->engine().schedule(SimTime{}, [this]() { pump_restorations(); });
    });
  }
  maybe_clear_storm();
  update_restoration_gauges();
}

void GriphonController::backlog_restoration(ConnectionId id,
                                            const std::string& why) {
  Connection* c = find_conn(id);
  if (c == nullptr || c->protection != ProtectionMode::kRestorable) return;
  BacklogEntry& e = restore_backlog_[id];
  ++e.attempts;
  const std::uint64_t gen = ++e.generation;
  if (e.attempts > kMaxTimedRestoreRetries) {
    // Timed retries exhausted: go dormant. Only an external event — a
    // repair, a capacity-freeing teardown or roll — re-arms this entry,
    // so a permanently unroutable connection cannot keep the event loop
    // (or a drain-to-idle test) alive forever.
    e.dormant = true;
    trace(sim::TraceLevel::kWarn, "restore-backlog-dormant",
          "connection " + std::to_string(id.value()) + " after " +
              std::to_string(e.attempts - 1) + " timed retries: " + why,
          id);
    update_restoration_gauges();
    maybe_clear_storm();
    return;
  }
  e.dormant = false;
  const SimTime delay = restoration_retry_delay(e.attempts);
  trace(sim::TraceLevel::kInfo, "restore-backlog",
        "connection " + std::to_string(id.value()) + " retry #" +
            std::to_string(e.attempts) + " in " +
            std::to_string(to_seconds(delay)) + "s: " + why,
        id);
  model_->engine().schedule(delay, [this, id, gen]() {
    const auto it = restore_backlog_.find(id);
    if (it == restore_backlog_.end() || it->second.generation != gen ||
        it->second.dormant)
      return;  // re-armed, recovered or released meanwhile
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) return;
    enqueue_restoration(id);
  });
  update_restoration_gauges();
}

void GriphonController::kick_restoration_backlog(bool reset_attempts) {
  if (restore_backlog_.empty()) return;
  for (auto& [id, e] : restore_backlog_) {
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) continue;
    if (reset_attempts) {
      e.attempts = 0;
      e.preemptions = 0;
    }
    e.dormant = false;
    ++e.generation;  // cancels any armed backoff timer
    enqueue_restoration(id);
  }
  update_restoration_gauges();
}

void GriphonController::maybe_clear_storm() {
  if (!storm_active_) return;
  if (!restore_queue_.empty() || restorations_in_flight_ != 0) return;
  for (const auto& [id, e] : restore_backlog_)
    if (!e.dormant) return;  // an armed retry still owns the storm
  storm_active_ = false;
  trace(sim::TraceLevel::kInfo, "storm-cleared",
        "restoration pipeline drained");
  update_restoration_gauges();
}

void GriphonController::update_restoration_gauges() {
  telemetry::Telemetry* t = model_->telemetry();
  if (t == nullptr) return;
  auto& m = t->metrics();
  m.gauge("griphon_restoration_backlog_depth",
          "Failed restorations awaiting retry (armed + dormant)")
      ->set(static_cast<double>(restore_backlog_.size()));
  m.gauge("griphon_restoration_queue_depth",
          "Failed connections ready for restoration, tier-ordered")
      ->set(static_cast<double>(restore_queue_.size()));
  m.gauge("griphon_restoration_in_flight",
          "Restoration command trains currently running")
      ->set(static_cast<double>(restorations_in_flight_));
  m.gauge("griphon_restoration_storm_active",
          "1 while a correlated failure storm is being worked")
      ->set(storm_active_ ? 1.0 : 0.0);
}

void GriphonController::restore_wavelength(ConnectionId id,
                                           std::function<void()> done) {
  Connection* c0 = find_conn(id);
  if (c0 == nullptr || c0->state != ConnectionState::kFailed) {
    done();
    return;
  }
  c0->state = ConnectionState::kRestoring;
  trace(sim::TraceLevel::kInfo, "restore-start",
        "connection " + std::to_string(id.value()), id);
  const SimTime restore_started = model_->engine().now();
  if (telemetry::Telemetry* t = model_->telemetry())
    c0->op_span =
        t->span_start("restoration", "controller", telemetry_tag(id), 0);
  // Ends the restoration root span + counts the attempt, on every exit.
  auto close_restore = [this, id, restore_started](bool ok,
                                                   const std::string& why) {
    count(ok ? Outcome::kRestorationOk : Outcome::kRestorationFailed);
    telemetry::Telemetry* t = model_->telemetry();
    if (t == nullptr) return;
    Connection* c = find_conn(id);
    if (c != nullptr) {
      t->span_end(c->op_span, ok, why);
      c->op_span = 0;
    }
    if (ok)
      t->metrics()
          .histogram("griphon_controller_restore_seconds",
                     "Restoration start to traffic back, end to end")
          ->observe(to_seconds(model_->engine().now() - restore_started));
  };

  // Steps 2+ (replan, admit, reprovision), entered either after the old
  // path's release or directly on a backlog retry that already released it.
  auto proceed = [this, id, done, close_restore]() {
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kRestoring) {
      close_restore(false, "connection left restoring state");
      done();
      return;
    }
    // 2. Compute a path around the failure.
    std::uint64_t replan_span = 0;
    if (telemetry::Telemetry* t = model_->telemetry())
      replan_span = t->span_start("replan", "controller", 0, c->op_span);
    model_->engine().schedule(kPathComputation, [this, id, done,
                                                 close_restore,
                                                 replan_span]() {
      Connection* c = find_conn(id);
      if (c == nullptr || c->state != ConnectionState::kRestoring) {
        if (telemetry::Telemetry* t = model_->telemetry())
          t->span_end(replan_span, false);
        close_restore(false, "connection left restoring state");
        done();
        return;
      }
      // Failed attempts return to kFailed and enter the retry backlog —
      // the outage continues, but it is never dropped on the floor.
      auto fail_attempt = [this, id, done,
                           close_restore](const std::string& why) {
        if (Connection* cc = find_conn(id); cc != nullptr)
          cc->state = ConnectionState::kFailed;
        trace(sim::TraceLevel::kError, "restore-failed", why, id);
        backlog_restoration(id, why);
        close_restore(false, why);
        done();
      };
      // SRLG-diverse replan: avoid not just the failed plant but every
      // conduit-mate of it — a "diverse" path through a sibling fiber of
      // the cut conduit dies with the next backhoe swing. Fall back to
      // failed-links-only exclusions when no diverse route exists at all
      // (restoring onto a surviving sibling beats staying dark).
      Exclusions avoid;
      for (const LinkId l : failures_.believed_failed())
        avoid.links.insert(l);
      Exclusions diverse = avoid;
      for (const LinkId l : failures_.believed_failed())
        for (const LinkId sibling : model_->graph().srlg_siblings(l))
          diverse.links.insert(sibling);
      auto plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate, diverse);
      if (!plan.ok() && plan.error().code() == ErrorCode::kUnreachable &&
          diverse.links.size() > avoid.links.size()) {
        plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate, avoid);
        if (plan.ok()) {
          count(Outcome::kRestorationNonDiverse);
          trace(sim::TraceLevel::kWarn, "restore-non-diverse",
                "connection " + std::to_string(id.value()) +
                    ": no SRLG-diverse route; restoring onto a conduit "
                    "sibling",
                id);
        }
      }
      if (telemetry::Telemetry* t = model_->telemetry())
        t->span_end(replan_span, plan.ok());
      if (!plan.ok()) {
        // 3. Out of wavelengths (not out of routes): a gold restoration
        // may preempt best-effort BoD calendar windows to free channels.
        // The freed capacity lands asynchronously as those teardowns
        // complete, each one kicking the backlog this failure is about
        // to enter.
        if (plan.error().code() == ErrorCode::kResourceExhausted &&
            c->tier == ServiceTier::kGold && preemption_hook_) {
          BacklogEntry& e = restore_backlog_[id];
          if (e.preemptions < kMaxPreemptionsPerConnection) {
            ++e.preemptions;
            ++stats_.preemptions_requested;
            const std::size_t freed = preemption_hook_(
                c->src_pop, c->dst_pop, c->rate, avoid.links);
            count(Outcome::kBodWindowPreempted, freed);
            trace(sim::TraceLevel::kWarn, "restore-preempt",
                  "connection " + std::to_string(id.value()) +
                      " preempted " + std::to_string(freed) +
                      " best-effort BoD window(s)",
                  id);
          }
        }
        fail_attempt(plan.error().message());
        return;
      }
      // Reuse the connection's own transponders: the access FXC patches
      // still point at them, and they are free again after the teardown.
      WavelengthPlan new_plan = std::move(plan).value();
      new_plan.src_ot = c->plan.src_ot;
      new_plan.dst_ot = c->plan.dst_ot;
      const Status adm = bring_up(*c, new_plan, /*include_access=*/false,
                                  c->op_span, [&] {
        std::uint64_t reprov_span = 0;
        if (telemetry::Telemetry* t = model_->telemetry())
          reprov_span =
              t->span_start("reprovision", "controller", 0, c->op_span);
        return std::pair{
            reprov_span,
            [this, id, new_plan, done, close_restore, reprov_span](
                Status status, std::shared_ptr<StepList> steps,
                std::vector<std::size_t> succeeded) {
              if (telemetry::Telemetry* t = model_->telemetry())
                t->span_end(reprov_span, status.ok());
              Connection* c = find_conn(id);
              if (c == nullptr) {
                close_restore(false, "connection vanished");
                done();
                return;
              }
              if (status.ok()) {
                c->plan = new_plan;
                c->deprovisioned = false;
                ++c->restorations;
                mark_recovered(*c);
                trace(sim::TraceLevel::kInfo, "restore-done",
                      "connection " + std::to_string(id.value()), id);
                close_restore(true, {});
              } else {
                const std::string why = status.error().message();
                rollback_steps(steps, std::move(succeeded), [this, id, why]() {
                  Connection* c = find_conn(id);
                  if (c != nullptr) c->state = ConnectionState::kFailed;
                  // Backlogged only once the rollback released the
                  // half-built path — a retry must not race its own
                  // cleanup.
                  backlog_restoration(id, why);
                });
                trace(sim::TraceLevel::kError, "restore-failed", why, id);
                close_restore(false, why);
              }
              done();
            }};
      });
      if (!adm.ok()) fail_attempt(adm.error().message());
    });
  };

  if (c0->deprovisioned) {
    // Backlog retry: the first attempt already released the old path, and
    // its channels may since have been re-acquired by other connections —
    // tearing "our" old path down again would disconnect their devices.
    proceed();
    return;
  }
  // 1. Release the dead path's configuration (keeps access + OTs).
  std::uint64_t release_span = 0;
  if (telemetry::Telemetry* t = model_->telemetry())
    release_span =
        t->span_start("release_old_path", "controller", 0, c0->op_span);
  auto teardown = std::make_shared<StepList>(
      build_wavelength_teardown(*c0, c0->plan, /*include_access=*/false));
  run_steps(teardown, /*best_effort=*/true,
            [this, id, proceed, release_span](Status,
                                              std::vector<std::size_t>) {
              if (telemetry::Telemetry* t = model_->telemetry())
                t->span_end(release_span);
              if (Connection* c = find_conn(id);
                  c != nullptr && c->state == ConnectionState::kRestoring)
                c->deprovisioned = true;  // old path released; not live
              proceed();
            },
            release_span);
}

}  // namespace griphon::core
