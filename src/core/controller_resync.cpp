// GriphonController reconciliation: the post-EMS-restart audit that
// compares device state with what live connections own, and the
// order-independent device-state digest.
#include "core/controller_internal.hpp"

namespace griphon::core {

// Device configuration is modelled as a set of canonical string keys — one
// per stateful command effect. The same key function is applied to the
// setup command lists a live connection *would* issue today (expected) and
// to the actual device state (present). present − expected is a leak:
// configuration with no owner, released via best-effort commands.
// expected − present is drift: an owned connection missing configuration,
// repaired by re-issuing the missing setup commands in setup order.

namespace {

/// EMS-restart alarm -> reconciliation audit, after this settle delay.
constexpr SimTime kResyncDelay = seconds(5);
/// Audit retry cadence while command trains are still in flight, and how
/// many times to re-check before giving up (the next restart alarm
/// re-arms it).
constexpr SimTime kResyncRetry = seconds(5);
constexpr int kResyncMaxDeferrals = 64;

std::string express_key(RoadmId r, std::int32_t ch, std::int32_t a,
                        std::int32_t b) {
  if (a > b) std::swap(a, b);
  return "rx/" + std::to_string(r.value()) + "/" + std::to_string(ch) + "/" +
         std::to_string(a) + "/" + std::to_string(b);
}
std::string add_drop_key(RoadmId r, PortId p, std::int32_t degree,
                         std::int32_t ch) {
  return "rad/" + std::to_string(r.value()) + "/" + std::to_string(p.value()) +
         "/" + std::to_string(degree) + "/" + std::to_string(ch);
}
// Tuned and active are separate keys so a half-built OT (tuned, never
// activated) still reads as drifted against an expected kActivate.
std::string ot_tuned_key(TransponderId t) {
  return "ot/" + std::to_string(t.value()) + "/t";
}
std::string ot_active_key(TransponderId t) {
  return "ot/" + std::to_string(t.value()) + "/a";
}
std::string regen_key(RegenId r) {
  return "regen/" + std::to_string(r.value());
}
std::string fxc_key(FxcId f, PortId a, PortId b) {
  if (b < a) std::swap(a, b);
  return "fxc/" + std::to_string(f.value()) + "/" + std::to_string(a.value()) +
         "/" + std::to_string(b.value());
}
std::string nte_key(MuxponderId n, std::uint32_t p) {
  return "nte/" + std::to_string(n.value()) + "/" + std::to_string(p);
}

/// Keys a setup-direction command contributes to expected configuration.
/// Release-direction and stateless (PowerBalance) commands contribute none.
struct ConfigKeyVisitor {
  std::set<std::string>& out;
  void operator()(const proto::RoadmExpress& e) const {
    if (e.engage)
      out.insert(express_key(e.roadm, e.channel, e.degree_in, e.degree_out));
  }
  void operator()(const proto::RoadmAddDrop& a) const {
    if (a.engage)
      out.insert(add_drop_key(a.roadm, a.port, a.degree, a.channel));
  }
  void operator()(const proto::OtTune& t) const {
    out.insert(ot_tuned_key(t.ot));
  }
  void operator()(const proto::OtSetState& s) const {
    if (s.action == proto::OtSetState::Action::kActivate)
      out.insert(ot_active_key(s.ot));
  }
  void operator()(const proto::RegenEngage& r) const {
    if (r.engage) out.insert(regen_key(r.regen));
  }
  void operator()(const proto::FxcConnect& f) const {
    out.insert(fxc_key(f.fxc, f.port_a, f.port_b));
  }
  void operator()(const proto::NtePort& n) const {
    if (n.engage) out.insert(nte_key(n.nte, n.port));
  }
  template <typename T>
  void operator()(const T&) const {}
};

void append_config_keys(const proto::Message& m, std::set<std::string>& out) {
  std::visit(ConfigKeyVisitor{out}, m);
}

std::string odu_key(OduCircuitId c) {
  return "odu/" + std::to_string(c.value());
}

using LeakCounter = std::size_t GriphonController::ResyncReport::*;

/// Walks every piece of configured device state in a fixed device order:
/// `visit(key, client, release, leaks)` per piece, with its canonical key,
/// the command that releases it (none for an OT's active key: releasing
/// the tuned one covers it) and the audit counter a leak of it goes
/// under. The audit's "present" set and the device digest both come from
/// this one walk.
template <typename Visit>
void for_each_configured(NetworkModel& model, Visit visit) {
  using R = GriphonController::ResyncReport;
  auto* roadm = &model.roadm_ems_client();
  for (const auto& node : model.graph().nodes()) {
    const dwdm::Roadm& r = model.roadm_at(node.id);
    for (const auto& u : r.uses()) {
      if (u.is_express) {
        if (u.degree > u.other_degree) continue;  // each pair once
        visit(express_key(r.id(), u.channel, u.degree, u.other_degree), roadm,
              proto::RoadmExpress{r.id(), u.channel, u.degree, u.other_degree,
                                  false},
              &R::leaked_roadm_uses);
      } else {
        const auto& port = r.port(u.port);
        visit(add_drop_key(r.id(), u.port, port.degree, port.channel), roadm,
              proto::RoadmAddDrop{r.id(), u.port, 0, 0, false},
              &R::leaked_roadm_uses);
      }
    }
    const fxc::Fxc& f = model.fxc_at(node.id);
    for (const auto& [a, b] : f.cross_connects())
      visit(fxc_key(f.id(), a, b), &model.fxc_ems_client(),
            proto::FxcDisconnect{f.id(), a}, &R::leaked_fxc_connects);
  }
  for (const auto& ot : model.ots()) {
    if (ot->state() == dwdm::Transponder::State::kIdle ||
        ot->state() == dwdm::Transponder::State::kFailed)
      continue;
    visit(ot_tuned_key(ot->id()), roadm,
          proto::OtSetState{ot->id(), proto::OtSetState::Action::kReset},
          &R::leaked_ots);
    if (ot->state() == dwdm::Transponder::State::kActive)
      visit(ot_active_key(ot->id()), roadm, std::nullopt, &R::leaked_ots);
  }
  for (const auto& rg : model.regens())
    if (rg->in_use())
      visit(regen_key(rg->id()), roadm,
            proto::RegenEngage{rg->id(), 0, 0, false}, &R::leaked_regens);
  for (const auto& site : model.customer_sites()) {
    const dwdm::Muxponder& mux = model.nte(site.nte);
    for (std::uint32_t p = 0; p < dwdm::Muxponder::kClientPorts; ++p)
      if (mux.port_in_use(p))
        visit(nte_key(site.nte, p), &model.nte_ems_client(),
              proto::NtePort{site.nte, p, false}, &R::leaked_nte_ports);
  }
  if (model.config().with_otn) {
    for (const OduCircuitId cid : model.otn().circuit_ids()) {
      proto::OtnOp release;
      release.op = proto::OtnOp::Op::kRelease;
      release.circuit = cid;
      visit(odu_key(cid), &model.otn_ems_client(), release,
            &R::leaked_otn_circuits);
    }
  }
}

}  // namespace

bool GriphonController::quiescent() const {
  if (pending_commands_ != 0 || restorations_in_flight_ != 0 ||
      !restore_queue_.empty())
    return false;
  // A non-dormant backlog entry has a backoff timer armed: a restoration
  // could launch mid-audit. Dormant entries only wake on external events
  // the audit itself will not produce.
  for (const auto& [id, e] : restore_backlog_)
    if (!e.dormant) return false;
  for (const auto& [id, c] : connections_) {
    switch (c.state) {
      case ConnectionState::kPending:
      case ConnectionState::kSettingUp:
      case ConnectionState::kRestoring:
      case ConnectionState::kRolling:
      case ConnectionState::kTearingDown:
        return false;
      default:
        break;
    }
  }
  return true;
}

void GriphonController::schedule_resync() {
  if (resync_scheduled_) return;
  resync_scheduled_ = true;
  resync_attempts_ = 0;
  model_->engine().schedule(kResyncDelay, [this]() { try_auto_resync(); });
}

void GriphonController::try_auto_resync() {
  if (!quiescent()) {
    if (++resync_attempts_ < kResyncMaxDeferrals) {
      model_->engine().schedule(kResyncRetry, [this]() { try_auto_resync(); });
    } else {
      // Never went quiet; stand down. The next restart alarm re-arms us.
      resync_scheduled_ = false;
      trace(sim::TraceLevel::kWarn, "resync-abandoned",
            "control plane never quiesced");
    }
    return;
  }
  resync_scheduled_ = false;
  do_resync([](const ResyncReport&) {});
}

void GriphonController::resync(ResyncCallback cb) {
  if (!quiescent()) {
    cb(Error{ErrorCode::kBusy, "controller: command trains in flight"});
    return;
  }
  do_resync([cb = std::move(cb)](const ResyncReport& r) { cb(r); });
}

StepList GriphonController::expected_steps_for(
    const Connection& c) const {
  if (c.state != ConnectionState::kActive &&
      c.state != ConnectionState::kFailed)
    return {};
  StepList steps;
  if (c.kind == ConnectionKind::kWavelength) {
    if (c.deprovisioned) {
      // Restoration already released this path's devices; only the access
      // plumbing is still owned.
      append_access(steps, c, AccessOp::kSetup,
                    {c.plan.src_ot, c.plan.dst_ot});
      return steps;
    }
    steps = build_wavelength_setup(c, c.plan, /*include_access=*/true);
    if (c.standby) {
      StepList standby =
          build_wavelength_setup(c, *c.standby, /*include_access=*/false);
      steps.insert(steps.end(), standby.begin(), standby.end());
    }
    return steps;
  }
  // Sub-wavelength: NTE ports + FXC steering onto the OTN client ports.
  // The ODU circuit itself is audited separately by id.
  if (c.odu.valid()) append_access(steps, c, AccessOp::kSetup);
  return steps;
}

StepList GriphonController::build_expected_steps() const {
  StepList steps;
  for (const auto& [id, c] : connections_) {
    StepList s = expected_steps_for(c);
    steps.insert(steps.end(), std::make_move_iterator(s.begin()),
                 std::make_move_iterator(s.end()));
  }
  for (const auto& [carrier, plan] : groomed_plans_) {
    Connection synthetic;
    StepList s =
        build_wavelength_setup(synthetic, plan, /*include_access=*/false);
    steps.insert(steps.end(), std::make_move_iterator(s.begin()),
                 std::make_move_iterator(s.end()));
  }
  return steps;
}

void GriphonController::do_resync(
    std::function<void(const ResyncReport&)> done) {
  auto report = std::make_shared<ResyncReport>();

  // Expected: what live connections + groomed carriers own today.
  std::set<std::string> expected;
  for (const Step& s : build_expected_steps())
    append_config_keys(s.forward, expected);
  for (const auto& [id, c] : connections_)
    if (c.odu.valid() && (c.state == ConnectionState::kActive ||
                          c.state == ConnectionState::kFailed))
      expected.insert(odu_key(c.odu));

  // Present: walk every device; anything configured but unowned is a leak
  // and gets a release command.
  std::set<std::string> present;
  auto repair = std::make_shared<StepList>();
  for_each_configured(
      *model_, [&](std::string key, proto::RequestClient* client,
                   std::optional<proto::Message> release, LeakCounter leaks) {
        if (release && !expected.contains(key)) {
          ++(report.get()->*leaks);
          repair->push_back(Step{client, std::move(*release), std::nullopt});
        }
        present.insert(std::move(key));
      });

  // Drift: owned configuration the devices no longer hold. Re-issue the
  // missing setup commands in setup order (per-device EMS queues keep a
  // same-port release-then-reconfigure sequence ordered).
  auto append_drift_repairs = [&](const StepList& steps) {
    bool drifted = false;
    for (const Step& s : steps) {
      std::set<std::string> keys;
      append_config_keys(s.forward, keys);
      if (keys.empty()) continue;
      const bool missing = std::any_of(
          keys.begin(), keys.end(),
          [&](const std::string& k) { return !present.contains(k); });
      if (!missing) continue;
      drifted = true;
      repair->push_back(Step{s.client, s.forward, std::nullopt});
    }
    return drifted;
  };
  for (const auto& [id, c] : connections_)
    if (append_drift_repairs(expected_steps_for(c)))
      ++report->drifted_connections;
  for (const auto& [carrier, plan] : groomed_plans_) {
    Connection synthetic;
    if (append_drift_repairs(
            build_wavelength_setup(synthetic, plan, /*include_access=*/false)))
      ++report->drifted_connections;
  }

  report->repair_commands = repair->size();
  count(Outcome::kResyncRun);
  count(Outcome::kResyncLeak, report->total_leaks());
  count(Outcome::kResyncDrift, report->drifted_connections);
  if (telemetry::Telemetry* t = model_->telemetry())
    t->metrics()
        .counter("griphon_controller_resync_repairs_total",
                 "Repair commands issued by audits")
        ->inc(report->repair_commands);
  trace(report->repair_commands == 0 ? sim::TraceLevel::kInfo
                                     : sim::TraceLevel::kWarn,
        "resync",
        "leaks=" + std::to_string(report->total_leaks()) +
            " drift=" + std::to_string(report->drifted_connections) +
            " repairs=" + std::to_string(report->repair_commands));
  if (repair->empty()) {
    done(*report);
    return;
  }
  run_steps(repair, /*best_effort=*/true,
            [report, done = std::move(done)](Status,
                                             std::vector<std::size_t>) {
              done(*report);
            });
}

std::string GriphonController::device_state_digest() const {
  // The reconciliation audit's device walk, with each transponder's key
  // enriched by its tuned channel and state so a wrong wavelength or a
  // merely-tuned OT changes the digest. Keys are sorted, so the digest is
  // independent of command order — the property the seq/DAG equivalence
  // tests pin down.
  std::set<std::string> keys;
  for_each_configured(*model_, [&](std::string key, proto::RequestClient*,
                                   const std::optional<proto::Message>&,
                                   LeakCounter leaks) {
    if (leaks != &ResyncReport::leaked_ots) keys.insert(std::move(key));
  });
  for (const auto& ot : model_->ots()) {
    if (ot->state() == dwdm::Transponder::State::kIdle) continue;
    keys.insert("ot/" + std::to_string(ot->id().value()) + "/ch" +
                std::to_string(ot->channel()) + "/" +
                to_string(ot->state()));
  }
  std::string digest;
  for (const std::string& k : keys) {
    digest += k;
    digest += '\n';
  }
  return digest;
}

}  // namespace griphon::core
