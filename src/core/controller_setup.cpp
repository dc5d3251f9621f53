// GriphonController setup and release: request validation, the
// wavelength (with its 1+1 standby leg) and sub-wavelength setup flows,
// OTU carrier grooming, and teardown.
#include "core/controller_internal.hpp"

namespace griphon::core {

void GriphonController::request_connection(const ConnectionRequest& request,
                                           SetupCallback cb) {
  const CustomerSite* src = model_->site_by_nte(request.src_site);
  const CustomerSite* dst = model_->site_by_nte(request.dst_site);
  if (src == nullptr || dst == nullptr) {
    cb(Error{ErrorCode::kNotFound, "controller: unknown customer site"});
    return;
  }
  if (src->customer != request.customer || dst->customer != request.customer) {
    cb(Error{ErrorCode::kPermissionDenied,
             "controller: site belongs to another customer"});
    return;
  }
  if (src->core_pop == dst->core_pop) {
    cb(Error{ErrorCode::kInvalidArgument,
             "controller: sites share a core PoP (no backbone segment)"});
    return;
  }
  if (request.rate > rates::k40G) {
    cb(Error{ErrorCode::kInvalidArgument,
             "controller: rate above the 40G service ceiling"});
    return;
  }
  if (request.rate < rates::k1G) {
    // The service-evolution model (paper Fig. 2): "below 1 Gbps is
    // transported via the IP layer as EVCs" — not a GRIPhoN circuit.
    cb(Error{ErrorCode::kInvalidArgument,
             "controller: sub-1G demand belongs to the IP layer (EVC), not "
             "the circuit BoD service"});
    return;
  }

  Connection c;
  c.id = ids_.next();
  c.customer = request.customer;
  c.src_site = request.src_site;
  c.dst_site = request.dst_site;
  c.src_pop = src->core_pop;
  c.dst_pop = dst->core_pop;
  c.rate = request.rate;
  c.protection = request.protection;
  c.tier = request.tier;
  c.kind = request.rate >= rates::k10G ? ConnectionKind::kWavelength
                                       : ConnectionKind::kSubWavelength;
  c.requested_at = model_->engine().now();
  c.state = ConnectionState::kSettingUp;

  auto sp = pick_free_nte_port(c.src_site);
  if (!sp.ok()) {
    cb(sp.error());
    return;
  }
  c.src_nte_port = sp.value();
  auto dp = pick_free_nte_port(c.dst_site);
  if (!dp.ok()) {
    release_nte_port(c.src_site, c.src_nte_port);
    cb(dp.error());
    return;
  }
  c.dst_nte_port = dp.value();

  const ConnectionId id = c.id;
  connections_[id] = std::move(c);
  if (telemetry::Telemetry* t = model_->telemetry()) {
    connections_[id].setup_span = t->span_start(
        "connection_setup", "controller", telemetry_tag(id), 0);
    t->metrics()
        .counter("griphon_controller_requests_total",
                 "Connection requests accepted for orchestration")
        ->inc();
  }
  trace(sim::TraceLevel::kInfo, "request",
        "connection " + std::to_string(id.value()) + " rate " +
            std::to_string(request.rate.in_gbps()) + "G",
        id);
  if (connections_[id].kind == ConnectionKind::kWavelength)
    setup_wavelength(id, std::move(cb));
  else
    send_otn_create(id, std::move(cb), /*allow_groom=*/true);
}

void GriphonController::finish_setup(ConnectionId id, Status status,
                                     SetupCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Error{ErrorCode::kNotFound, "controller: connection vanished"});
    return;
  }
  count(status.ok() ? Outcome::kSetupOk : Outcome::kSetupFailed, 1,
        c->customer);
  if (telemetry::Telemetry* t = model_->telemetry()) {
    t->span_end(c->setup_span, status.ok(),
                status.ok() ? std::string{} : status.error().message());
    c->setup_span = 0;
    if (status.ok())
      t->metrics()
          .histogram("griphon_controller_setup_seconds",
                     "Request to traffic-flowing, end to end")
          ->observe(to_seconds(model_->engine().now() - c->requested_at));
  }
  if (status.ok()) {
    c->state = ConnectionState::kActive;
    c->active_at = model_->engine().now();
    c->setup_duration = c->active_at - c->requested_at;
    trace(sim::TraceLevel::kInfo, "setup-done",
          "connection " + std::to_string(id.value()) + " in " +
              std::to_string(to_seconds(c->setup_duration)) + "s",
          id);
    // A fiber may have died *while* the command train was running; the
    // commands themselves still succeed (devices accept configuration on a
    // dark degree). Treat the connection as failed-at-birth and let the
    // normal restoration machinery take over.
    if (c->kind == ConnectionKind::kWavelength &&
        plan_uses_any(c->plan, failures_.believed_failed())) {
      const ConnectionId cid = id;
      mark_failed(*c);
      if (c->protection == ProtectionMode::kRestorable)
        enqueue_restoration(cid);
    }
    cb(id);
  } else {
    c->state = ConnectionState::kSetupFailed;
    release_nte_port(c->src_site, c->src_nte_port);
    release_nte_port(c->dst_site, c->dst_nte_port);
    trace(sim::TraceLevel::kWarn, "setup-failed", status.error().message(),
          id);
    cb(status.error());
  }
}

void GriphonController::setup_wavelength(ConnectionId id, SetupCallback cb) {
  const Connection& c = connections_.at(id);
  std::uint64_t think_span = 0;
  if (telemetry::Telemetry* t = model_->telemetry())
    think_span =
        t->span_start("path_computation", "controller", 0, c.setup_span);
  model_->engine().schedule(kPathComputation, [this, id, think_span,
                                               cb = std::move(cb)]() mutable {
    Connection* c = find_conn(id);
    if (c == nullptr) return;
    auto plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate);
    if (telemetry::Telemetry* t = model_->telemetry())
      t->span_end(think_span, plan.ok());
    if (!plan.ok()) {
      finish_setup(id, plan.error(), std::move(cb));
      return;
    }
    c->plan = std::move(plan).value();
    const std::uint64_t setup_span = c->setup_span;
    const Status adm = bring_up(*c, c->plan, /*include_access=*/true,
                                setup_span, [&] {
      return std::pair{
          setup_span,
          [this, id, cb = std::move(cb)](
              Status status, std::shared_ptr<StepList> steps,
              std::vector<std::size_t> succeeded) mutable {
            Connection* c = find_conn(id);
            if (c == nullptr) return;
            if (!status.ok()) {
              rollback_steps(steps, std::move(succeeded),
                             [this, id, status, cb = std::move(cb)]() mutable {
                               finish_setup(id, status, std::move(cb));
                             });
              return;
            }
            if (c->protection == ProtectionMode::kOnePlusOne) {
              setup_standby(id, std::move(cb));
              return;
            }
            finish_setup(id, Status::success(), std::move(cb));
          }};
    });
    if (!adm.ok()) finish_setup(id, adm, std::move(cb));
  });
}

void GriphonController::setup_standby(ConnectionId id, SetupCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) return;
  // No protection leg after all: take the working leg down again and fail
  // the request.
  const auto fail = [this, id](Status why, SetupCallback cb) {
    Connection* c = find_conn(id);
    if (c == nullptr) return;
    c->standby.reset();
    auto teardown = std::make_shared<StepList>(
        build_wavelength_teardown(*c, c->plan, /*include_access=*/true));
    run_steps(teardown, /*best_effort=*/true,
              [this, id, why, cb = std::move(cb)](
                  Status, std::vector<std::size_t>) mutable {
                finish_setup(id, why, std::move(cb));
              });
  };
  // Provision the dedicated protection leg before declaring the service
  // up: 1+1 is sold as protected from second one.
  Exclusions avoid;
  for (const LinkId l : c->plan.path.links)
    for (const LinkId sibling : model_->graph().srlg_siblings(l))
      avoid.links.insert(sibling);
  for (std::size_t i = 1; i + 1 < c->plan.path.nodes.size(); ++i)
    avoid.nodes.insert(c->plan.path.nodes[i]);
  auto standby = rwa_.plan(c->src_pop, c->dst_pop, c->rate, avoid);
  Status status = standby.ok() ? Status::success() : Status{standby.error()};
  if (status.ok())
    status = bring_up(*c, standby.value(), /*include_access=*/false,
                      c->setup_span, [&] {
      c->standby = standby.value();
      return std::pair{
          c->setup_span,
          [this, id, fail, cb = std::move(cb)](
              Status s2, std::shared_ptr<StepList> steps,
              std::vector<std::size_t> ok2) mutable {
            if (find_conn(id) == nullptr) return;
            if (s2.ok()) {
              finish_setup(id, Status::success(), std::move(cb));
              return;
            }
            rollback_steps(steps, std::move(ok2),
                           [fail, s2, cb = std::move(cb)]() mutable {
                             fail(s2, std::move(cb));
                           });
          }};
    });
  // No disjoint admissible capacity: fail the request.
  if (!status.ok()) fail(status, std::move(cb));
}

void GriphonController::send_otn_create(ConnectionId id, SetupCallback cb,
                                        bool allow_groom) {
  Connection* c0 = find_conn(id);
  if (c0 == nullptr) return;
  // Phase 1: ask the OTN switch EMS to route and cross-connect the ODU
  // circuit through the OTN layer (shared-mesh protected when requested).
  proto::OtnOp create;
  create.op = proto::OtnOp::Op::kCreate;
  create.customer = c0->customer;
  create.src = c0->src_pop;
  create.dst = c0->dst_pop;
  create.rate_bps = c0->rate.in_bps();
  create.protect = c0->protection != ProtectionMode::kUnprotected;
  ++stats_.commands_issued;
  std::uint64_t span = 0;
  if (telemetry::Telemetry* t = model_->telemetry())
    span = t->span_start("otn.op", "otn-ems", 0, c0->setup_span);
  issue_command(
      &model_->otn_ems_client(), proto::Message{create},
      [this, id, allow_groom, span,
       cb = std::move(cb)](Result<proto::Response> r) mutable {
        const Status s = response_to_status(r);
        if (telemetry::Telemetry* t = model_->telemetry())
          t->span_end(span, s.ok(),
                      s.ok() ? std::string{} : s.error().message());
        if (!s.ok()) {
          Connection* c = find_conn(id);
          if (s.error().code() == ErrorCode::kUnreachable && allow_groom &&
              c != nullptr) {
            // The OTN layer is out of tributary capacity on this relation:
            // groom a fresh OTU carrier onto the DWDM layer, then retry.
            trace(sim::TraceLevel::kInfo, "otn-groom",
                  "no OTN capacity; provisioning a new carrier");
            groom_new_carrier(
                c->src_pop, c->dst_pop,
                [this, id, cb = std::move(cb)](Status gs) mutable {
                  if (!gs.ok()) {
                    finish_setup(id, gs, std::move(cb));
                    return;
                  }
                  send_otn_create(id, std::move(cb), /*allow_groom=*/false);
                });
            return;
          }
          finish_setup(id, s, std::move(cb));
          return;
        }
        Connection* c = find_conn(id);
        if (c == nullptr) return;
        c->odu = OduCircuitId{r.value().aux};
        odu_to_connection_[c->odu] = id;
        setup_subwavelength_access(id, std::move(cb));
      });
}

void GriphonController::setup_subwavelength_access(ConnectionId id,
                                                   SetupCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) return;
  // Phase 2: access plumbing — NTE ports + FXC steering of the access
  // channels onto the OTN switch client ports.
  auto steps = std::make_shared<StepList>();
  append_access(*steps, *c, AccessOp::kSetup);
  const std::uint64_t setup_span = c->setup_span;
  run_steps(steps, false,
            [this, id, steps, cb = std::move(cb)](
                Status status, std::vector<std::size_t> succeeded) mutable {
              if (status.ok()) {
                finish_setup(id, Status::success(), std::move(cb));
                return;
              }
              rollback_steps(
                  steps, std::move(succeeded),
                  [this, id, status, cb = std::move(cb)]() mutable {
                    Connection* c = find_conn(id);
                    if (c != nullptr && c->odu.valid()) {
                      proto::OtnOp release;
                      release.op = proto::OtnOp::Op::kRelease;
                      release.circuit = c->odu;
                      ++stats_.commands_issued;
                      issue_command(&model_->otn_ems_client(),
                                    proto::Message{release},
                                    [](Result<proto::Response>) {});
                      odu_to_connection_.erase(c->odu);
                      c->odu = OduCircuitId{};
                    }
                    finish_setup(id, status, std::move(cb));
                  });
            },
            setup_span);
}

void GriphonController::groom_new_carrier(NodeId a, NodeId b,
                                          DoneCallback cb) {
  // A carrier is a plain wavelength whose endpoints feed the OTN switches'
  // line ports; it consumes spectrum, two pool OTs as line optics, and any
  // regens the route needs — exactly what it costs the carrier.
  auto plan = rwa_.plan(a, b, rates::k10G);
  if (!plan.ok()) {
    cb(plan.error());
    return;
  }
  const WavelengthPlan& wplan = plan.value();
  // No customer access is involved; the wavelength command builder gets a
  // synthetic connection record that only carries the carrier's rate.
  Connection record;
  record.src_pop = a;
  record.dst_pop = b;
  record.rate = rates::k10G;
  const Status adm = bring_up(record, wplan, /*include_access=*/false,
                              /*admit_span=*/0, [&] {
    return std::pair{
        std::uint64_t{0},
        [this, a, b, wplan, cb = std::move(cb)](
            Status status, std::shared_ptr<StepList> steps,
            std::vector<std::size_t> succeeded) mutable {
          if (!status.ok()) {
            rollback_steps(steps, std::move(succeeded),
                           [status, cb = std::move(cb)]() mutable {
                             cb(status);
                           });
            return;
          }
          auto carrier =
              model_->add_otn_carrier(a, b, rates::k10G, wplan.path.links);
          if (!carrier.ok()) {
            cb(carrier.error());
            return;
          }
          ++carriers_groomed_;
          groomed_plans_[carrier.value()] = wplan;
          trace(sim::TraceLevel::kInfo, "carrier-groomed",
                "new OTU carrier " + std::to_string(carrier.value().value()));
          cb(Status::success());
        }};
  });
  if (!adm.ok()) cb(adm);
}

void GriphonController::decommission_idle_carriers(DoneCallback cb) {
  std::vector<CarrierId> idle;
  for (const auto& [carrier_id, plan] : groomed_plans_) {
    const auto& carrier = model_->otn().carrier(carrier_id);
    if (carrier.retired()) continue;
    if (carrier.allocated_slots() == 0 && carrier.shared_reserved_slots() == 0)
      idle.push_back(carrier_id);
  }
  if (idle.empty()) {
    cb(Status::success());
    return;
  }
  auto remaining = std::make_shared<std::size_t>(idle.size());
  for (const CarrierId carrier_id : idle) {
    // Retire first so nothing new lands while the wavelength comes down.
    if (const Status s = model_->otn().retire_carrier(carrier_id); !s.ok()) {
      if (--*remaining == 0) cb(Status::success());
      continue;
    }
    const WavelengthPlan plan = groomed_plans_.at(carrier_id);
    groomed_plans_.erase(carrier_id);
    Connection synthetic;
    auto steps = std::make_shared<StepList>(
        build_wavelength_teardown(synthetic, plan, /*include_access=*/false));
    run_steps(steps, /*best_effort=*/true,
              [this, carrier_id, remaining, cb](Status,
                                                std::vector<std::size_t>) {
                trace(sim::TraceLevel::kInfo, "carrier-decommissioned",
                      "OTU carrier " + std::to_string(carrier_id.value()));
                kick_restoration_backlog();
                if (--*remaining == 0) cb(Status::success());
              });
  }
}

void GriphonController::release_connection(ConnectionId id, DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Status{ErrorCode::kNotFound, "controller: unknown connection"});
    return;
  }
  if (c->state == ConnectionState::kReleased ||
      c->state == ConnectionState::kTearingDown) {
    cb(Status{ErrorCode::kConflict, "controller: already releasing"});
    return;
  }
  if (c->state == ConnectionState::kRestoring ||
      c->state == ConnectionState::kRolling ||
      c->state == ConnectionState::kSettingUp) {
    // The orchestration FSM holds partially-built state; let it finish.
    cb(Status{ErrorCode::kBusy,
              "controller: connection busy (setup/restore/roll in flight)"});
    return;
  }
  c->state = ConnectionState::kTearingDown;
  // A backlogged (kFailed) connection can be released; drop its retry
  // entry so no backoff timer resurrects it mid-teardown.
  if (restore_backlog_.erase(id) != 0) update_restoration_gauges();
  if (telemetry::Telemetry* t = model_->telemetry())
    c->op_span =
        t->span_start("connection_release", "controller", telemetry_tag(id),
                      0);

  // The record ends kReleased whatever the best-effort teardown met, so
  // the caller hears success; failed commands are counted, and leftovers
  // are the reconciliation audit's to sweep.
  auto finish = [this, id, cb](Status status, std::size_t failed_commands) {
    Connection* c = find_conn(id);
    if (c == nullptr) return;
    release_nte_port(c->src_site, c->src_nte_port);
    release_nte_port(c->dst_site, c->dst_nte_port);
    c->state = ConnectionState::kReleased;
    count(Outcome::kRelease, 1, c->customer);
    if (failed_commands != 0)
      count(Outcome::kTeardownCommandError, failed_commands);
    if (telemetry::Telemetry* t = model_->telemetry()) {
      t->span_end(c->op_span, status.ok());
      c->op_span = 0;
    }
    trace(sim::TraceLevel::kInfo, "released",
          "connection " + std::to_string(id.value()), id);
    // The teardown freed channels and devices — capacity a backlogged
    // restoration may have been starving for.
    kick_restoration_backlog();
    cb(Status::success());
  };

  auto steps = std::make_shared<StepList>();
  if (c->kind == ConnectionKind::kWavelength) {
    *steps = build_wavelength_teardown(*c, c->plan, /*include_access=*/true);
    if (c->standby)
      append_steps(*steps, build_wavelength_teardown(*c, *c->standby, false));
  } else {
    append_access(*steps, *c, AccessOp::kTeardown);
    proto::OtnOp release;
    release.op = proto::OtnOp::Op::kRelease;
    release.circuit = c->odu;
    steps->push_back(Step{&model_->otn_ems_client(), release, std::nullopt});
  }
  run_steps(steps, /*best_effort=*/true,
            [this, steps, odu = c->odu, finish](
                Status status, std::vector<std::size_t> succeeded) {
              if (odu.valid()) odu_to_connection_.erase(odu);
              finish(status, steps->size() - succeeded.size());
            },
            c->op_span);
}

}  // namespace griphon::core
