// GriphonController bridge-and-roll and what builds on it: rolls onto
// RWA or caller-supplied plans, maintenance evacuation and re-grooming.
#include <numeric>

#include "core/controller_internal.hpp"

namespace griphon::core {

void GriphonController::roll_to_plan(ConnectionId id,
                                     const WavelengthPlan& new_plan,
                                     DoneCallback cb) {
  Connection* c0 = find_conn(id);
  // Stricter than is_up(): kRestoring means a restoration owns the state
  // machine right now (a fiber cut can land during the roll's path-compute
  // think time), and kRolling means another roll does. Starting a roll in
  // either state would clobber the in-flight operation.
  if (c0 == nullptr || c0->state != ConnectionState::kActive) {
    cb(Status{ErrorCode::kConflict, "controller: connection not rollable"});
    return;
  }
  // Bridge: build the new path end to end while traffic rides the old one.
  const Status adm = bring_up(*c0, new_plan, /*include_access=*/false,
                              /*admit_span=*/0, [&] {
    c0->state = ConnectionState::kRolling;
    std::uint64_t bridge_span = 0;
    if (telemetry::Telemetry* t = model_->telemetry()) {
      c0->op_span =
          t->span_start("bridge_and_roll", "controller", telemetry_tag(id), 0);
      bridge_span = t->span_start("bridge", "controller", 0, c0->op_span);
    }
    // Failure handling (a fiber cut on the in-service path) can take the
    // connection out of kRolling while the bridge is still building. The
    // restoration machinery owns the state machine from that point; every
    // roll callback below re-checks the state and, if it lost the race,
    // unwinds the bridge and stands down instead of clobbering the
    // restoration. c->op_span may already belong to the restoration then,
    // so the roll's root span handle is captured by value here.
    const std::uint64_t roll_span = c0->op_span;
    // Counts a roll that did not happen and closes its root span.
    const auto roll_failed = [this, roll_span](Connection& c,
                                               const std::string& why) {
      count(Outcome::kRollFailed);
      if (telemetry::Telemetry* t = model_->telemetry()) {
        t->span_end(roll_span, false, why);
        if (c.op_span == roll_span) c.op_span = 0;
      }
    };
    return std::pair{
        bridge_span,
        [this, id, new_plan, bridge_span, roll_span, roll_failed,
         cb = std::move(cb)](Status status, std::shared_ptr<StepList> steps,
                             std::vector<std::size_t> succeeded) mutable {
          if (telemetry::Telemetry* t = model_->telemetry())
            t->span_end(bridge_span, status.ok());
          Connection* c = find_conn(id);
          if (c == nullptr) return;
          if (!status.ok() || c->state != ConnectionState::kRolling) {
            const Status out =
                status.ok()
                    ? Status{ErrorCode::kConflict,
                             "controller: connection failed during bridge; "
                             "restoration owns recovery"}
                    : status;
            roll_failed(*c, out.error().message());
            rollback_steps(steps, std::move(succeeded),
                           [this, id, out, cb = std::move(cb)]() mutable {
                             Connection* c = find_conn(id);
                             // Only un-wedge a still-rolling connection; a
                             // failed or restoring one belongs to failure
                             // handling.
                             if (c != nullptr &&
                                 c->state == ConnectionState::kRolling)
                               c->state = ConnectionState::kActive;
                             cb(out);
                           });
            return;
          }
          // Roll: the NTE bridges the client signal to both paths; the
          // receive side selects the new one. The service hit is tens of
          // milliseconds.
          model_->engine().schedule(kRollHit, [this, id, new_plan, steps,
                                               roll_span, roll_failed,
                                               cb = std::move(cb)]() mutable {
            Connection* c = find_conn(id);
            if (c == nullptr) return;
            if (c->state != ConnectionState::kRolling) {
              // The cut landed in the post-bridge settling window. The
              // bridge is fully built, so unwind all of it and let
              // restoration recover the service on whatever path it finds.
              roll_failed(*c, "superseded by failure handling");
              std::vector<std::size_t> all(steps->size());
              std::iota(all.begin(), all.end(), 0);
              rollback_steps(steps, std::move(all),
                             [cb = std::move(cb)]() mutable {
                               cb(Status{ErrorCode::kConflict,
                                         "controller: connection failed "
                                         "before the roll; restoration owns "
                                         "recovery"});
                             });
              return;
            }
            const WavelengthPlan old_plan = c->plan;
            c->plan = new_plan;
            ++c->rolls;
            c->roll_hit_total += kRollHit;
            if (telemetry::Telemetry* t = model_->telemetry()) {
              // The roll itself: the sub-second traffic hit, recorded in
              // hindsight now that the receive side has selected the new
              // path.
              t->span_record("roll", "controller", 0, c->op_span,
                             t->now() - kRollHit, t->now());
              t->metrics()
                  .histogram("griphon_controller_roll_hit_seconds",
                             "Traffic hit while rolling between bridged "
                             "paths",
                             {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                              1.0})
                  ->observe(to_seconds(kRollHit));
            }
            // Re-patch the FXCs to the new OTs, then release the old path.
            auto post = std::make_shared<StepList>();
            const auto moved = [](TransponderId old_ot, TransponderId ot) {
              return old_ot != ot ? ot : TransponderId{};
            };
            append_access(*post, *c, AccessOp::kRepatch,
                          {moved(old_plan.src_ot, new_plan.src_ot),
                           moved(old_plan.dst_ot, new_plan.dst_ot)});
            // Teardown deps are indices within their own list; the repatch
            // steps above shift them, so rebase instead of splicing raw.
            const std::size_t tear_base = post->size();
            append_steps(*post,
                         build_wavelength_teardown(*c, old_plan,
                                                   /*include_access=*/false));
            // Old endpoint optics the new plan no longer uses go back to
            // idle, not just dark: a completed roll must leave no
            // tuned-but-unowned residue for resync to sweep. Deactivate
            // steps sit first in the teardown (tear_base + 0 / + 1).
            // Deactivation alone returns an OT to the free pool, so each
            // stays reserved until the train is done: a setup that picked
            // it in between would have it reset under it.
            auto* roadm = &model_->roadm_ems_client();
            std::vector<TransponderId> resets;
            if (old_plan.src_ot != new_plan.src_ot) {
              post->push_back(
                  Step{roadm,
                       proto::OtSetState{old_plan.src_ot,
                                         proto::OtSetState::Action::kReset},
                       std::nullopt, {tear_base}});
              resets.push_back(old_plan.src_ot);
            }
            if (old_plan.dst_ot != new_plan.dst_ot) {
              post->push_back(
                  Step{roadm,
                       proto::OtSetState{old_plan.dst_ot,
                                         proto::OtSetState::Action::kReset},
                       std::nullopt, {tear_base + 1}});
              resets.push_back(old_plan.dst_ot);
            }
            for (const TransponderId ot : resets) inventory_.reserve_ot(ot);
            std::uint64_t repatch_span = 0;
            if (telemetry::Telemetry* t = model_->telemetry())
              repatch_span = t->span_start("repatch_teardown", "controller",
                                           0, c->op_span);
            run_steps(post, true, [this, id, repatch_span, roll_span, resets,
                                   cb = std::move(cb)](
                                      Status,
                                      std::vector<std::size_t>) mutable {
              for (const TransponderId ot : resets) inventory_.release_ot(ot);
              Connection* c = find_conn(id);
              if (c != nullptr && c->state == ConnectionState::kRolling)
                c->state = ConnectionState::kActive;
              count(Outcome::kRollOk);
              if (telemetry::Telemetry* t = model_->telemetry()) {
                t->span_end(repatch_span);
                t->span_end(roll_span);
                if (c != nullptr && c->op_span == roll_span) c->op_span = 0;
              }
              trace(sim::TraceLevel::kInfo, "roll-done",
                    "connection " + std::to_string(id.value()), id);
              // The old path's release is a capacity-freeing event (reopt
              // moves drain fragmented spectrum a backlogged restoration
              // may need).
              kick_restoration_backlog();
              cb(Status::success());
            },
            repatch_span);
          });
        }};
  });
  if (!adm.ok()) cb(adm);
}

void GriphonController::bridge_and_roll(ConnectionId id,
                                        const Exclusions& avoid,
                                        DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Status{ErrorCode::kNotFound, "controller: unknown connection"});
    return;
  }
  if (c->kind != ConnectionKind::kWavelength) {
    cb(Status{ErrorCode::kInvalidArgument,
              "controller: bridge-and-roll applies to wavelength services"});
    return;
  }
  if (!c->is_up()) {
    cb(Status{ErrorCode::kConflict, "controller: connection not active"});
    return;
  }
  model_->engine().schedule(kPathComputation, [this, id, avoid,
                                               cb = std::move(cb)]() mutable {
    Connection* c = find_conn(id);
    if (c == nullptr || !c->is_up()) {
      cb(Status{ErrorCode::kConflict, "controller: connection went away"});
      return;
    }
    // The bridge must be resource-disjoint from the in-service path (paper
    // §2.2 constraint) — including conduit-mates of its links (SRLG) —
    // plus whatever the caller wants avoided.
    Exclusions full = avoid;
    for (const LinkId l : c->plan.path.links)
      for (const LinkId sibling : model_->graph().srlg_siblings(l))
        full.links.insert(sibling);
    auto plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate, full);
    if (!plan.ok()) {
      count(Outcome::kRollFailed);
      cb(plan.error());
      return;
    }
    roll_to_plan(id, std::move(plan).value(), std::move(cb));
  });
}

void GriphonController::roll_to(ConnectionId id, const WavelengthPlan& new_plan,
                                DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Status{ErrorCode::kNotFound, "controller: unknown connection"});
    return;
  }
  if (c->kind != ConnectionKind::kWavelength) {
    cb(Status{ErrorCode::kInvalidArgument,
              "controller: roll_to applies to wavelength services"});
    return;
  }
  // Stricter than is_up(): a connection already mid-roll cannot take a
  // second overlapping roll.
  if (c->state != ConnectionState::kActive) {
    cb(Status{ErrorCode::kConflict, "controller: connection not active"});
    return;
  }
  if (new_plan.path.nodes.empty() || new_plan.path.nodes.front() != c->src_pop ||
      new_plan.path.nodes.back() != c->dst_pop) {
    cb(Status{ErrorCode::kInvalidArgument,
              "controller: plan endpoints do not match connection"});
    return;
  }
  if (new_plan.segments.empty()) {
    cb(Status{ErrorCode::kInvalidArgument, "controller: plan has no segments"});
    return;
  }
  // Both paths are lit simultaneously while the bridge stands, so the new
  // plan may not reuse any (link, channel) cell of the current one.
  std::set<std::pair<std::uint64_t, dwdm::ChannelIndex>> lit;
  for (const SegmentPlan& seg : c->plan.segments)
    for (std::size_t i = seg.first_link; i <= seg.last_link; ++i)
      lit.emplace(c->plan.path.links[i].value(), seg.channel);
  for (const SegmentPlan& seg : new_plan.segments) {
    for (std::size_t i = seg.first_link; i <= seg.last_link; ++i) {
      if (lit.count({new_plan.path.links[i].value(), seg.channel}) != 0) {
        cb(Status{ErrorCode::kConflict,
                  "controller: plan shares a lit (link, channel) cell with "
                  "the in-service path"});
        return;
      }
    }
  }
  roll_to_plan(id, new_plan, std::move(cb));
}

void GriphonController::prepare_maintenance(LinkId link, DoneCallback cb) {
  std::vector<ConnectionId> to_roll;
  for (const auto& [id, c] : connections_) {
    if (c.kind != ConnectionKind::kWavelength || !c.is_up()) continue;
    if (c.plan.path.uses_link(link)) to_roll.push_back(id);
  }
  // Protected OTN circuits riding the span move to their backups
  // proactively (done by the switches on command, small hit).
  if (model_->config().with_otn) {
    for (const OduCircuitId odu : model_->otn().circuit_ids()) {
      const auto& circuit = model_->otn().circuit(odu);
      if (circuit.state != otn::OduCircuit::State::kActive ||
          !circuit.is_protected)
        continue;
      const bool on_span = std::any_of(
          circuit.primary.begin(), circuit.primary.end(), [&](CarrierId cid) {
            return model_->otn().carrier(cid).rides_link(link);
          });
      if (on_span) (void)model_->otn().preemptive_switch(odu);
    }
  }
  if (to_roll.empty()) {
    cb(Status::success());
    return;
  }
  auto remaining = std::make_shared<std::size_t>(to_roll.size());
  auto first_error = std::make_shared<Status>(Status::success());
  for (const ConnectionId id : to_roll) {
    Exclusions avoid;
    avoid.links.insert(link);
    bridge_and_roll(id, avoid,
                    [remaining, first_error, cb](Status s) {
                      if (!s.ok() && first_error->ok()) *first_error = s;
                      if (--*remaining == 0) cb(*first_error);
                    });
  }
}

void GriphonController::regroom(ConnectionId id, DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr || c->kind != ConnectionKind::kWavelength || !c->is_up()) {
    cb(Status{ErrorCode::kConflict, "controller: not re-groomable"});
    return;
  }
  // Would a fresh plan (ignoring the current one) be shorter? The bridge
  // must still be resource-disjoint, so exclude the current links.
  Exclusions avoid;
  for (const LinkId l : c->plan.path.links) avoid.links.insert(l);
  auto candidate = rwa_.plan(c->src_pop, c->dst_pop, c->rate, avoid);
  if (!candidate.ok()) {
    cb(Status{ErrorCode::kUnreachable,
              "controller: no disjoint alternative path"});
    return;
  }
  const auto& g = model_->graph();
  if (candidate.value().path.length(g) >= c->plan.path.length(g)) {
    cb(Status::success());  // current path already best; nothing to do
    return;
  }
  roll_to_plan(id, std::move(candidate).value(), std::move(cb));
}

}  // namespace griphon::core
