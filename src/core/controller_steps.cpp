// GriphonController step builders: plan -> EMS command trains with their
// dependency edges, optical admission, and the reservations a plan holds
// while its train runs.
#include <cassert>
#include <sstream>

#include "core/controller_internal.hpp"

namespace griphon::core {

namespace {

/// The degree of `node`'s ROADM that `link` leaves on.
std::int32_t degree_at(NetworkModel& model, NodeId node, LinkId link) {
  const auto d = model.roadm_at(node).degree_for(link);
  assert(d && "path link not on a ROADM degree");
  return static_cast<std::int32_t>(*d);
}

}  // namespace

Status GriphonController::admit_optical_plan(const WavelengthPlan& plan,
                                             DataRate rate,
                                             std::uint64_t parent_span) {
  std::vector<dwdm::ReachModel::Segment> segments;
  segments.reserve(plan.segments.size());
  for (const auto& seg : plan.segments)
    segments.push_back(
        dwdm::ReachModel::Segment{seg.first_link, seg.last_link});
  const dwdm::ReachModel::Admission verdict = model_->reach().admit(
      model_->graph(), plan.path, segments, dwdm::profile_for(rate));
  if (telemetry::Telemetry* t = model_->telemetry()) {
    std::ostringstream detail;
    detail << "worst margin " << verdict.worst_margin_db << " dB across "
           << verdict.segment_margins_db.size() << " segment(s)";
    // Zero-duration event: the decision is a model lookup, not a probe
    // dialogue — that is the point.
    const SimTime now = model_->engine().now();
    t->span_record("optical_admission", "controller", 0, parent_span, now,
                   now, verdict.admitted, detail.str());
  }
  if (!verdict.admitted)
    return Status{ErrorCode::kUnreachable,
                  "controller: optical admission rejected route (worst "
                  "margin " +
                      std::to_string(verdict.worst_margin_db) + " dB)"};
  return Status::success();
}

void GriphonController::append_access(
    StepList& steps, const Connection& c, AccessOp op,
    const std::array<TransponderId, 2>& ots,
    const std::array<std::size_t, 2>* after) const {
  auto* nte_client = &model_->nte_ems_client();
  auto* fxc_client = &model_->fxc_ems_client();
  const std::array<NodeId, 2> pops{c.src_pop, c.dst_pop};
  const std::array<MuxponderId, 2> sites{c.src_site, c.dst_site};
  const std::array<std::uint32_t, 2> nte_ports{
      static_cast<std::uint32_t>(c.src_nte_port),
      static_cast<std::uint32_t>(c.dst_nte_port)};
  const auto nte_port = [&](std::size_t end, bool engage) {
    return proto::NtePort{sites[end], nte_ports[end], engage};
  };
  // The FXC at an end's PoP and the port its access channel enters on.
  const auto access = [&](std::size_t end) {
    fxc::Fxc& f = model_->fxc_at(pops[end]);
    const auto port = f.port_for(fxc::Wiring::Kind::kCustomerAccess,
                                 sites[end].value(), nte_ports[end]);
    assert(port && "FXC access wiring missing");
    return std::pair<fxc::Fxc&, PortId>{f, *port};
  };
  // What an end's access channel is steered onto.
  const auto landing = [&](const fxc::Fxc& f, std::size_t end) {
    std::optional<PortId> port;
    if (ots[end].valid()) {
      port = f.port_for(fxc::Wiring::Kind::kTransponderClient,
                        ots[end].value(), 0);
    } else {
      const auto& circuit = model_->otn().circuit(c.odu);
      port = f.port_for(fxc::Wiring::Kind::kOtnClientPort,
                        model_->otn().switch_at(pops[end])->id().value(),
                        end == 0 ? circuit.src_port : circuit.dst_port);
    }
    assert(port && "FXC landing wiring missing");
    return *port;
  };

  const std::size_t base = steps.size();
  switch (op) {
    case AccessOp::kSetup:
      // The NTE port must be up before the cross-connect that steers it.
      for (std::size_t end = 0; end < 2; ++end)
        steps.push_back(Step{nte_client, nte_port(end, true),
                             proto::Message{nte_port(end, false)}});
      for (std::size_t end = 0; end < 2; ++end) {
        const auto [f, port] = access(end);
        steps.push_back(
            Step{fxc_client, proto::FxcConnect{f.id(), port, landing(f, end)},
                 proto::Message{proto::FxcDisconnect{f.id(), port}},
                 {base + end}});
      }
      break;
    case AccessOp::kTeardown:
      // The cross-connect unwinds after its side went dark; the NTE port
      // disables only after the cross-connect that steered it is gone.
      for (std::size_t end = 0; end < 2; ++end) {
        const auto [f, port] = access(end);
        steps.push_back(Step{fxc_client, proto::FxcDisconnect{f.id(), port},
                             std::nullopt,
                             after != nullptr
                                 ? std::vector<std::size_t>{(*after)[end]}
                                 : std::vector<std::size_t>{}});
      }
      for (std::size_t end = 0; end < 2; ++end)
        steps.push_back(Step{nte_client, nte_port(end, false), std::nullopt,
                             after != nullptr
                                 ? std::vector<std::size_t>{base + end}
                                 : std::vector<std::size_t>{}});
      break;
    case AccessOp::kRepatch:
      // Hitless: the signal already rolled to the new optics.
      for (std::size_t end = 0; end < 2; ++end) {
        if (!ots[end].valid()) continue;
        const auto [f, port] = access(end);
        steps.push_back(Step{fxc_client, proto::FxcDisconnect{f.id(), port},
                             std::nullopt});
        steps.push_back(
            Step{fxc_client, proto::FxcConnect{f.id(), port, landing(f, end)},
                 std::nullopt});
      }
      break;
  }
}

StepList GriphonController::build_wavelength_setup(
    const Connection& c, const WavelengthPlan& plan,
    bool include_access) const {
  StepList steps;
  if (include_access)
    append_access(steps, c, AccessOp::kSetup, {plan.src_ot, plan.dst_ot});
  auto* roadm = &model_->roadm_ems_client();
  const auto& path = plan.path;

  const auto degree = [&](NodeId node, LinkId link) {
    return degree_at(*model_, node, link);
  };
  const auto roadm_id = [&](NodeId node) {
    return model_->roadm_at(node).id();
  };

  const dwdm::ChannelIndex first_ch = plan.segments.front().channel;
  const dwdm::ChannelIndex last_ch = plan.segments.back().channel;

  // Dependency bookkeeping: `seg_cfg[s]` collects the ROADM-configuration
  // steps of transparent segment s (its power balancing waits for them);
  // `path_steps` collects every path-building step (activation waits for
  // all of them).
  std::vector<std::vector<std::size_t>> seg_cfg(plan.segments.size());
  std::vector<std::size_t> path_steps;

  // Tune endpoint transponders to their segment wavelengths.
  const std::size_t src_tune = steps.size();
  steps.push_back(Step{roadm, proto::OtTune{plan.src_ot, first_ch},
                       proto::Message{proto::OtSetState{
                           plan.src_ot, proto::OtSetState::Action::kReset}}});
  const std::size_t dst_tune = steps.size();
  steps.push_back(Step{roadm, proto::OtTune{plan.dst_ot, last_ch},
                       proto::Message{proto::OtSetState{
                           plan.dst_ot, proto::OtSetState::Action::kReset}}});
  path_steps.push_back(src_tune);
  path_steps.push_back(dst_tune);

  // Endpoint add/drop (colorless, non-directional ports). The transponder
  // must be tuned before the add/drop that references its wavelength.
  const NodeId src = path.nodes.front();
  const NodeId dst = path.nodes.back();
  seg_cfg.front().push_back(steps.size());
  path_steps.push_back(steps.size());
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(src), model_->roadm_port_of_ot(plan.src_ot),
                          degree(src, path.links.front()), first_ch, true},
      proto::Message{proto::RoadmAddDrop{
          roadm_id(src), model_->roadm_port_of_ot(plan.src_ot), 0, 0,
          false}},
      {src_tune}});
  seg_cfg.back().push_back(steps.size());
  path_steps.push_back(steps.size());
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(dst), model_->roadm_port_of_ot(plan.dst_ot),
                          degree(dst, path.links.back()), last_ch, true},
      proto::Message{proto::RoadmAddDrop{
          roadm_id(dst), model_->roadm_port_of_ot(plan.dst_ot), 0, 0,
          false}},
      {dst_tune}});

  // Regenerators at segment boundaries: two add/drop ports + engage. The
  // regen engages only after both of its add/drops are configured.
  for (std::size_t b = 0; b < plan.regens.size(); ++b) {
    const auto& seg_in = plan.segments[b];
    const auto& seg_out = plan.segments[b + 1];
    const NodeId site = path.nodes[seg_in.last_link + 1];
    const RegenId regen = plan.regens[b];
    const auto [up_port, down_port] = model_->roadm_ports_of_regen(regen);
    const std::size_t up_step = steps.size();
    seg_cfg[b].push_back(up_step);
    path_steps.push_back(up_step);
    steps.push_back(Step{
        roadm,
        proto::RoadmAddDrop{roadm_id(site), up_port,
                            degree(site, path.links[seg_in.last_link]),
                            seg_in.channel, true},
        proto::Message{
            proto::RoadmAddDrop{roadm_id(site), up_port, 0, 0, false}}});
    const std::size_t down_step = steps.size();
    seg_cfg[b + 1].push_back(down_step);
    path_steps.push_back(down_step);
    steps.push_back(Step{
        roadm,
        proto::RoadmAddDrop{roadm_id(site), down_port,
                            degree(site, path.links[seg_out.first_link]),
                            seg_out.channel, true},
        proto::Message{
            proto::RoadmAddDrop{roadm_id(site), down_port, 0, 0, false}}});
    // The engaged regen is the light source of the downstream segment.
    seg_cfg[b + 1].push_back(steps.size());
    path_steps.push_back(steps.size());
    steps.push_back(
        Step{roadm,
             proto::RegenEngage{regen, seg_in.channel, seg_out.channel, true},
             proto::Message{proto::RegenEngage{regen, seg_in.channel,
                                               seg_out.channel, false}},
             {up_step, down_step}});
  }

  // Express cross-connects at nodes interior to each transparent segment.
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    const auto& seg = plan.segments[s];
    for (std::size_t j = seg.first_link; j < seg.last_link; ++j) {
      const NodeId node = path.nodes[j + 1];
      seg_cfg[s].push_back(steps.size());
      path_steps.push_back(steps.size());
      steps.push_back(Step{
          roadm,
          proto::RoadmExpress{roadm_id(node), seg.channel,
                              degree(node, path.links[j]),
                              degree(node, path.links[j + 1]), true},
          proto::Message{proto::RoadmExpress{
              roadm_id(node), seg.channel, degree(node, path.links[j]),
              degree(node, path.links[j + 1]), false}}});
    }
  }

  // Per-link power balancing + equalization (the per-hop optical task).
  // A segment balances once its ROADM configuration is in; segments
  // balance independently of each other.
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    const auto& seg = plan.segments[s];
    for (std::size_t j = seg.first_link; j <= seg.last_link; ++j) {
      path_steps.push_back(steps.size());
      steps.push_back(Step{
          roadm, proto::PowerBalance{path.links[j], seg.channel},
          std::nullopt, seg_cfg[s]});
    }
  }

  // Light it up — only after the whole path is built and balanced.
  steps.push_back(
      Step{roadm,
           proto::OtSetState{plan.src_ot, proto::OtSetState::Action::kActivate},
           proto::Message{proto::OtSetState{
               plan.src_ot, proto::OtSetState::Action::kDeactivate}},
           path_steps});
  steps.push_back(
      Step{roadm,
           proto::OtSetState{plan.dst_ot, proto::OtSetState::Action::kActivate},
           proto::Message{proto::OtSetState{
               plan.dst_ot, proto::OtSetState::Action::kDeactivate}},
           path_steps});
  return steps;
}

StepList GriphonController::build_wavelength_teardown(
    const Connection& c, const WavelengthPlan& plan,
    bool include_access) const {
  StepList steps;
  auto* roadm = &model_->roadm_ems_client();
  const auto& path = plan.path;
  const auto roadm_id = [&](NodeId node) {
    return model_->roadm_at(node).id();
  };
  const auto degree = [&](NodeId node, LinkId link) {
    return degree_at(*model_, node, link);
  };

  // Stop the light first: everything else unconfigures only after both
  // endpoint transponders are dark.
  const std::size_t deact_src = steps.size();
  steps.push_back(Step{roadm,
                       proto::OtSetState{plan.src_ot,
                                         proto::OtSetState::Action::kDeactivate},
                       std::nullopt});
  const std::size_t deact_dst = steps.size();
  steps.push_back(Step{roadm,
                       proto::OtSetState{plan.dst_ot,
                                         proto::OtSetState::Action::kDeactivate},
                       std::nullopt});
  const std::vector<std::size_t> dark{deact_src, deact_dst};
  for (const auto& seg : plan.segments) {
    for (std::size_t j = seg.first_link; j < seg.last_link; ++j) {
      const NodeId node = path.nodes[j + 1];
      steps.push_back(Step{roadm,
                           proto::RoadmExpress{roadm_id(node), seg.channel,
                                               degree(node, path.links[j]),
                                               degree(node, path.links[j + 1]),
                                               false},
                           std::nullopt, dark});
    }
  }
  for (std::size_t b = 0; b < plan.regens.size(); ++b) {
    const auto& seg_in = plan.segments[b];
    const NodeId site = path.nodes[seg_in.last_link + 1];
    const RegenId regen = plan.regens[b];
    const auto [up_port, down_port] = model_->roadm_ports_of_regen(regen);
    // Disengage the regen before tearing its add/drop ports out from
    // under it.
    const std::size_t regen_release = steps.size();
    steps.push_back(Step{
        roadm, proto::RegenEngage{regen, 0, 0, false}, std::nullopt, dark});
    steps.push_back(
        Step{roadm, proto::RoadmAddDrop{roadm_id(site), up_port, 0, 0, false},
             std::nullopt, {regen_release}});
    steps.push_back(Step{
        roadm, proto::RoadmAddDrop{roadm_id(site), down_port, 0, 0, false},
        std::nullopt, {regen_release}});
  }
  const NodeId src = path.nodes.front();
  const NodeId dst = path.nodes.back();
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(src), model_->roadm_port_of_ot(plan.src_ot),
                          0, 0, false},
      std::nullopt, {deact_src}});
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(dst), model_->roadm_port_of_ot(plan.dst_ot),
                          0, 0, false},
      std::nullopt, {deact_dst}});

  if (include_access) {
    const std::array<std::size_t, 2> dark_sides{deact_src, deact_dst};
    append_access(steps, c, AccessOp::kTeardown, {}, &dark_sides);
  }
  return steps;
}

void GriphonController::reserve_plan(const WavelengthPlan& plan) {
  for (const auto& seg : plan.segments)
    for (std::size_t j = seg.first_link; j <= seg.last_link; ++j)
      inventory_.reserve_channel(plan.path.links[j], seg.channel);
  inventory_.reserve_ot(plan.src_ot);
  inventory_.reserve_ot(plan.dst_ot);
  for (const RegenId r : plan.regens) inventory_.reserve_regen(r);
}

void GriphonController::unreserve_plan(const WavelengthPlan& plan) {
  for (const auto& seg : plan.segments)
    for (std::size_t j = seg.first_link; j <= seg.last_link; ++j)
      inventory_.release_channel(plan.path.links[j], seg.channel);
  inventory_.release_ot(plan.src_ot);
  inventory_.release_ot(plan.dst_ot);
  for (const RegenId r : plan.regens) inventory_.release_regen(r);
}

}  // namespace griphon::core
