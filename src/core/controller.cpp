// GriphonController: construction, connection lookups, NTE port
// bookkeeping and outcome counting. The other jobs live in the
// controller_*.cpp files named in controller.hpp.
#include "core/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace griphon::core {

namespace {

/// A counted outcome's Stats field and metric twin.
struct OutcomeTwin {
  std::size_t GriphonController::Stats::*field;
  const char* metric;
  const char* help;
};

using S = GriphonController::Stats;

/// Indexed by GriphonController::Outcome.
constexpr OutcomeTwin kOutcomeTwins[] = {
    {&S::setups_ok, "griphon_controller_setups_ok_total",
     "Connection setups completed"},
    {&S::setups_failed, "griphon_controller_setups_failed_total",
     "Connection setups failed and rolled back"},
    {&S::releases, "griphon_controller_releases_total",
     "Connections released"},
    {&S::teardown_command_errors,
     "griphon_controller_teardown_command_errors_total",
     "Best-effort teardown commands that failed during a release"},
    {&S::restorations_ok, "griphon_controller_restorations_ok_total",
     "Restorations completed: wavelengths re-provisioned and OTN mesh "
     "switches"},
    {&S::restorations_failed, "griphon_controller_restorations_failed_total",
     "Restoration attempts that failed: wavelength and OTN mesh"},
    {&S::restorations_retried, "griphon_restoration_retries_total",
     "Backlogged restorations relaunched"},
    {&S::restorations_non_diverse, "griphon_restoration_non_diverse_total",
     "Restorations that fell back to a non-SRLG-diverse path"},
    {&S::bod_windows_preempted, "griphon_restoration_preemptions_total",
     "Best-effort BoD windows preempted for gold restorations"},
    {&S::rolls_ok, "griphon_controller_rolls_ok_total",
     "Bridge-and-roll operations completed"},
    {&S::rolls_failed, "griphon_controller_rolls_failed_total",
     "Bridge-and-roll attempts that failed"},
    {&S::resync_runs, "griphon_controller_resync_runs_total",
     "Reconciliation audits run"},
    {&S::resync_leaks, "griphon_controller_resync_leaks_total",
     "Unowned device configuration found by audits"},
    {&S::resync_drift, "griphon_controller_resync_drift_total",
     "Connections found missing device configuration"},
};

}  // namespace

GriphonController::GriphonController(NetworkModel* model, Params params)
    : model_(model), params_(params), inventory_(model),
      rwa_(model, &inventory_, params.rwa),
      failures_(&model->engine()),
      ems_health_(&model->engine()) {
  client_domains_ = {
      {&model_->roadm_ems_client(), "roadm-ems"},
      {&model_->fxc_ems_client(), "fxc-ems"},
      {&model_->otn_ems_client(), "otn-ems"},
      {&model_->nte_ems_client(), "nte-ems"},
  };
  // O(1) snapshot free-bitmap maintenance off device lifecycle
  // transitions (DESIGN.md §15) — no pool re-scan on the plan hot path.
  inventory_.attach_device_listeners(model_);
  // Alarm plumbing: every EMS event stream feeds the failure manager.
  const auto sink = [this](const proto::Frame& frame) {
    handle_alarm_frame(frame);
  };
  model_->roadm_ems_client().on_event(sink);
  model_->fxc_ems_client().on_event(sink);
  model_->otn_ems_client().on_event(sink);
  model_->nte_ems_client().on_event(sink);
  // The failure manager groups localized links by conduit so a backhoe
  // cut arrives as one correlated storm event, not N independent ones.
  failures_.set_srlg_resolver([this](LinkId link) {
    return model_->graph().srlg_siblings(link);
  });
  failures_.on_failure([this](const FailureManager::FailureEvent& event) {
    on_links_failed(event);
  });
  failures_.on_repair(
      [this](const std::vector<LinkId>& links) { on_links_repaired(links); });

  if (model_->config().with_otn) {
    model_->mesh_restorer().on_restore(
        [this](OduCircuitId odu, Status status) {
          const auto it = odu_to_connection_.find(odu);
          if (it == odu_to_connection_.end()) return;
          Connection* c = find_conn(it->second);
          if (c == nullptr) return;
          if (status.ok()) {
            ++c->restorations;
            count(Outcome::kRestorationOk);
            if (c->state == ConnectionState::kFailed) {
              mark_recovered(*c);
            } else {
              // Mesh restoration finished before alarm correlation even
              // localized the cut; charge the measured sub-second hit.
              const auto& times =
                  model_->mesh_restorer().restoration_times();
              const auto t = times.find(odu);
              if (t != times.end()) c->total_outage += t->second;
            }
            trace(sim::TraceLevel::kInfo, "otn-restored",
                  "connection " + std::to_string(c->id.value()), c->id);
          } else {
            count(Outcome::kRestorationFailed);
            trace(sim::TraceLevel::kWarn, "otn-restore-failed",
                  status.error().message(), c->id);
          }
        });
    model_->mesh_restorer().on_revert_eligible([this](OduCircuitId odu) {
      // Revertive mode: move traffic home shortly after repair.
      model_->engine().schedule(milliseconds(500), [this, odu]() {
        const auto it = odu_to_connection_.find(odu);
        if (it == odu_to_connection_.end()) return;
        (void)model_->otn().revert_to_primary(odu);
      });
    });
  }
}

void GriphonController::count(Outcome outcome, std::size_t n,
                              CustomerId customer) {
  const OutcomeTwin& twin = kOutcomeTwins[static_cast<std::size_t>(outcome)];
  stats_.*twin.field += n;
  telemetry::Telemetry* t = model_->telemetry();
  if (t == nullptr) return;
  auto& m = t->metrics();
  m.counter(twin.metric, twin.help)->inc(n);
  // Per-customer series: customer isolation must be observable.
  if (customer.valid())
    m.counter(twin.metric, twin.help,
              {{"customer", std::to_string(customer.value())}})
        ->inc(n);
}

void GriphonController::trace(sim::TraceLevel level, const std::string& event,
                              const std::string& detail, ConnectionId id) {
  model_->trace().emit(model_->engine().now(), level, "controller", event,
                       detail, id.valid() ? telemetry_tag(id) : 0);
}

Connection* GriphonController::find_conn(ConnectionId id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

const Connection& GriphonController::connection(ConnectionId id) const {
  const auto it = connections_.find(id);
  if (it == connections_.end())
    throw std::out_of_range("controller: unknown connection");
  return it->second;
}

const Connection* GriphonController::find_connection(
    ConnectionId id) const noexcept {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

std::vector<ConnectionId> GriphonController::connections_of(
    CustomerId customer) const {
  std::vector<ConnectionId> out;
  for (const auto& [id, c] : connections_)
    if (c.customer == customer && c.state != ConnectionState::kReleased &&
        c.state != ConnectionState::kSetupFailed)
      out.push_back(id);
  return out;
}

std::size_t GriphonController::active_connections() const {
  return static_cast<std::size_t>(
      std::count_if(connections_.begin(), connections_.end(),
                    [](const auto& kv) { return kv.second.is_up(); }));
}

std::vector<ConnectionId> GriphonController::live_wavelength_connections()
    const {
  std::vector<ConnectionId> out;
  for (const auto& [id, c] : connections_)
    if (c.kind == ConnectionKind::kWavelength && c.is_up()) out.push_back(id);
  return out;  // connections_ is an ordered map, so ids are ascending
}

Result<std::size_t> GriphonController::pick_free_nte_port(MuxponderId nte) {
  const auto& device = model_->nte(nte);
  for (std::size_t p = 0; p < dwdm::Muxponder::kClientPorts; ++p) {
    if (device.port_in_use(p)) continue;
    if (reserved_nte_ports_.contains({nte, p})) continue;
    reserved_nte_ports_.insert({nte, p});
    return p;
  }
  return Error{ErrorCode::kResourceExhausted,
               "controller: access pipe fully used at site"};
}

void GriphonController::release_nte_port(MuxponderId nte, std::size_t port) {
  reserved_nte_ports_.erase({nte, port});
}

}  // namespace griphon::core
