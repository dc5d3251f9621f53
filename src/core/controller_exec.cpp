// GriphonController command execution: every EMS command goes out
// through issue_command (circuit breaker, bounded retry), and every train
// through run_steps on the dependency-DAG executor; rollback replays the
// undo steps of what succeeded.
#include "core/controller_internal.hpp"

namespace griphon::core {

namespace {

/// Max dialogues in flight per EMS domain on the DAG executor.
constexpr std::size_t kDagDomainWindow = 4;

/// Application-level retry of EMS commands, on top of the protocol
/// client's frame retransmissions. Timeout retries reuse the original
/// request id (idempotency key — the EMS response cache absorbs a
/// duplicated execution); retryable NACKs (kBusy) retry under a fresh id
/// after backoff.
constexpr int kCommandMaxAttempts = 3;  ///< total tries per command
constexpr SimTime kCommandBaseBackoff = seconds(2);
constexpr double kCommandBackoffMultiplier = 2.0;
constexpr SimTime kCommandMaxBackoff = seconds(30);
constexpr double kCommandJitter = 0.25;  ///< uniform +/- fraction of a delay

/// Telemetry span name + actor for one EMS command.
struct SpanLabel {
  const char* name;
  const char* actor;
};

SpanLabel span_label(const proto::Message& m) {
  struct Visitor {
    SpanLabel operator()(const proto::FxcConnect&) {
      return {"fxc.xconnect", "fxc-ems"};
    }
    SpanLabel operator()(const proto::FxcDisconnect&) {
      return {"fxc.disconnect", "fxc-ems"};
    }
    SpanLabel operator()(const proto::RoadmExpress&) {
      return {"roadm.express", "roadm-ems"};
    }
    SpanLabel operator()(const proto::RoadmAddDrop&) {
      return {"roadm.add_drop", "roadm-ems"};
    }
    SpanLabel operator()(const proto::OtTune&) {
      return {"ot.tune", "roadm-ems"};
    }
    SpanLabel operator()(const proto::OtSetState&) {
      return {"ot.set_state", "roadm-ems"};
    }
    SpanLabel operator()(const proto::RegenEngage&) {
      return {"regen.engage", "roadm-ems"};
    }
    SpanLabel operator()(const proto::PowerBalance&) {
      return {"power.balance", "roadm-ems"};
    }
    SpanLabel operator()(const proto::OtnOp&) { return {"otn.op", "otn-ems"}; }
    SpanLabel operator()(const proto::NtePort&) {
      return {"nte.port", "nte-ems"};
    }
    SpanLabel operator()(const proto::Response&) {
      return {"ems.command", "ems"};
    }
    SpanLabel operator()(const proto::AlarmEvent&) {
      return {"ems.command", "ems"};
    }
    SpanLabel operator()(const proto::EmsBatch&) {
      // Only stateless power balancing is coalesced today (see
      // proto::EmsBatch); label the dialogue accordingly.
      return {"power.balance.batch", "roadm-ems"};
    }
  };
  return std::visit(Visitor{}, m);
}

/// Worth a second try? kTimeout: the transport gave up and the command's
/// fate is unknown. kBusy: transient EMS/device contention. Validation
/// NACKs and device faults are deterministic — retrying burns time.
bool command_retryable(ErrorCode code) {
  return code == ErrorCode::kTimeout || code == ErrorCode::kBusy;
}

}  // namespace

const std::string& GriphonController::domain_of(
    const proto::RequestClient* client) const {
  static const std::string kUnknown = "ems";
  const auto it = client_domains_.find(client);
  return it == client_domains_.end() ? kUnknown : it->second;
}

SimTime GriphonController::retry_delay(int attempt) {
  double d = to_seconds(kCommandBaseBackoff);
  for (int i = 1; i < attempt; ++i) d *= kCommandBackoffMultiplier;
  d = std::min(d, to_seconds(kCommandMaxBackoff));
  d *= model_->engine().rng().uniform(1.0 - kCommandJitter,
                                      1.0 + kCommandJitter);
  return from_seconds(d);
}

void GriphonController::issue_command(
    proto::RequestClient* client, proto::Message message,
    proto::RequestClient::ResponseCallback cb, int attempt,
    std::uint64_t idem_key) {
  ems_health_.set_telemetry(model_->telemetry());
  const std::string& domain = domain_of(client);
  if (!ems_health_.allow(domain)) {
    // Breaker open: shed the command without touching the wire, so a dead
    // EMS costs microseconds, not a protocol-timeout ladder. Deferred one
    // event to keep callback ordering identical to the wire path.
    ++stats_.commands_shed;
    ++pending_commands_;
    model_->engine().schedule(
        SimTime{}, [this, domain, cb = std::move(cb)]() {
          --pending_commands_;
          cb(Error{ErrorCode::kUnavailable,
                   "controller: " + domain + " circuit breaker open"});
        });
    return;
  }
  ++pending_commands_;
  // The id the frame actually went out under; needed to reuse it as the
  // idempotency key on a retry-after-timeout. request() returns before any
  // callback can fire (single-threaded sim), so the shared slot is always
  // populated by then.
  auto sent_id = std::make_shared<std::uint64_t>(0);
  *sent_id = client->request(
      message,
      [this, client, message, cb = std::move(cb), attempt, sent_id](
          Result<proto::Response> r) mutable {
        --pending_commands_;
        const bool transport_timeout =
            !r.ok() && r.error().code() == ErrorCode::kTimeout;
        if (transport_timeout)
          ems_health_.record_timeout(domain_of(client));
        else
          ems_health_.record_success(domain_of(client));
        const Status s = response_to_status(r);
        if (!s.ok() && command_retryable(s.error().code()) &&
            attempt < kCommandMaxAttempts) {
          ++stats_.commands_retried;
          // After a timeout the command may or may not have executed:
          // retry under the SAME request id so the EMS either replays its
          // cached response or executes once. A NACK is cached under this
          // id too, so a retryable NACK must go out under a fresh id.
          const std::uint64_t reuse = transport_timeout ? *sent_id : 0;
          trace(sim::TraceLevel::kInfo, "command-retry",
                domain_of(client) + " attempt " + std::to_string(attempt) +
                    ": " + s.error().message());
          model_->engine().schedule(
              retry_delay(attempt),
              [this, client, message = std::move(message),
               cb = std::move(cb), attempt, reuse]() mutable {
                issue_command(client, std::move(message), std::move(cb),
                              attempt + 1, reuse);
              });
          return;
        }
        cb(std::move(r));
      },
      idem_key);
}

struct GriphonController::RunState {
  std::shared_ptr<StepList> steps;
  bool best_effort = false;
  RunDone done;
  std::vector<std::size_t> succeeded;
  Status first_error = Status::success();
  std::uint64_t parent_span = 0;     // 0 = no per-command spans
  std::unique_ptr<StepDag> dag;
  std::unique_ptr<DagScheduler> sched;
  std::vector<std::string> domains;  // per-step EMS domain
  SimTime run_start{};
  StepDagReport report;
  bool done_called = false;
};

void GriphonController::run_steps(std::shared_ptr<StepList> train,
                                  bool best_effort, RunDone done,
                                  std::uint64_t parent_span) {
  auto state = std::make_shared<RunState>();
  state->steps = std::move(train);
  state->best_effort = best_effort;
  state->done = std::move(done);
  if (model_->telemetry() != nullptr) state->parent_span = parent_span;
  if (state->steps->empty()) {
    state->done(Status::success(), {});
    return;
  }
  const StepList& steps = *state->steps;
  // Sequential mode chains every step to the one before it: one dialogue
  // in flight, nothing ready to batch alongside it.
  state->dag = std::make_unique<StepDag>(
      steps, params_.exec_mode == ExecMode::kSequential);
  state->domains.reserve(steps.size());
  for (const Step& s : steps) state->domains.push_back(domain_of(s.client));
  state->sched = std::make_unique<DagScheduler>(
      state->dag.get(), state->domains, kDagDomainWindow);
  state->run_start = model_->engine().now();
  state->report.started_at_s = to_seconds(state->run_start);
  state->report.steps.resize(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    DagStepRecord& rec = state->report.steps[i];
    rec.name = span_label(steps[i].forward).name;
    rec.domain = state->domains[i];
    rec.deps = state->dag->deps_of(i);
  }
  pump_dag(state);
}

void GriphonController::pump_dag(const std::shared_ptr<RunState>& state) {
  if (state->done_called) return;
  while (const auto next = state->sched->acquire()) {
    const std::size_t i = *next;
    const Step& step = (*state->steps)[i];

    // Batch window: sweep every other ready stateless sibling on the same
    // EMS into this dialogue — they pay the management overhead once.
    std::vector<std::size_t> members{i};
    if (std::holds_alternative<proto::PowerBalance>(step.forward)) {
      auto peers = state->sched->drain_ready(
          state->domains[i], [&](std::size_t j) {
            return (*state->steps)[j].client == step.client &&
                   std::holds_alternative<proto::PowerBalance>(
                       (*state->steps)[j].forward);
          });
      members.insert(members.end(), peers.begin(), peers.end());
    }

    proto::Message message = step.forward;
    if (members.size() > 1) {
      proto::EmsBatch batch;
      for (const std::size_t j : members)
        batch.items.push_back(
            proto::encode_frame(0, (*state->steps)[j].forward));
      message = proto::Message{std::move(batch)};
    }

    stats_.commands_issued += members.size();
    std::uint64_t span = 0;
    if (state->parent_span != 0) {
      if (telemetry::Telemetry* t = model_->telemetry()) {
        const SpanLabel label = span_label(message);
        span = t->span_start(label.name, label.actor, 0, state->parent_span);
      }
    }
    const double start_s =
        to_seconds(model_->engine().now() - state->run_start);
    for (const std::size_t j : members) {
      state->report.steps[j].start_s = start_s;
      state->report.steps[j].batched = members.size() > 1;
    }

    issue_command(
        step.client, std::move(message),
        [this, state, i, members, span](Result<proto::Response> r) {
          const Status s = response_to_status(r);
          if (span != 0)
            if (telemetry::Telemetry* t = model_->telemetry())
              t->span_end(span, s.ok(),
                          s.ok() ? std::string{} : s.error().message());
          const double end_s =
              to_seconds(model_->engine().now() - state->run_start);
          for (const std::size_t j : members) {
            state->report.steps[j].end_s = end_s;
            state->report.steps[j].ok = s.ok();
          }
          state->sched->slot_done(i);  // one window slot per dialogue
          if (s.ok()) {
            for (const std::size_t j : members) {
              state->succeeded.push_back(j);
              state->sched->release(j);
            }
          } else {
            if (state->first_error.ok()) state->first_error = s;
            if (state->best_effort) {
              // Keep going: dependents of a failed step still run, exactly
              // as sequential best-effort does.
              for (const std::size_t j : members) state->sched->release(j);
            } else {
              state->sched->abort();
            }
          }
          pump_dag(state);
        });
  }
  if (state->sched->finished()) finish_dag(state);
}

void GriphonController::finish_dag(const std::shared_ptr<RunState>& state) {
  if (state->done_called) return;
  state->done_called = true;
  Status s = state->first_error;
  if (s.ok() && state->sched->stuck() > 0)
    s = Status{ErrorCode::kInternal,
               "controller: dependency cycle in command train (" +
                   std::to_string(state->sched->stuck()) +
                   " steps unreachable)"};
  double total = 0.0;
  for (const DagStepRecord& rec : state->report.steps)
    total = std::max(total, rec.end_s);
  state->report.total_s = total;
  mark_critical_path(state->report);
  last_dag_report_ = state->report;
  std::sort(state->succeeded.begin(), state->succeeded.end());
  state->done(s, std::move(state->succeeded));
}

void GriphonController::rollback_steps(std::shared_ptr<StepList> steps,
                                       std::vector<std::size_t> succeeded,
                                       std::function<void()> done) {
  // Reverse completion order with reverse dependency edges: an undo may
  // only run once the undos of everything that depended on its forward
  // step are done (a cross-connect is removed before the port under it is
  // disabled).
  auto undo =
      std::make_shared<StepList>(build_undo_steps(*steps, succeeded));
  run_steps(std::move(undo), /*best_effort=*/true,
            [done = std::move(done)](Status, std::vector<std::size_t>) {
              done();
            });
}

}  // namespace griphon::core
