// Telemetry facade: one MetricsRegistry + one SpanTracer per deployment,
// stamped with the deployment's simulated clock. The "what happened and
// when" stream is not here: it is the engine's always-on event ring
// (sim::Trace), reachable through trace() for export.
//
// Attach with NetworkModel::attach_telemetry(&t) before driving traffic;
// every instrumented component (GriphonController, EmsServer, RwaEngine,
// FailureManager, MeshRestorer, the plant itself) reaches it through the
// model and treats a null pointer as "telemetry off" — the no-sink fast
// path is a single pointer test, no allocation, no lookup.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace griphon::telemetry {

class Telemetry {
 public:
  explicit Telemetry(sim::Engine* engine) : engine_(engine) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] SpanTracer& spans() noexcept { return spans_; }
  [[nodiscard]] const SpanTracer& spans() const noexcept { return spans_; }
  [[nodiscard]] const sim::Trace& trace() const noexcept {
    return engine_->trace();
  }
  [[nodiscard]] SimTime now() const noexcept { return engine_->now(); }

  // Convenience wrappers stamping the simulated clock.
  SpanId span_start(std::string name, std::string actor,
                    CorrelationTag tag = 0, SpanId parent = 0) {
    return spans_.start(std::move(name), std::move(actor), tag, parent,
                        engine_->now());
  }
  void span_end(SpanId id, bool ok = true, std::string detail = {}) {
    spans_.end(id, engine_->now(), ok, std::move(detail));
  }
  SpanId span_record(std::string name, std::string actor, CorrelationTag tag,
                     SpanId parent, SimTime start, SimTime end,
                     bool ok = true, std::string detail = {}) {
    return spans_.record(std::move(name), std::move(actor), tag, parent,
                         start, end, ok, std::move(detail));
  }
  // --- failure-detect bookkeeping -----------------------------------------
  // The plant knows when a fiber died; the failure manager only sees the
  // first alarm. note_link_failed() parks the cut instant so the manager
  // can retroactively record the `detect` span (cut → first alarm).
  void note_link_failed(std::uint64_t link) {
    pending_detect_[link] = engine_->now();
  }
  /// Record the `detect` span for `link` if a cut instant was noted;
  /// returns the span id (0 if no pending note).
  SpanId close_detect(std::uint64_t link) {
    const auto it = pending_detect_.find(link);
    if (it == pending_detect_.end()) return 0;
    const SimTime cut_at = it->second;
    pending_detect_.erase(it);
    return spans_.record("detect", "failure-manager", 0, 0, cut_at,
                         engine_->now(), true,
                         "link " + std::to_string(link));
  }

 private:
  sim::Engine* engine_;
  MetricsRegistry metrics_;
  SpanTracer spans_;
  std::unordered_map<std::uint64_t, SimTime> pending_detect_;
};

}  // namespace griphon::telemetry
