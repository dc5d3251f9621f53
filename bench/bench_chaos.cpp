// Chaos experiment — service quality under escalating fault intensity.
//
// The robustness claim behind the chaos subsystem: with bounded retry,
// per-EMS circuit breakers and restart resync, the controller keeps
// provisioning and restoring while the plant misbehaves, degrading
// gracefully as faults intensify. This bench quantifies that by sweeping
// FaultPlan::combined() through several intensities (0 = injector disarmed,
// the production fast path) and measuring, per intensity:
//
//   * setup success rate  — fraction of portal connect attempts that land;
//   * restoration time    — outage of a restorable connection after a
//                           fiber cut, while the faults keep firing.
//
// Results go to stdout as a table, to BENCH_chaos.json for bench_diff.py,
// and the fault schedule of one representative trial per intensity goes to
// chaos_fault_plan.log (uploaded by the chaos-soak CI lane).
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/fault_plan.hpp"
#include "core/observability.hpp"
#include "core/scenario.hpp"
#include "emit_json.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

using namespace griphon;

namespace {

struct Trial {
  int attempts = 0;
  int successes = 0;
  double restoration_s = -1;  // < 0: connection never came back
  bool restore_tried = false;
  std::uint64_t faults = 0;
  std::string fault_log;
};

Trial one_trial(std::uint64_t seed, const chaos::FaultPlan& plan, bool arm) {
  Trial t;
  core::TestbedScenario s(seed);
  chaos::FaultInjector injector(s.model.get(), plan, seed * 7919 + 17);
  if (arm) injector.arm();

  const MuxponderId sites[3] = {s.site_i, s.site_iii, s.site_iv};
  std::vector<ConnectionId> live;
  // Light enough that the fault-free testbed admits every attempt: at
  // intensity 0 the success rate reads 1.0, so any degradation at higher
  // intensities is attributable to injected faults, not capacity blocking.
  constexpr int kSetups = 6;
  for (int i = 0; i < kSetups; ++i) {
    ++t.attempts;
    s.portal->connect(sites[static_cast<std::size_t>(i % 3)],
                      sites[static_cast<std::size_t>((i + 1) % 3)],
                      i == 0 ? rates::k10G : rates::k1G,
                      core::ProtectionMode::kRestorable,
                      [&](Result<ConnectionId> r) {
                        if (r.ok()) {
                          ++t.successes;
                          live.push_back(r.value());
                        }
                      });
    s.engine.run_until(s.engine.now() + minutes(2));
  }
  // Let deferred setups, breaker cooldowns and EMS restarts play out.
  s.engine.run_until(s.engine.now() + minutes(10));

  if (!live.empty()) {
    t.restore_tried = true;
    const ConnectionId victim = live.front();
    const SimTime outage_before =
        s.controller->connection(victim).total_outage;
    const LinkId cut =
        s.controller->connection(victim).plan.path.links.front();
    s.model->fail_link(cut);
    s.engine.run_until(s.engine.now() + minutes(30));
    const auto& after = s.controller->connection(victim);
    if (after.state == core::ConnectionState::kActive)
      t.restoration_s = to_seconds(after.total_outage - outage_before);
    s.model->repair_link(cut);
  }

  t.faults = injector.stats().nacks_injected +
             injector.stats().slow_commands + injector.stats().ems_crashes +
             injector.stats().frames_dropped +
             injector.stats().frames_duplicated +
             injector.stats().frames_delayed + injector.stats().ot_faults +
             injector.stats().fxc_sticks;
  t.fault_log = injector.render_log();
  injector.disarm();
  injector.heal_all();
  s.engine.run();
  return t;
}

/// One fully instrumented trial at a representative intensity: telemetry
/// attached (spans + chaos counters), gauge sampler running on
/// the sim clock. Exports a Perfetto-loadable Chrome trace — injected
/// faults appear as instant events between the setup/restore span trees —
/// plus the sampler rollups, for the chaos-soak CI lane and
/// tools/validate_trace.py.
void instrumented_trial(const chaos::FaultPlan& plan) {
  core::TestbedScenario s(7100);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  chaos::FaultInjector injector(s.model.get(), plan, 7100 * 7919 + 17);
  injector.set_telemetry(&tel);
  injector.arm();
  telemetry::GaugeSampler sampler(&s.engine, &tel);
  core::install_standard_probes(sampler, *s.controller, *s.model);
  sampler.start(from_seconds(10));

  const MuxponderId sites[3] = {s.site_i, s.site_iii, s.site_iv};
  std::vector<ConnectionId> live;
  for (int i = 0; i < 6; ++i) {
    s.portal->connect(sites[static_cast<std::size_t>(i % 3)],
                      sites[static_cast<std::size_t>((i + 1) % 3)],
                      i == 0 ? rates::k10G : rates::k1G,
                      core::ProtectionMode::kRestorable,
                      [&](Result<ConnectionId> r) {
                        if (r.ok()) live.push_back(r.value());
                      });
    s.engine.run_until(s.engine.now() + minutes(2));
  }
  s.engine.run_until(s.engine.now() + minutes(10));
  if (!live.empty()) {
    const LinkId cut =
        s.controller->connection(live.front()).plan.path.links.front();
    s.model->fail_link(cut);
    s.engine.run_until(s.engine.now() + minutes(30));
    s.model->repair_link(cut);
  }
  injector.disarm();
  injector.heal_all();
  s.engine.run_until(s.engine.now() + minutes(5));
  sampler.stop();

  if (std::ofstream f("trace_chaos.json"); f)
    f << telemetry::TraceExporter().to_json(tel) << "\n";
  if (std::ofstream f("SERIES_chaos.json"); f) f << sampler.rollups_json();
  std::cout << "\ninstrumented trial (intensity 1.0): " << live.size()
            << "/6 setups landed, " << s.engine.trace().records().size()
            << " ring records; wrote trace_chaos.json and "
               "SERIES_chaos.json\n";
}

}  // namespace

int main() {
  bench::banner(
      "Chaos: setup success and restoration under fault injection");
  const chaos::FaultPlan base = chaos::FaultPlan::combined();
  constexpr double kIntensities[] = {0.0, 0.5, 1.0, 2.0};
  constexpr int kTrials = 8;

  bench::JsonEmitter json("chaos");
  bench::Table table({"intensity", "setup success", "restored",
                      "mean restore (s)", "p95 restore (s)", "faults"});
  std::ofstream plan_log("chaos_fault_plan.log");

  for (const double intensity : kIntensities) {
    const chaos::FaultPlan plan = base.scaled(intensity);
    int attempts = 0;
    int successes = 0;
    int restore_tried = 0;
    std::vector<double> restorations;
    std::uint64_t faults = 0;
    for (int i = 0; i < kTrials; ++i) {
      const Trial t =
          one_trial(7000 + static_cast<std::uint64_t>(i), plan,
                    intensity > 0);
      attempts += t.attempts;
      successes += t.successes;
      if (t.restore_tried) ++restore_tried;
      if (t.restoration_s >= 0) restorations.push_back(t.restoration_s);
      faults += t.faults;
      if (i == 0 && plan_log) {
        plan_log << "=== intensity " << bench::fmt(intensity, 1)
                 << " ===\n"
                 << plan.render() << "--- fault log (seed 7000) ---\n"
                 << t.fault_log << '\n';
      }
    }
    const double setup_rate =
        attempts > 0 ? static_cast<double>(successes) / attempts : 0.0;
    const double restore_rate =
        restore_tried > 0
            ? static_cast<double>(restorations.size()) / restore_tried
            : 0.0;
    const auto rest = bench::summarize(restorations);

    const std::string tag = "_i" + bench::fmt(intensity, 1);
    json.row("setup_success_rate" + tag, setup_rate, "fraction");
    json.row("restoration_success_rate" + tag, restore_rate, "fraction");
    json.row("restoration_mean" + tag, rest.mean, "s");
    json.row("restoration_p95" + tag, rest.p95, "s");

    table.row({bench::fmt(intensity, 1),
               std::to_string(successes) + "/" + std::to_string(attempts),
               std::to_string(restorations.size()) + "/" +
                   std::to_string(restore_tried),
               bench::fmt(rest.mean, 1), bench::fmt(rest.p95, 1),
               std::to_string(faults)});
  }
  table.print();

  std::cout << "\nshape check: intensity 0 (injector disarmed) is the "
               "production fast path — setup always lands and restoration "
               "is chaos-free; success degrades gracefully (not to zero) "
               "as intensity climbs, because retries, breakers and resync "
               "absorb the faults\n";

  instrumented_trial(base.scaled(1.0));

  json.write("BENCH_chaos.json");
  std::cout << "wrote BENCH_chaos.json and chaos_fault_plan.log\n";
  return 0;
}
