// End-to-end benchmark driver: replays one generated workload against the
// full GRIPhoN stack and reports what happened as one JSON object.
//
//   perfbench_driver describe
//       Print the plant the workloads run on (backbone50: random_mesh(50,
//       3.2) with mesh seed 4242, 12 DC sites picked with seed 977) so the
//       input generator can name sites and links.
//   perfbench_driver run <inputs-file> plain|traced
//       Build the deployment the inputs name, replay every input at its
//       simulated instant, drain, run the correctness checks, and print one
//       JSON line. `traced` additionally observes each layer from outside
//       (timed calls into public APIs, public getters, the neutral EMS fault
//       hook and a telemetry sink) and reports per-layer numbers.
//
// The driver only talks to public APIs: CustomerPortal, GriphonController,
// NetworkModel::fail_link/repair_link, TransferScheduler, ReoptService and
// sim::Engine. Everything it is told to do comes from the inputs file.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bod/admission.hpp"
#include "bod/observability.hpp"
#include "bod/reservation_calendar.hpp"
#include "bod/transfer_scheduler.hpp"
#include "common/rng.hpp"
#include "core/network_model.hpp"
#include "core/observability.hpp"
#include "core/portal.hpp"
#include "reopt/fragmentation.hpp"
#include "reopt/service.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"
#include "topology/builders.hpp"

using namespace griphon;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- plant -------------------------------------------------------------

topology::Graph backbone50() {
  Rng mesh_rng(4242);
  return topology::random_mesh(50, 3.2, mesh_rng);
}

constexpr std::size_t kDcSites = 12;

/// The data-center PoPs, picked exactly as bench_reopt/bench_storm do.
std::vector<NodeId> dc_pops(const topology::Graph& g) {
  Rng rng(977);
  std::vector<NodeId> sites;
  for (const auto& node : g.nodes()) sites.push_back(node.id);
  for (std::size_t i = 0; i < kDcSites && i + 1 < sites.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(sites.size()) - 1));
    std::swap(sites[i], sites[j]);
  }
  sites.resize(std::min(kDcSites, sites.size()));
  return sites;
}

// --- inputs ------------------------------------------------------------

enum class Op { kConnect, kCut, kSplice, kTransfer };

struct Input {
  double t = 0;  ///< simulated seconds
  Op op = Op::kConnect;
  std::size_t src = 0;  ///< DC index
  std::size_t dst = 0;
  double gbps = 0;
  core::ServiceTier tier = core::ServiceTier::kSilver;
  double hold = 0;  ///< seconds after activation; 0 = held to the end
  core::ProtectionMode protection = core::ProtectionMode::kRestorable;
  std::size_t conduit = 0;
  std::int64_t bytes = 0;
  double deadline = 0;  ///< absolute simulated seconds
};

struct Inputs {
  std::string workload;
  std::uint64_t engine_seed = 1;
  double horizon = 0;
  std::size_t ntes_per_dc = 1;
  std::vector<std::vector<LinkId>> conduits;
  std::vector<Input> events;  ///< time-ordered
};

[[noreturn]] void die(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n";
  std::exit(2);
}

core::ServiceTier parse_tier(const std::string& s) {
  if (s == "gold") return core::ServiceTier::kGold;
  if (s == "silver") return core::ServiceTier::kSilver;
  if (s == "bronze") return core::ServiceTier::kBronze;
  die("unknown tier " + s);
}

Inputs read_inputs(const std::string& path) {
  std::ifstream file(path);
  if (!file) die("cannot open " + path);
  Inputs in;
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream ss(line);
    std::string key;
    if (!(ss >> key) || key[0] == '#') continue;
    Input e;
    if (key == "workload") {
      ss >> in.workload;
    } else if (key == "engine_seed") {
      ss >> in.engine_seed;
    } else if (key == "horizon_s") {
      ss >> in.horizon;
    } else if (key == "ntes_per_dc") {
      ss >> in.ntes_per_dc;
    } else if (key == "conduit") {
      std::vector<LinkId> links;
      std::uint64_t l = 0;
      while (ss >> l) links.push_back(LinkId{l});
      in.conduits.push_back(std::move(links));
    } else if (key == "connect") {
      std::string tier;
      std::string protection;
      e.op = Op::kConnect;
      ss >> e.t >> e.src >> e.dst >> e.gbps >> tier >> e.hold >> protection;
      e.tier = parse_tier(tier);
      if (protection != "restorable" && protection != "unprotected")
        die("unknown protection " + protection);
      e.protection = protection == "restorable"
                         ? core::ProtectionMode::kRestorable
                         : core::ProtectionMode::kUnprotected;
      in.events.push_back(e);
    } else if (key == "cut" || key == "splice") {
      e.op = key == "cut" ? Op::kCut : Op::kSplice;
      ss >> e.t >> e.conduit;
      in.events.push_back(e);
    } else if (key == "transfer") {
      e.op = Op::kTransfer;
      ss >> e.t >> e.src >> e.dst >> e.bytes >> e.deadline;
      in.events.push_back(e);
    } else {
      die("unknown input line: " + line);
    }
    if (!ss && !ss.eof()) die("malformed input line: " + line);
  }
  if (in.workload != "churn" && in.workload != "storm" &&
      in.workload != "bod_reopt")
    die("unknown workload '" + in.workload + "'");
  if (in.ntes_per_dc == 0) die("ntes_per_dc must be positive");
  for (const Input& e : in.events) {
    if ((e.op == Op::kCut || e.op == Op::kSplice) &&
        e.conduit >= in.conduits.size())
      die("cut names an unknown conduit");
    if (e.src >= kDcSites || e.dst >= kDcSites || (e.op != Op::kCut &&
                                       e.op != Op::kSplice && e.src == e.dst))
      die("input names a bad site pair");
  }
  std::stable_sort(in.events.begin(), in.events.end(),
                   [](const Input& a, const Input& b) { return a.t < b.t; });
  return in;
}

// --- statistics --------------------------------------------------------

/// A percentile is printed only when at least ten samples lie beyond it.
struct Pct {
  double value = 0;
  std::size_t samples = 0;
  bool ok = false;
};

Pct percentile(std::vector<double> v, double q) {
  Pct out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = v[rank - 1];
  out.ok = n - rank >= 10;
  return out;
}

/// Merged p-quantile of several fixed-bucket histograms with identical
/// bounds, interpolated inside the target bucket like Histogram::quantile.
Pct histogram_percentile(const std::vector<const telemetry::Histogram*>& hs,
                         double q) {
  Pct out;
  std::vector<std::uint64_t> merged;
  const std::vector<double>* bounds = nullptr;
  for (const telemetry::Histogram* h : hs) {
    if (h == nullptr) continue;
    const auto b = h->buckets();
    if (merged.empty()) merged.assign(b.size(), 0);
    if (b.size() != merged.size()) continue;
    for (std::size_t i = 0; i < b.size(); ++i) merged[i] += b[i];
    bounds = &h->bounds();
  }
  std::uint64_t total = 0;
  for (const auto c : merged) total += c;
  out.samples = total;
  if (total == 0 || bounds == nullptr) return out;
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (static_cast<double>(seen + merged[i]) >= target && merged[i] > 0) {
      if (i >= bounds->size()) {
        out.value = bounds->back();
      } else {
        const double lo = i == 0 ? 0.0 : (*bounds)[i - 1];
        const double frac = (target - static_cast<double>(seen)) /
                            static_cast<double>(merged[i]);
        out.value = lo + frac * ((*bounds)[i] - lo);
      }
      out.ok = static_cast<double>(total) - target >= 10;
      return out;
    }
    seen += merged[i];
  }
  return out;
}

double micros_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// FNV-1a, to print the (long) device-state digest compactly.
std::string fingerprint(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- JSON --------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    std::ostringstream os;
    os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
    return raw(key, os.str());
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& pct(const std::string& key, const Pct& p) {
    return raw(key, JsonObject{}
                        .num("value", p.value)
                        .num("samples", static_cast<double>(p.samples))
                        .boolean("ok", p.ok)
                        .render());
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + json);
    return *this;
  }
  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- observation (traced runs only) ------------------------------------

/// Neutral EMS fault hook: never injects a fault and never scales latency,
/// so attaching it leaves the simulation unchanged. Each call is a point
/// where a command leaves an EMS dialogue queue; the observer samples
/// queue depths there and keeps a copy of the command for the codec replay.
class Observer final : public ems::EmsFaultHook {
 public:
  Observer(core::NetworkModel* model, core::GriphonController* controller)
      : model_(model), controller_(controller) {
    for (ems::EmsServer* s : model->ems_servers()) servers_[s->name()] = s;
  }

  Status on_command(const std::string& ems,
                    const proto::Message& message) override {
    if (mix_.size() < kMixCap) mix_.push_back(message);
    const auto it = servers_.find(ems);
    if (it != servers_.end())
      queue_depth_max_ = std::max(queue_depth_max_, it->second->queue_depth());
    sample();
    return Status::success();
  }
  double latency_scale(const std::string& /*ems*/) override { return 1.0; }

  /// Sample the controller/engine gauges (also called between inputs).
  void sample() {
    // pending() wraps below zero while stale cancellations outnumber the
    // queue (see sim.stale_cancels); such a sample says nothing.
    const std::size_t pending = model_->engine().pending();
    if (pending < (std::size_t{1} << 62))
      pending_max_ = std::max(pending_max_, pending);
    restoration_queue_max_ = std::max(
        restoration_queue_max_, controller_->restoration_queue_depth());
    backlog_max_ =
        std::max(backlog_max_, controller_->restoration_backlog_depth());
    reservations_max_ =
        std::max(reservations_max_, controller_->inventory().reservations());
  }

  static constexpr std::size_t kMixCap = 20000;
  std::vector<proto::Message> mix_;
  std::size_t queue_depth_max_ = 0;
  std::size_t pending_max_ = 0;
  std::size_t restoration_queue_max_ = 0;
  std::size_t backlog_max_ = 0;
  std::size_t reservations_max_ = 0;

 private:
  core::NetworkModel* model_;
  core::GriphonController* controller_;
  std::map<std::string, ems::EmsServer*> servers_;
};

// --- the deployment ----------------------------------------------------

core::NetworkModel::Config plant_config(const std::string& workload) {
  core::NetworkModel::Config cfg;
  cfg.fxc_ports_per_node = 128;
  if (workload == "churn") {
    cfg.channels = 40;
    cfg.ots_per_node = 24;
    cfg.regens_per_node = 8;
    cfg.with_otn = true;  // 1G requests ride ODU circuits
  } else if (workload == "storm") {
    cfg.channels = 80;
    cfg.ots_per_node = 96;
    cfg.regens_per_node = 32;
    cfg.with_otn = false;
  } else {  // bod_reopt: tight spectrum, so fragmentation hurts
    cfg.channels = 24;
    cfg.ots_per_node = 64;
    cfg.regens_per_node = 32;
    cfg.with_otn = false;
  }
  return cfg;
}

core::GriphonController::Params controller_params(const std::string& w) {
  core::GriphonController::Params p;
  if (w == "storm") {
    // The concurrent tiered restoration pipeline, as bench_storm runs it.
    p.restoration.max_concurrent = 8;
    p.restoration.per_domain_inflight = 8;
  }
  return p;
}

constexpr CustomerId kCsp{1};

struct Deployment {
  const Inputs& in;
  const topology::Graph graph;
  const std::vector<NodeId> pops;

  // The telemetry sink outlives the model that points at it.
  std::unique_ptr<telemetry::Telemetry> tel;
  sim::Engine engine;
  core::NetworkModel model;
  core::GriphonController controller;
  core::CustomerPortal portal;
  std::vector<MuxponderId> ntes;  ///< dc * ntes_per_dc + k

  // bod_reopt only.
  std::unique_ptr<bod::ReservationCalendar> calendar;
  std::unique_ptr<bod::AdmissionController> admission;
  std::unique_ptr<bod::TransferScheduler> scheduler;
  std::unique_ptr<reopt::ReoptService> reoptsvc;
  std::unique_ptr<telemetry::GaugeSampler> sampler;
  std::unique_ptr<telemetry::SloMonitor> slo;

  std::unique_ptr<Observer> observer;

  static topology::Graph rigged(const Inputs& in) {
    topology::Graph g = backbone50();
    for (std::size_t k = 0; k < in.conduits.size(); ++k)
      for (const LinkId l : in.conduits[k])
        g.set_srlg(l, static_cast<int>(k) + 1);
    return g;
  }

  Deployment(const Inputs& inputs, bool traced)
      : in(inputs),
        graph(rigged(inputs)),
        pops(dc_pops(graph)),
        engine(inputs.engine_seed),
        model(&engine, graph, plant_config(inputs.workload)),
        controller(&model, controller_params(inputs.workload)),
        portal(&controller, kCsp, DataRate::gbps(1000000)) {
    const bool bod_reopt = in.workload == "bod_reopt";
    // churn keeps the default (unbounded) trace; the other two bound it
    // the way the storm and reopt benches do.
    if (in.workload != "churn") model.trace().set_capacity(4096);
    for (std::size_t dc = 0; dc < pops.size(); ++dc)
      for (std::size_t k = 0; k < in.ntes_per_dc; ++k)
        ntes.push_back(model
                           .add_customer_site(kCsp,
                                              "DC-" + std::to_string(dc) +
                                                  "-" + std::to_string(k),
                                              pops[dc])
                           .nte);
    // bod_reopt runs with telemetry on; the traced run of the other two
    // attaches a sink too, to read RWA cache and EMS queue-wait counters.
    if (bod_reopt || traced) {
      tel = std::make_unique<telemetry::Telemetry>(&engine);
      model.attach_telemetry(tel.get());
    }
    if (bod_reopt) wire_bod_reopt();
    if (traced) {
      observer = std::make_unique<Observer>(&model, &controller);
      for (ems::EmsServer* s : model.ems_servers())
        s->set_fault_hook(observer.get());
    }
  }

  ~Deployment() {
    for (ems::EmsServer* s : model.ems_servers()) s->set_fault_hook(nullptr);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// The BoD service layer, re-optimization and observability, wired the
  /// way griphon_shell wires them.
  void wire_bod_reopt() {
    bod::ReservationCalendar::Params cal;
    cal.default_link_capacity = rates::k40G;
    calendar = std::make_unique<bod::ReservationCalendar>(cal);
    admission = std::make_unique<bod::AdmissionController>(&engine);
    bod::AdmissionController::CustomerPolicy policy;
    policy.bandwidth_quota = DataRate::gbps(100000);
    policy.requests_per_second = 1000;
    policy.burst = 1000;
    admission->set_policy(kCsp, policy);
    bod::TransferScheduler::Params sp;
    sp.rate_ladder = {rates::k40G, DataRate::gbps(20), rates::k10G};
    scheduler = std::make_unique<bod::TransferScheduler>(
        &controller, calendar.get(), admission.get(), sp);
    scheduler->register_portal(&portal);

    reopt::ReoptService::Params rp;
    rp.period = hours(1);
    rp.trip_threshold = 0.02;
    rp.min_moves = 1;
    rp.max_moves_per_campaign = 32;
    rp.pairs = dc_pairs();
    reoptsvc = std::make_unique<reopt::ReoptService>(&controller, rp);
    reoptsvc->set_exempt_provider(
        [this] { return scheduler->migration_exempt_connections(); });

    sampler = std::make_unique<telemetry::GaugeSampler>(&engine, tel.get());
    core::install_standard_probes(*sampler, controller, model);
    std::vector<LinkId> links;
    for (const auto& l : model.graph().links()) links.push_back(l.id);
    bod::install_calendar_probes(*sampler, *calendar, engine,
                                 std::move(links));
    reoptsvc->install_probes(*sampler);
    slo = std::make_unique<telemetry::SloMonitor>(&engine, tel.get());
    const auto& m = tel->metrics();
    slo->add_objective(telemetry::setup_latency_objective(m, 90.0));
    slo->add_objective(telemetry::restoration_time_objective(m, 120.0));
    slo->add_objective(telemetry::blocking_rate_objective(m, 0.05));
    slo->add_objective(telemetry::bod_deadline_miss_objective(m, 0.1));
    slo->add_objective(reopt::fragmentation_objective(*reoptsvc, 0.35));
    slo->add_objective(telemetry::restoration_backlog_objective(m, 4.0));
  }

  void start_services() {
    if (in.workload != "bod_reopt") return;
    sampler->start(from_seconds(5));
    slo->start(from_seconds(10));
    reoptsvc->start();
  }
  void stop_services() {
    if (in.workload != "bod_reopt") return;
    reoptsvc->stop();
    sampler->stop();
    slo->stop();
  }

  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> dc_pairs() const {
    std::vector<std::pair<NodeId, NodeId>> out;
    for (std::size_t a = 0; a < pops.size(); ++a)
      for (std::size_t b = a + 1; b < pops.size(); ++b)
        out.emplace_back(pops[a], pops[b]);
    return out;
  }
};

// --- one repetition ----------------------------------------------------

struct Outage {
  double seconds = 0;
  bool gold = false;
  bool by_pipeline = false;  ///< up again before the splice
};

class Replay {
 public:
  static constexpr int kSetups = 5;
  static constexpr std::size_t kSlices = 128;

  Replay(const Inputs& in, bool traced) : in_(in), traced_(traced) {}

  std::string run() {
    // Set up several times and keep the last deployment: the median is
    // steadier than one cold set-up.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      d_.reset();
      reset_tallies();
      const auto t_setup = Clock::now();
      d_ = std::make_unique<Deployment>(in_, traced_);
      nte_load_.assign(d_->ntes.size(), 0);
      if (in_.workload == "storm") establish();
      d_->start_services();
      setups.push_back(seconds_since(t_setup));
    }
    setup_s_ = percentile(setups, 0.5).value;

    const std::uint64_t events_before = d_->engine.fired();
    run_s_ = 0;  // count engine time of the measured phase only
    const auto t_measure = Clock::now();
    measured_phase();
    measured_s_ = seconds_since(t_measure);
    events_ = d_->engine.fired() - events_before;

    check();
    return report();
  }

 private:
  // --- setup -----------------------------------------------------------

  /// Forget what a discarded set-up's establishment connects counted.
  void reset_tallies() {
    offered_ = accepted_ = blocked_ = connect_errors_ = 0;
    received_.clear();
    wave_setup_s_.clear();
    connect_us_.clear();
    refusals_.clear();
    errors_.clear();
  }

  /// storm: bring up the long-lived connection set before the measured
  /// phase; these connects are set-up work, not measured inputs.
  void establish() {
    for (const Input& e : in_.events)
      if (e.op == Op::kConnect) {
        connect(e);
        timed_run();
      }
  }

  // --- measured phase ----------------------------------------------------

  void measured_phase() {
    const bool storm = in_.workload == "storm";
    std::size_t next = 0;
    const auto& ev = in_.events;
    std::size_t last_input = ev.size();
    std::size_t total_inputs = 0;
    for (std::size_t i = 0; i < ev.size(); ++i)
      if (!(storm && ev[i].op == Op::kConnect)) {
        last_input = i;
        ++total_inputs;
      }
    // The measured phase is timed in equal slices of the inputs; the last
    // slice also holds the drain after the last input.
    const std::size_t slices =
        std::max<std::size_t>(1, std::min(kSlices, total_inputs));
    auto slice_start = Clock::now();
    auto close_slice = [&] {
      slice_s_.push_back(seconds_since(slice_start));
      slice_start = Clock::now();
    };
    while (true) {
      while (next < ev.size() && storm && ev[next].op == Op::kConnect) ++next;
      const bool have_input = next < ev.size();
      const bool have_release = !releases_.empty();
      if (!have_input && !have_release) break;
      const double t_input = have_input ? ev[next].t : 1e300;
      const double t_release =
          have_release ? to_seconds(releases_.top().due) : 1e300;
      if (t_release < t_input) {
        const Release r = releases_.top();
        releases_.pop();
        run_until(r.due);
        disconnect(r.id, r.src, r.dst);
      } else {
        const Input& e = ev[next];
        run_until(from_seconds(e.t));
        act(e);
        if (next == last_input) at_last_input();
        ++next;
        if (slice_s_.size() + 1 < slices &&
            inputs_ * slices >= (slice_s_.size() + 1) * total_inputs)
          close_slice();
      }
      if (traced_) observe_between_inputs();
    }
    if (d_->engine.now() < from_seconds(in_.horizon))
      run_until(from_seconds(in_.horizon));
    d_->stop_services();
    timed_run();
    if (storm) close_cycle();
    digest_final_ = fingerprint(d_->controller.device_state_digest());
    close_slice();
  }

  void act(const Input& e) {
    ++inputs_;
    switch (e.op) {
      case Op::kConnect:
        connect(e);
        break;
      case Op::kCut:
        cut(e.conduit);
        break;
      case Op::kSplice:
        splice(e.conduit);
        break;
      case Op::kTransfer:
        submit(e);
        break;
    }
  }

  void at_last_input() {
    digest_loaded_ = fingerprint(d_->controller.device_state_digest());
    if (in_.workload != "bod_reopt") return;
    // Score the plane while it is still loaded, with a benchmark-owned
    // analyzer (the service's own state is left alone).
    reopt::FragmentationAnalyzer analyzer(&d_->model);
    const auto pairs = d_->dc_pairs();
    const int reps = traced_ ? 5 : 1;
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      const auto snap = d_->controller.inventory().snapshot();
      const auto report = analyzer.analyze(*snap, d_->controller.rwa(), pairs);
      ms.push_back(seconds_since(t0) * 1e3);
      frag_mean_ = report.mean_score;
    }
    analyze_ms_ = percentile(ms, 0.5).value;
  }

  void run_until(SimTime t) {
    const auto t0 = Clock::now();
    d_->engine.run_until(t);
    run_s_ += seconds_since(t0);
  }
  void timed_run() {
    const auto t0 = Clock::now();
    d_->engine.run();
    run_s_ += seconds_since(t0);
  }

  std::size_t pick_nte(std::size_t dc, bool transfer) {
    const std::size_t per = in_.ntes_per_dc;
    // bod_reopt keeps each DC's first NTE for calendar-scheduled transfers
    // and sends direct connects through the others.
    if (in_.workload == "bod_reopt") {
      if (transfer || per == 1) return dc * per;
      std::size_t best = dc * per + 1;
      for (std::size_t k = 2; k < per; ++k)
        if (nte_load_[dc * per + k] < nte_load_[best]) best = dc * per + k;
      return best;
    }
    std::size_t best = dc * per;
    for (std::size_t k = 1; k < per; ++k)
      if (nte_load_[dc * per + k] < nte_load_[best]) best = dc * per + k;
    return best;
  }

  void connect(const Input& e) {
    const std::size_t s = pick_nte(e.src, false);
    const std::size_t t = pick_nte(e.dst, false);
    ++nte_load_[s];
    ++nte_load_[t];
    ++offered_;
    const bool wave = e.gbps >= 10;
    const double hold = e.hold;
    const auto t0 = Clock::now();
    d_->portal.connect(
        d_->ntes[s], d_->ntes[t], DataRate::gbps(e.gbps), e.protection,
        [this, s, t, hold, wave](Result<ConnectionId> r) {
          if (!r.ok()) {
            --nte_load_[s];
            --nte_load_[t];
            const auto code = r.error().code();
            if (code == ErrorCode::kResourceExhausted ||
                code == ErrorCode::kUnreachable ||
                code == ErrorCode::kPermissionDenied) {
              ++blocked_;
              ++refusals_["connect: " + r.error().message()];
            } else {
              ++connect_errors_;
              note_error("connect: " + r.error().message());
            }
            return;
          }
          ++accepted_;
          const ConnectionId id = r.value();
          received_.push_back(id);
          if (wave)
            wave_setup_s_.push_back(
                to_seconds(d_->controller.connection(id).setup_duration));
          if (hold > 0)
            releases_.push({d_->engine.now() + from_seconds(hold), seq_++,
                            id, s, t});
        },
        e.tier);
    if (traced_) connect_us_.push_back(micros_since(t0));
  }

  void disconnect(ConnectionId id, std::size_t s, std::size_t t) {
    const auto t0 = Clock::now();
    d_->portal.disconnect(id, [this, id, s, t](Status st) {
      if (st.ok()) {
        --nte_load_[s];
        --nte_load_[t];
        ++released_;
      } else if (st.error().code() == ErrorCode::kBusy) {
        // Mid-roll or mid-restoration: the customer asks again later.
        ++release_retries_;
        releases_.push({d_->engine.now() + seconds(30), seq_++, id, s, t});
      } else {
        ++release_errors_;
        note_error("disconnect: " + st.error().message());
      }
    });
    if (traced_) release_us_.push_back(micros_since(t0));
  }

  void submit(const Input& e) {
    bod::TransferScheduler::TransferRequest req;
    req.customer = kCsp;
    req.src_site = d_->ntes[pick_nte(e.src, true)];
    req.dst_site = d_->ntes[pick_nte(e.dst, true)];
    req.bytes = e.bytes;
    req.deadline = from_seconds(e.deadline);
    req.priority = bod::Priority::kBestEffortBulk;
    ++transfers_offered_;
    const auto t0 = Clock::now();
    const auto r = d_->scheduler->submit(req);
    if (traced_) submit_us_.push_back(micros_since(t0));
    if (r.ok()) {
      transfers_.push_back(r.value());
      return;
    }
    const auto code = r.error().code();
    if (code == ErrorCode::kResourceExhausted ||
        code == ErrorCode::kUnreachable) {
      ++transfers_rejected_;
      ++refusals_["submit: " + r.error().message().substr(0, 40)];
    } else {
      ++submit_errors_;
      note_error("submit: " + r.error().message());
    }
  }

  // storm: cut a whole conduit; the outage of every connection riding it
  // is settled at the next cut (or at the end).
  void cut(std::size_t k) {
    close_cycle();
    cycle_before_.clear();
    for (const ConnectionId id : received_) {
      const core::Connection& c = d_->controller.connection(id);
      const bool hit = std::any_of(
          in_.conduits[k].begin(), in_.conduits[k].end(),
          [&](LinkId l) { return c.plan.path.uses_link(l); });
      if (hit) cycle_before_[id] = c.total_outage;
    }
    for (const LinkId l : in_.conduits[k]) d_->model.fail_link(l);
    ++cuts_;
  }

  void splice(std::size_t k) {
    cycle_by_pipeline_.clear();
    for (const auto& [id, before] : cycle_before_)
      cycle_by_pipeline_[id] = d_->controller.connection(id).is_up();
    for (const LinkId l : in_.conduits[k]) d_->model.repair_link(l);
  }

  void close_cycle() {
    for (const auto& [id, before] : cycle_before_) {
      const core::Connection& c = d_->controller.connection(id);
      if (!c.is_up()) {
        ++stranded_;
        note_error("stranded: connection " + std::to_string(id.value()) +
                   " " + core::to_string(c.state));
        continue;
      }
      const auto by = cycle_by_pipeline_.find(id);
      outages_.push_back(
          {to_seconds(c.total_outage - before),
           c.tier == core::ServiceTier::kGold,
           by != cycle_by_pipeline_.end() && by->second});
    }
    cycle_before_.clear();
  }

  void observe_between_inputs() {
    d_->observer->sample();
    const auto t0 = Clock::now();
    static_cast<void>(d_->controller.inventory().snapshot());
    snapshot_us_.push_back(micros_since(t0));
  }

  void note_error(const std::string& what) {
    if (errors_.size() < 5) errors_.push_back(what);
  }

  // --- correctness -------------------------------------------------------

  void check() {
    // Sweep until the plant audits clean (bounded), as the benches do.
    bool clean = false;
    for (int pass = 0; pass < 6 && !clean; ++pass) {
      bool done = false;
      std::size_t leaks = 0;
      std::size_t drift = 0;
      d_->controller.resync(
          [&](Result<core::GriphonController::ResyncReport> r) {
            if (!r.ok()) return;
            done = true;
            leaks = r.value().total_leaks();
            drift = r.value().drifted_connections;
          });
      d_->engine.run();
      clean = done && leaks == 0 && drift == 0;
      ++resync_passes_;
    }
    checks_["resync_clean"] = clean;
    checks_["requests_balance"] =
        offered_ == accepted_ + blocked_ + connect_errors_;
    std::size_t bad_state = 0;
    for (const ConnectionId id : received_) {
      const core::Connection* c = d_->controller.find_connection(id);
      if (c == nullptr) continue;  // released and forgotten
      ++records_held_;
      const bool terminal = c->state == core::ConnectionState::kReleased ||
                            c->state == core::ConnectionState::kSetupFailed;
      if (!terminal && !c->is_up()) ++bad_state;
    }
    checks_["connections_terminal_or_up"] = bad_state == 0;
    if (in_.workload == "storm") {
      std::size_t down = 0;
      for (const ConnectionId id : received_)
        if (!d_->controller.connection(id).is_up()) ++down;
      checks_["storm_all_up_at_end"] = down == 0;
      checks_["storm_every_cycle_recovered"] = stranded_ == 0;
      checks_["storm_backlog_empty"] =
          d_->controller.restoration_backlog_depth() == 0;
      std::vector<std::pair<double, bool>> gold;
      for (const Outage& o : outages_)
        if (o.gold) gold.emplace_back(o.seconds, o.by_pipeline);
      std::sort(gold.begin(), gold.end());
      bool p95_by_pipeline = false;
      if (!gold.empty()) {
        const auto rank = std::clamp<std::size_t>(
            static_cast<std::size_t>(
                std::ceil(0.95 * static_cast<double>(gold.size()))),
            1, gold.size());
        p95_by_pipeline = gold[rank - 1].second;
      }
      checks_["gold_p95_restored_by_pipeline"] = p95_by_pipeline;
      checks_["gold_samples_ge_200"] = gold.size() >= 200;
    }
    if (in_.workload == "bod_reopt") {
      const auto& st = d_->scheduler->stats();
      std::size_t open = 0;
      for (const TransferId id : transfers_) {
        const auto s = d_->scheduler->inspect(kCsp, id);
        if (!s.ok() ||
            s.value().state ==
                bod::TransferScheduler::TransferState::kScheduled ||
            s.value().state == bod::TransferScheduler::TransferState::kActive)
          ++open;
      }
      checks_["transfers_terminal"] = open == 0;
      checks_["transfers_balance"] =
          st.submitted == transfers_offered_ &&
          st.accepted == transfers_.size() &&
          transfers_offered_ ==
              transfers_.size() + transfers_rejected_ + submit_errors_;
      transfers_failed_ = st.failed;
    }
  }

  [[nodiscard]] std::size_t errored() const {
    return connect_errors_ + release_errors_ + submit_errors_;
  }

  // --- report ------------------------------------------------------------

  std::string report() {
    const auto& cs = d_->controller.stats();
    JsonObject sim_time;
    sim_time.pct("wave_setup_s_p50", percentile(wave_setup_s_, 0.50))
        .pct("wave_setup_s_p99", percentile(wave_setup_s_, 0.99));
    const std::size_t offered_all = offered_ + transfers_offered_;
    const std::size_t blocked_all = blocked_ + transfers_rejected_;
    sim_time.raw("blocked_pct",
                 JsonObject{}
                     .num("value", offered_all == 0
                                       ? 0.0
                                       : 100.0 * static_cast<double>(
                                                     blocked_all) /
                                             static_cast<double>(offered_all))
                     .num("samples", static_cast<double>(offered_all))
                     .boolean("ok", offered_all > 0)
                     .render());
    if (in_.workload == "storm") {
      std::vector<double> all;
      std::vector<double> gold;
      for (const Outage& o : outages_) {
        all.push_back(o.seconds);
        if (o.gold) gold.push_back(o.seconds);
      }
      sim_time.pct("outage_s_p50", percentile(all, 0.50))
          .pct("outage_s_p95", percentile(all, 0.95))
          .pct("gold_outage_s_p95", percentile(gold, 0.95));
    }
    if (in_.workload == "bod_reopt") {
      const auto& st = d_->scheduler->stats();
      sim_time.raw(
          "deadline_met_pct",
          JsonObject{}
              .num("value", st.accepted == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(st.deadline_met) /
                                      static_cast<double>(st.accepted))
              .num("samples", static_cast<double>(st.accepted))
              .boolean("ok", st.accepted > 0)
              .render());
      sim_time.num("frag_mean_at_last_input", frag_mean_);
    }

    JsonObject checks;
    bool all_ok = true;
    for (const auto& [name, ok] : checks_) {
      checks.boolean(name, ok);
      all_ok = all_ok && ok;
    }
    JsonObject refusals;
    for (const auto& [why, n] : refusals_)
      refusals.num(sanitize(why), static_cast<double>(n));
    std::string errors = "[";
    for (std::size_t i = 0; i < errors_.size(); ++i)
      errors += (i ? ",\"" : "\"") + sanitize(errors_[i]) + "\"";
    errors += "]";
    std::ostringstream slices;
    slices << std::setprecision(17) << "[";
    for (std::size_t i = 0; i < slice_s_.size(); ++i)
      slices << (i ? "," : "") << slice_s_[i];
    slices << "]";

    JsonObject out;
    out.str("workload", in_.workload)
        .str("mode", traced_ ? "traced" : "plain")
        .num("inputs", static_cast<double>(inputs_))
        .num("setup_s", setup_s_)
        .num("measured_s", measured_s_)
        .raw("slice_s", slices.str())
        .num("peak_rss_mb", peak_rss_mb())
        .num("offered", static_cast<double>(offered_))
        .num("accepted", static_cast<double>(accepted_))
        .num("blocked", static_cast<double>(blocked_))
        .num("errored", static_cast<double>(errored()))
        .num("failed_ops", static_cast<double>(errored() + transfers_failed_))
        .num("released", static_cast<double>(released_))
        .num("release_retries", static_cast<double>(release_retries_))
        .num("transfers_offered", static_cast<double>(transfers_offered_))
        .num("transfers_accepted", static_cast<double>(transfers_.size()))
        .num("transfers_rejected", static_cast<double>(transfers_rejected_))
        .num("cuts", static_cast<double>(cuts_))
        .num("outage_samples", static_cast<double>(outages_.size()))
        .num("events", static_cast<double>(events_))
        .num("ems_commands", static_cast<double>(cs.commands_issued))
        .num("resync_passes", static_cast<double>(resync_passes_))
        .str("digest_loaded", digest_loaded_)
        .str("digest_final", digest_final_)
        .raw("sim_time", sim_time.render())
        .raw("checks", checks.render())
        .boolean("correct", all_ok)
        .raw("errors", errors)
        .raw("refusals", refusals.render());
    if (traced_) out.raw("layers", layers());
    return out.render();
  }

  static std::string sanitize(std::string s) {
    for (char& c : s)
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
        c = '\'';
    return s;
  }

  /// Per-layer numbers of a traced run.
  std::string layers() {
    auto& ctl = d_->controller;
    auto& model = d_->model;
    const auto& cs = ctl.stats();
    const Observer& ob = *d_->observer;
    JsonObject l;
    const double events = static_cast<double>(events_);
    l.num("sim.events", events)
        .num("sim.run_ms", run_s_ * 1e3)
        .num("sim.ns_per_event", events == 0 ? 0.0 : run_s_ * 1e9 / events)
        .num("sim.pending_max", static_cast<double>(ob.pending_max_))
        // After the drain the queue is empty, so pending() is minus the
        // cancellations that never met their event (handles cancelled
        // after they fired); each stays in the engine's cancelled list.
        .num("sim.stale_cancels", static_cast<double>(
                                      std::uint64_t{0} - d_->engine.pending()))
        .num("sim.trace_records",
             static_cast<double>(model.trace().records().size()));

    std::size_t frames = 0;
    std::size_t dropped = 0;
    for (proto::ControlChannel* ch : model.control_channels()) {
      frames += ch->frames_sent();
      dropped += ch->frames_dropped();
    }
    l.num("proto.frames", static_cast<double>(frames))
        .num("proto.frames_dropped", static_cast<double>(dropped))
        .num("proto.codec_ns_per_frame", codec_ns_per_frame(ob.mix_));

    std::size_t commands = 0;
    std::size_t evictions = 0;
    std::vector<const telemetry::Histogram*> waits;
    for (ems::EmsServer* s : model.ems_servers()) {
      commands += s->commands_executed();
      evictions += s->cache_evictions();
      std::string domain = s->name();
      if (const auto dash = domain.find("-ems"); dash != std::string::npos)
        domain.resize(dash);
      l.num("ems.commands." + domain,
            static_cast<double>(s->commands_executed()));
      waits.push_back(d_->tel->metrics().find_histogram(
          "griphon_ems_" + domain + "_queue_wait_seconds"));
    }
    l.num("ems.commands", static_cast<double>(commands))
        .num("ems.queue_depth_max", static_cast<double>(ob.queue_depth_max_))
        .num("ems.cache_evictions", static_cast<double>(evictions))
        .pct("ems.queue_wait_s_p95", histogram_percentile(waits, 0.95));

    l.pct("core.connect_call_us_p50", percentile(connect_us_, 0.50))
        .pct("core.connect_call_us_p99", percentile(connect_us_, 0.99))
        .pct("core.release_call_us_p99", percentile(release_us_, 0.99))
        .num("core.commands_per_request",
             inputs_ == 0 ? 0.0
                          : static_cast<double>(cs.commands_issued) /
                                static_cast<double>(inputs_))
        .num("core.commands_retried", static_cast<double>(cs.commands_retried))
        .num("core.records_held", static_cast<double>(records_held_));

    const auto& m = d_->tel->metrics();
    const auto counter = [&m](const char* name) {
      const telemetry::Counter* c = m.find_counter(name);
      return c == nullptr ? 0.0 : static_cast<double>(c->value());
    };
    const double hits = counter("griphon_rwa_route_cache_hits_total");
    const double misses = counter("griphon_rwa_route_cache_misses_total");
    const auto plan_us = replay_plans();
    l.pct("rwa.plan_us_p50", percentile(plan_us, 0.50))
        .pct("rwa.plan_us_p99", percentile(plan_us, 0.99))
        .num("rwa.route_cache_hit_pct",
             hits + misses == 0 ? 0.0 : 100.0 * hits / (hits + misses))
        .num("rwa.plans_failed", counter("griphon_rwa_plans_failed_total"));

    l.pct("inventory.snapshot_us_p50", percentile(snapshot_us_, 0.50))
        .num("inventory.reservations_max",
             static_cast<double>(ob.reservations_max_));

    l.num("restoration.ok", static_cast<double>(cs.restorations_ok))
        .num("restoration.failed", static_cast<double>(cs.restorations_failed))
        .num("restoration.retries",
             static_cast<double>(cs.restorations_retried))
        .num("restoration.non_diverse",
             static_cast<double>(cs.restorations_non_diverse))
        .num("restoration.queue_max",
             static_cast<double>(ob.restoration_queue_max_))
        .num("restoration.backlog_max", static_cast<double>(ob.backlog_max_));

    const auto bs = d_->scheduler != nullptr
                        ? d_->scheduler->stats()
                        : bod::TransferScheduler::Stats{};
    l.pct("bod.submit_call_us_p50", percentile(submit_us_, 0.50))
        .pct("bod.submit_call_us_p95", percentile(submit_us_, 0.95))
        .pct("bod.submit_call_us_p99", percentile(submit_us_, 0.99))
        .num("bod.accepted", static_cast<double>(bs.accepted))
        .num("bod.rejected", static_cast<double>(bs.rejected))
        .num("bod.reschedules", static_cast<double>(bs.reschedules));

    l.num("reopt.analyze_ms", analyze_ms_)
        .num("reopt.moves_rolled",
             d_->reoptsvc != nullptr
                 ? static_cast<double>(d_->reoptsvc->stats().moves_rolled)
                 : 0.0)
        .num("reopt.frag_mean", frag_mean_);

    const auto t0 = Clock::now();
    const std::string trace_json =
        telemetry::TraceExporter{}.to_json(*d_->tel);
    const double export_ms = seconds_since(t0) * 1e3;
    l.num("telemetry.spans",
          static_cast<double>(d_->tel->spans().spans().size()))
        .num("telemetry.export_ms", trace_json.empty() ? 0.0 : export_ms);
    return l.render();
  }

  /// Encode + decode every recorded command; median ns per frame over
  /// three passes.
  static double codec_ns_per_frame(const std::vector<proto::Message>& mix) {
    if (mix.empty()) return 0;
    std::vector<double> per_frame;
    std::size_t sink = 0;
    for (int pass = 0; pass < 3; ++pass) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < mix.size(); ++i) {
        const proto::Bytes bytes = proto::encode_frame(i + 1, mix[i]);
        const auto frame = proto::decode_frame(bytes);
        if (!frame.ok()) die("codec replay failed to decode a frame");
        sink += bytes.size();
      }
      per_frame.push_back(seconds_since(t0) * 1e9 /
                          static_cast<double>(mix.size()));
    }
    if (sink == 0) die("codec replay produced no bytes");
    return percentile(per_frame, 0.5).value;
  }

  /// plan() replayed on the workload's pairs after the run: every DC pair
  /// the inputs used, and for storm each pair around every conduit (the
  /// SRLG-diverse replans that miss the route cache).
  std::vector<double> replay_plans() {
    std::set<std::pair<std::size_t, std::size_t>> pairs;
    for (const Input& e : in_.events)
      if (e.op == Op::kConnect || e.op == Op::kTransfer)
        pairs.emplace(std::min(e.src, e.dst), std::max(e.src, e.dst));
    std::vector<core::Exclusions> exclusions(1);
    for (const auto& conduit : in_.conduits) {
      core::Exclusions x;
      x.links.insert(conduit.begin(), conduit.end());
      exclusions.push_back(std::move(x));
    }
    std::vector<double> us;
    const auto& rwa = d_->controller.rwa();
    while (us.size() < 2000) {
      for (const auto& x : exclusions)
        for (const auto& [a, b] : pairs) {
          const auto t0 = Clock::now();
          const auto plan =
              rwa.plan(d_->pops[a], d_->pops[b], rates::k10G, x);
          us.push_back(micros_since(t0));
          if (!plan.ok() && plan.error().code() == ErrorCode::kInternal)
            die("rwa replay: " + plan.error().message());
        }
      if (pairs.empty()) break;
    }
    return us;
  }

  struct Release {
    SimTime due;
    std::uint64_t seq;
    ConnectionId id;
    std::size_t src;
    std::size_t dst;
    bool operator>(const Release& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  const Inputs& in_;
  const bool traced_;
  std::unique_ptr<Deployment> d_;
  std::vector<int> nte_load_;
  std::priority_queue<Release, std::vector<Release>, std::greater<>>
      releases_;
  std::uint64_t seq_ = 0;

  double setup_s_ = 0;
  double measured_s_ = 0;
  std::vector<double> slice_s_;  ///< wall seconds per slice of the inputs
  double run_s_ = 0;
  std::uint64_t events_ = 0;
  std::size_t inputs_ = 0;
  std::size_t offered_ = 0;
  std::size_t accepted_ = 0;
  std::size_t blocked_ = 0;
  std::size_t connect_errors_ = 0;
  std::size_t release_errors_ = 0;
  std::size_t submit_errors_ = 0;
  std::size_t released_ = 0;
  std::size_t release_retries_ = 0;
  std::size_t transfers_offered_ = 0;
  std::size_t transfers_rejected_ = 0;
  std::size_t transfers_failed_ = 0;
  std::vector<TransferId> transfers_;
  std::vector<ConnectionId> received_;
  std::vector<double> wave_setup_s_;
  std::size_t cuts_ = 0;
  std::size_t stranded_ = 0;
  std::map<ConnectionId, SimTime> cycle_before_;
  std::map<ConnectionId, bool> cycle_by_pipeline_;
  std::vector<Outage> outages_;
  double frag_mean_ = 0;
  double analyze_ms_ = 0;
  std::size_t records_held_ = 0;
  std::size_t resync_passes_ = 0;
  std::string digest_loaded_;
  std::string digest_final_;
  std::map<std::string, bool> checks_;
  std::map<std::string, std::size_t> refusals_;
  std::vector<std::string> errors_;
  std::vector<double> connect_us_;
  std::vector<double> release_us_;
  std::vector<double> submit_us_;
  std::vector<double> snapshot_us_;
};

void describe() {
  const topology::Graph g = backbone50();
  JsonObject out;
  std::string links = "[";
  for (std::size_t i = 0; i < g.links().size(); ++i) {
    const auto& l = g.links()[i];
    links += (i ? "," : "") + ("[" + std::to_string(l.id.value()) + "," +
                               std::to_string(l.a.value()) + "," +
                               std::to_string(l.b.value()) + "]");
  }
  links += "]";
  std::string sites = "[";
  const auto pops = dc_pops(g);
  for (std::size_t i = 0; i < pops.size(); ++i)
    sites += (i ? "," : "") + std::to_string(pops[i].value());
  sites += "]";
  out.num("nodes", static_cast<double>(g.nodes().size()))
      .raw("links", links)
      .raw("dc_pops", sites);
  std::cout << out.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "describe") {
    describe();
    return 0;
  }
  if (args.size() == 3 && args[0] == "run" &&
      (args[2] == "plain" || args[2] == "traced")) {
    const Inputs in = read_inputs(args[1]);
    Replay replay(in, args[2] == "traced");
    std::cout << replay.run() << "\n";
    return 0;
  }
  std::cerr << "usage: perfbench_driver describe\n"
               "       perfbench_driver run <inputs> plain|traced\n";
  return 2;
}
