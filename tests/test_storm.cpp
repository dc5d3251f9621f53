// Restoration-storm engine tests: SRLG-correlated failure classification,
// SRLG-diverse replanning (with the explicit non-diverse fallback), the
// capacity-exhausted retry backlog re-armed by teardowns, the backlog's
// retry ladder (timed retries, dormancy, re-arm on repair), gold
// preemption of best-effort BoD calendar windows, and a fixed-seed
// failure-storm soak that must drain deterministically with zero leaks.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "bod/admission.hpp"
#include "bod/reservation_calendar.hpp"
#include "bod/transfer_scheduler.hpp"
#include "chaos/fault_injector.hpp"
#include "core/scenario.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::core {
namespace {

// Four-node plant: a--b directly (the conduit under test), a-c-b whose
// first hop shares the conduit with a--b, and a-d-b fully independent.
struct ConduitRig {
  sim::Engine engine;
  NodeId a, b, c, d;
  LinkId l_ab, l_ac, l_cb, l_ad, l_db;
  std::unique_ptr<NetworkModel> model;
  std::unique_ptr<GriphonController> controller;
  std::unique_ptr<CustomerPortal> portal;
  MuxponderId site_a, site_b;

  explicit ConduitRig(std::uint64_t seed, bool independent_path = true,
                      GriphonController::Params params = {})
      : engine(seed) {
    topology::Graph g;
    a = g.add_node("a");
    b = g.add_node("b");
    c = g.add_node("c");
    d = g.add_node("d");
    l_ab = g.add_link(a, b, Distance::km(50));
    l_ac = g.add_link(a, c, Distance::km(60));
    l_cb = g.add_link(c, b, Distance::km(60));
    if (independent_path) {
      l_ad = g.add_link(a, d, Distance::km(400));
      l_db = g.add_link(d, b, Distance::km(400));
    }
    g.set_srlg(l_ab, 1);
    g.set_srlg(l_ac, 1);  // a-c rides the same right-of-way as a-b

    NetworkModel::Config cfg;
    cfg.with_otn = false;
    model = std::make_unique<NetworkModel>(&engine, std::move(g), cfg);
    site_a = model->add_customer_site(CustomerId{1}, "A", a).nte;
    site_b = model->add_customer_site(CustomerId{1}, "B", b).nte;
    controller = std::make_unique<GriphonController>(model.get(), params);
    portal = std::make_unique<CustomerPortal>(controller.get(), CustomerId{1},
                                              DataRate::gbps(100));
  }

  ConnectionId connect(ServiceTier tier = ServiceTier::kSilver,
                       ProtectionMode mode = ProtectionMode::kRestorable) {
    std::optional<ConnectionId> id;
    portal->connect(
        site_a, site_b, rates::k10G, mode,
        [&](Result<ConnectionId> r) {
          if (r.ok()) id = r.value();
        },
        tier);
    engine.run();
    EXPECT_TRUE(id.has_value());
    return *id;
  }
};

TEST(StormRestoration, ReplanIsSrlgDiverse) {
  // The failed fiber's conduit-mate (a-c) is up, shorter, and wrong:
  // the same backhoe that cut a-b is parked on top of it. Restoration
  // must take the long conduit-independent a-d-b route.
  ConduitRig rig(200);
  const ConnectionId id = rig.connect();
  EXPECT_TRUE(rig.controller->connection(id).plan.path.uses_link(rig.l_ab));

  rig.model->fail_link(rig.l_ab);
  rig.engine.run();

  const auto& conn = rig.controller->connection(id);
  ASSERT_EQ(conn.state, ConnectionState::kActive);
  EXPECT_FALSE(conn.plan.path.uses_link(rig.l_ac));
  EXPECT_TRUE(conn.plan.path.uses_link(rig.l_ad));
  EXPECT_TRUE(conn.plan.path.uses_link(rig.l_db));
  EXPECT_EQ(rig.controller->stats().restorations_non_diverse, 0u);
}

TEST(StormRestoration, FallsBackToNonDiverseWhenNoDiversePathExists) {
  // Without the a-d-b detour the only surviving route shares the failed
  // conduit. Restoring onto it is a calculated risk the controller takes
  // over leaving the service dark — and it must say so in the stats.
  ConduitRig rig(201, /*independent_path=*/false);
  const ConnectionId id = rig.connect();

  rig.model->fail_link(rig.l_ab);
  rig.engine.run();

  const auto& conn = rig.controller->connection(id);
  ASSERT_EQ(conn.state, ConnectionState::kActive);
  EXPECT_TRUE(conn.plan.path.uses_link(rig.l_ac));
  EXPECT_GE(rig.controller->stats().restorations_non_diverse, 1u);
}

TEST(StormRestoration, ConduitCutCollapsesIntoOneStormEvent) {
  // Both fibers of conduit 1 alarm within the holddown window: one
  // correlated storm event, not two independent failures — and the storm
  // flag clears once the restoration pipeline drains.
  ConduitRig rig(202);
  const ConnectionId id = rig.connect();

  rig.model->fail_link(rig.l_ab);
  rig.model->fail_link(rig.l_ac);
  rig.engine.run();

  EXPECT_EQ(rig.controller->failure_manager().storms_seen(), 1u);
  EXPECT_FALSE(rig.controller->restoration_storm_active());  // drained
  const auto& conn = rig.controller->connection(id);
  ASSERT_EQ(conn.state, ConnectionState::kActive);
  EXPECT_TRUE(conn.plan.path.uses_link(rig.l_ad));
  EXPECT_EQ(rig.controller->restoration_backlog_depth(), 0u);
}

TEST(StormRestoration, CapacityExhaustedThenTeardownRearmsBacklog) {
  // Regression (stranded-on-failed-restoration): X's restoration finds
  // the only surviving route wavelength-exhausted by Y. X must park in
  // the retry backlog — and Y's release must re-arm it immediately, not
  // leave X stranded until an operator notices.
  sim::Engine engine(203);
  topology::Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto d = g.add_node("d");
  const auto l_ab = g.add_link(a, b, Distance::km(50));
  const auto l_ad = g.add_link(a, d, Distance::km(60));
  const auto l_db = g.add_link(d, b, Distance::km(60));

  NetworkModel::Config cfg;
  cfg.with_otn = false;
  cfg.channels = 1;  // one wave per link: the detour fits X or Y, not both
  NetworkModel model(&engine, std::move(g), cfg);
  const auto sa = model.add_customer_site(CustomerId{1}, "A", a).nte;
  const auto sb = model.add_customer_site(CustomerId{1}, "B", b).nte;
  GriphonController controller(&model, GriphonController::Params{});
  CustomerPortal portal(&controller, CustomerId{1}, DataRate::gbps(100));

  const auto connect = [&](ProtectionMode mode) {
    std::optional<ConnectionId> id;
    portal.connect(sa, sb, rates::k10G, mode, [&](Result<ConnectionId> r) {
      if (r.ok()) id = r.value();
    });
    engine.run();
    EXPECT_TRUE(id.has_value());
    return *id;
  };
  const ConnectionId x = connect(ProtectionMode::kRestorable);  // on a-b
  const ConnectionId y = connect(ProtectionMode::kUnprotected);  // on a-d-b
  EXPECT_TRUE(controller.connection(x).plan.path.uses_link(l_ab));
  EXPECT_TRUE(controller.connection(y).plan.path.uses_link(l_ad));

  model.fail_link(l_ab);
  engine.run_until(engine.now() + seconds(45));
  EXPECT_EQ(controller.connection(x).state, ConnectionState::kFailed);
  EXPECT_EQ(controller.restoration_backlog_depth(), 1u);

  bool released = false;
  portal.disconnect(y, [&](Status s) { released = s.ok(); });
  engine.run();
  EXPECT_TRUE(released);

  const auto& conn = controller.connection(x);
  ASSERT_EQ(conn.state, ConnectionState::kActive);
  EXPECT_TRUE(conn.plan.path.uses_link(l_ad));
  EXPECT_TRUE(conn.plan.path.uses_link(l_db));
  EXPECT_GE(controller.stats().restorations_retried, 1u);
  EXPECT_EQ(controller.restoration_backlog_depth(), 0u);
  EXPECT_EQ(controller.inventory().reservations(), 0u);
}

TEST(StormRestoration, UnroutableRestorationFollowsTheRetryLadder) {
  // The restoration backlog's operating values, read back from the ring:
  // a restorable wave whose only fiber is cut retries at 10, 20, 40, 80,
  // 160 and 300 s, goes dormant after the 6th timed retry (no timer, so
  // the event loop drains), and a repair re-arms it from retry #1.
  sim::Engine engine(204);
  topology::Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto c = g.add_node("c");
  const auto l_ab = g.add_link(a, b, Distance::km(50));
  const auto l_ac = g.add_link(a, c, Distance::km(50));  // spur, off-route

  NetworkModel::Config cfg;
  cfg.with_otn = false;
  NetworkModel model(&engine, std::move(g), cfg);
  const auto sa = model.add_customer_site(CustomerId{1}, "A", a).nte;
  const auto sb = model.add_customer_site(CustomerId{1}, "B", b).nte;
  GriphonController controller(&model, GriphonController::Params{});
  CustomerPortal portal(&controller, CustomerId{1}, DataRate::gbps(100));
  std::optional<ConnectionId> id;
  portal.connect(sa, sb, rates::k10G, ProtectionMode::kRestorable,
                 [&](Result<ConnectionId> r) {
                   if (r.ok()) id = r.value();
                 });
  engine.run();
  ASSERT_TRUE(id.has_value());

  // Backlog records for the connection, from `since` on: the time each
  // was written and the retry delay it announces ("retry #k in Ds: ...").
  struct Retry {
    SimTime at;
    int number;
    double delay_s;
  };
  const auto retries_since = [&](SimTime since) {
    std::vector<Retry> out;
    for (const sim::TraceRecord& r : model.trace().records()) {
      if (r.event != "restore-backlog" || r.when < since) continue;
      const auto hash = r.detail.find('#');
      const auto in = r.detail.find(" in ", hash);
      EXPECT_NE(hash, std::string::npos) << r.detail;
      EXPECT_NE(in, std::string::npos) << r.detail;
      if (hash == std::string::npos || in == std::string::npos) continue;
      out.push_back(Retry{r.when, std::stoi(r.detail.substr(hash + 1)),
                          std::stod(r.detail.substr(in + 4))});
    }
    return out;
  };

  const SimTime cut_at = engine.now();
  model.fail_link(l_ab);
  model.fail_link(l_ac);
  engine.run();  // must drain: the exhausted entry arms no timer

  const std::vector<double> ladder{10, 20, 40, 80, 160, 300};
  const auto first = retries_since(cut_at);
  ASSERT_EQ(first.size(), ladder.size());
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    EXPECT_EQ(first[k].number, static_cast<int>(k) + 1);
    EXPECT_DOUBLE_EQ(first[k].delay_s, ladder[k]);
    // The next failed attempt lands one delay (plus the attempt itself,
    // well under a minute) after this record.
    if (k + 1 < first.size()) {
      const double gap = to_seconds(first[k + 1].at - first[k].at);
      EXPECT_GE(gap, ladder[k]);
      EXPECT_LT(gap, ladder[k] + 60.0);
    }
  }
  EXPECT_EQ(model.trace().count("restore-backlog-dormant"), 1u);
  EXPECT_EQ(controller.connection(*id).state, ConnectionState::kFailed);
  EXPECT_EQ(controller.restoration_backlog_depth(), 1u);
  const std::size_t retried = controller.stats().restorations_retried;
  EXPECT_EQ(retried, ladder.size());

  // Repairing the spur leaves the wave unroutable, but a repair is the
  // external event that re-arms a dormant entry, attempts reset.
  const SimTime repair_at = engine.now();
  model.repair_link(l_ac);
  engine.run();
  const auto rearmed = retries_since(repair_at);
  ASSERT_EQ(rearmed.size(), ladder.size());
  EXPECT_EQ(rearmed.front().number, 1);
  EXPECT_DOUBLE_EQ(rearmed.front().delay_s, ladder.front());
  EXPECT_EQ(model.trace().count("restore-backlog-dormant"), 2u);
  EXPECT_GT(controller.stats().restorations_retried, retried);
  EXPECT_EQ(controller.restoration_backlog_depth(), 1u);
}

TEST(StormRestoration, GoldRestorationPreemptsBestEffortWindow) {
  // A best-effort bulk transfer owns the only wavelength a failed gold
  // connection could restore onto. The gold restoration must reclaim it:
  // the transfer's window is torn down and the gold service comes back.
  NetworkModel::Config cfg;
  cfg.with_otn = false;
  cfg.channels = 1;
  TestbedScenario s(204, cfg);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);

  bod::ReservationCalendar::Params cal_params;
  cal_params.slot = minutes(1);
  cal_params.default_link_capacity = rates::k10G;
  bod::ReservationCalendar cal(cal_params);
  bod::AdmissionController adm(&s.engine);
  bod::AdmissionController::CustomerPolicy policy;
  policy.bandwidth_quota = DataRate::gbps(100);
  policy.requests_per_second = 1000;
  policy.burst = 1000;
  adm.set_policy(s.csp, policy);
  bod::TransferScheduler::Params sp;
  sp.rate_ladder = {rates::k10G};
  sp.setup_pad = minutes(2);
  bod::TransferScheduler sched(s.controller.get(), &cal, &adm, sp);
  sched.register_portal(s.portal.get());

  // Strip the II detour so the plant is down to the direct I-IV fiber
  // plus I-III-IV; later, cutting I-III leaves exactly one route.
  s.model->fail_link(s.topo.ii_iii);
  s.engine.run();

  bod::TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 2'500'000'000'000;  // ~2000 s at 10G: still mid-window later
  req.deadline = hours(4);
  const auto tid = sched.submit(req);
  ASSERT_TRUE(tid.ok()) << tid.error();
  s.engine.run_until(s.engine.now() + minutes(15));  // window opens, lights
  {
    const auto st = sched.inspect(s.csp, tid.value());
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(st.value().state,
              bod::TransferScheduler::TransferState::kActive);
  }

  // The gold connection finds the direct fiber wavelength-occupied by the
  // transfer and comes up on I-III-IV. Bounded horizons throughout: a
  // full drain would let the transfer finish and hand its wave back.
  std::optional<ConnectionId> gold;
  s.portal->connect(
      s.site_i, s.site_iv, rates::k10G, ProtectionMode::kRestorable,
      [&](Result<ConnectionId> r) {
        if (r.ok()) gold = r.value();
      },
      ServiceTier::kGold);
  s.engine.run_until(s.engine.now() + minutes(4));
  ASSERT_TRUE(gold.has_value());
  EXPECT_TRUE(s.controller->connection(*gold).plan.path.uses_link(
      s.topo.i_iii));

  s.model->fail_link(s.topo.i_iii);
  s.engine.run_until(s.engine.now() + minutes(8));

  const auto& conn = s.controller->connection(*gold);
  ASSERT_EQ(conn.state, ConnectionState::kActive);
  EXPECT_TRUE(conn.plan.path.uses_link(s.topo.i_iv));
  EXPECT_GE(s.controller->stats().preemptions_requested, 1u);
  EXPECT_GE(s.controller->stats().bod_windows_preempted, 1u);
  EXPECT_GE(sched.stats().preempted, 1u);
  // The preempted transfer was re-planned or failed loudly — never left
  // silently holding spectrum it no longer has.
  s.engine.run();
  const auto st = sched.inspect(s.csp, tid.value());
  ASSERT_TRUE(st.ok());
  EXPECT_NE(st.value().state, bod::TransferScheduler::TransferState::kActive);
  EXPECT_EQ(s.controller->restoration_backlog_depth(), 0u);
}

// --- fixed-seed storm soak --------------------------------------------------

std::string run_storm_soak(std::uint64_t seed) {
  sim::Engine engine(seed);
  topology::Graph g;
  std::vector<NodeId> n;
  for (int i = 0; i < 6; ++i)
    n.push_back(g.add_node("n" + std::to_string(i)));
  std::vector<LinkId> ring;
  for (int i = 0; i < 6; ++i)
    ring.push_back(
        g.add_link(n[static_cast<std::size_t>(i)],
                   n[static_cast<std::size_t>((i + 1) % 6)],
                   Distance::km(80)));
  const auto c03 = g.add_link(n[0], n[3], Distance::km(150));
  const auto c14 = g.add_link(n[1], n[4], Distance::km(150));
  // Two conduits: the n0-n1 span shares a right-of-way with the n0-n3
  // chord, and n3-n4 with the n1-n4 chord.
  g.set_srlg(ring[0], 1);
  g.set_srlg(c03, 1);
  g.set_srlg(ring[3], 2);
  g.set_srlg(c14, 2);

  NetworkModel::Config cfg;
  cfg.with_otn = false;
  NetworkModel model(&engine, std::move(g), cfg);
  const auto s0 = model.add_customer_site(CustomerId{1}, "S0", n[0]).nte;
  const auto s2 = model.add_customer_site(CustomerId{1}, "S2", n[2]).nte;
  const auto s4 = model.add_customer_site(CustomerId{1}, "S4", n[4]).nte;
  GriphonController::Params params;
  params.restoration.max_concurrent = 4;
  GriphonController controller(&model, params);
  CustomerPortal portal(&controller, CustomerId{1}, DataRate::gbps(200));

  std::vector<ConnectionId> conns;
  const auto connect = [&](MuxponderId from, MuxponderId to,
                           ServiceTier tier) {
    std::optional<ConnectionId> id;
    portal.connect(
        from, to, rates::k10G, ProtectionMode::kRestorable,
        [&](Result<ConnectionId> r) {
          if (r.ok()) id = r.value();
        },
        tier);
    engine.run();
    ASSERT_TRUE(id.has_value());
    conns.push_back(*id);
  };
  connect(s0, s2, ServiceTier::kGold);
  connect(s0, s4, ServiceTier::kSilver);
  connect(s2, s4, ServiceTier::kBronze);

  chaos::FaultInjector injector(&model, chaos::FaultPlan::failure_storm(),
                                /*seed=*/seed + 17);
  injector.arm();
  engine.run_until(engine.now() + hours(2));
  injector.disarm();
  injector.heal_all();
  engine.run();

  // Zero-leak, fully drained: with the plant healed, every connection is
  // terminal (active) and nothing holds a reservation or a retry timer.
  EXPECT_GT(injector.stats().fiber_cuts, 0u);
  EXPECT_EQ(controller.inventory().reservations(), 0u);
  EXPECT_EQ(controller.restoration_backlog_depth(), 0u);
  EXPECT_FALSE(controller.restoration_storm_active());
  for (const ConnectionId id : conns)
    EXPECT_EQ(controller.connection(id).state, ConnectionState::kActive)
        << "connection " << id.value();

  const auto& st = controller.stats();
  std::ostringstream digest;
  digest << "cuts=" << injector.stats().fiber_cuts << "/"
         << injector.stats().conduit_cuts << "/"
         << injector.stats().links_cut
         << " storms=" << controller.failure_manager().storms_seen()
         << " restored=" << st.restorations_ok << " failed="
         << st.restorations_failed << " retried=" << st.restorations_retried
         << " nondiverse=" << st.restorations_non_diverse;
  for (const ConnectionId id : conns)
    digest << " r" << id.value() << "="
           << controller.connection(id).restorations;
  return digest.str();
}

TEST(StormSoak, FixedSeedStormIsDeterministicAndLeakFree) {
  const std::string first = run_storm_soak(777);
  const std::string second = run_storm_soak(777);
  EXPECT_EQ(first, second) << "storm soak digest diverged across replays";
  SUCCEED() << first;
}

}  // namespace
}  // namespace griphon::core
