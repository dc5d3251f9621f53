// Unit tests for the discrete-event engine and trace log.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace griphon::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), SimTime{});
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, AdvancesToEventTime) {
  Engine e;
  SimTime seen{};
  e.schedule(seconds(5), [&]() { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, seconds(5));
  EXPECT_EQ(e.now(), seconds(5));
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(seconds(3), [&]() { order.push_back(3); });
  e.schedule(seconds(1), [&]() { order.push_back(1); });
  e.schedule(seconds(2), [&]() { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, FifoTieBreakAtEqualTimes) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    e.schedule(seconds(1), [&order, i]() { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedSchedulingWorks) {
  Engine e;
  std::vector<SimTime> at;
  e.schedule(seconds(1), [&]() {
    at.push_back(e.now());
    e.schedule(seconds(1), [&]() { at.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[1], seconds(2));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  e.schedule(seconds(5), [&]() {
    e.schedule(seconds(-3), [&]() { EXPECT_EQ(e.now(), seconds(5)); });
  });
  e.run();
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const auto h = e.schedule(seconds(1), [&]() { fired = true; });
  e.cancel(h);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine e;
  const auto h = e.schedule(seconds(1), []() {});
  e.run();
  e.cancel(h);  // must not crash or corrupt
  EXPECT_EQ(e.pending(), 0u);
  e.schedule(seconds(1), []() {});
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelOfGoneOrCancelledHandleIsNoop) {
  Engine e;
  int fired = 0;
  // Same instant: `first` has fired by the time the canceller runs; `third`
  // is queued behind it and still live.
  EventHandle first;
  EventHandle third;
  first = e.schedule(seconds(1), [&]() { ++fired; });
  e.schedule(seconds(1), [&]() {
    e.cancel(first);
    e.cancel(third);
  });
  third = e.schedule(seconds(1), [&]() { ++fired; });
  const auto twice = e.schedule(seconds(2), [&]() { ++fired; });
  e.cancel(twice);
  e.cancel(twice);
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_EQ(e.run(), 2u);  // `first` and the canceller
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 0u);
  // `twice` was dropped after the last live event, beyond now().
  e.cancel(twice);
  EXPECT_EQ(e.pending(), 0u);
  // A fresh event at that same now() is still cancellable.
  bool late = false;
  const auto h = e.schedule(SimTime{}, [&]() { late = true; });
  e.cancel(h);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.run(), 0u);
  EXPECT_FALSE(late);
}

TEST(Engine, PendingExcludesCancelled) {
  Engine e;
  const auto h = e.schedule(seconds(1), []() {});
  e.schedule(seconds(2), []() {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(h);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(seconds(1), [&]() { ++fired; });
  e.schedule(seconds(10), [&]() { ++fired; });
  const auto n = e.run_until(seconds(5));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), seconds(5));
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesDeadlineInstant) {
  Engine e;
  bool fired = false;
  e.schedule(seconds(5), [&]() { fired = true; });
  e.run_until(seconds(5));
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilCancelledHeadDoesNotAdmitLaterEvents) {
  // Regression: a cancelled event inside the horizon sat at the queue
  // head; run_until's deadline check passed, and pop_one() then skipped
  // the cancelled entry and fired the next live event — far beyond the
  // deadline.
  Engine e;
  bool fired = false;
  const auto h = e.schedule(seconds(1), []() {});
  e.schedule(seconds(100), [&]() { fired = true; });
  e.cancel(h);
  const auto n = e.run_until(seconds(5));
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), seconds(5));
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), seconds(100));
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule(seconds(1), [&]() { ++fired; });
  e.schedule(seconds(2), [&]() { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunReturnsEventCount) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule(seconds(i), []() {});
  EXPECT_EQ(e.run(), 7u);
  EXPECT_EQ(e.fired(), 7u);
}

TEST(Engine, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    Engine e(seed);
    std::vector<double> draws;
    for (int i = 0; i < 5; ++i) draws.push_back(e.rng().uniform(0, 1));
    return draws;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(Trace, RecordsInOrder) {
  Trace t;
  t.emit(seconds(1), TraceLevel::kInfo, "a", "x");
  t.emit(seconds(2), TraceLevel::kWarn, "b", "y", "detail");
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[0].event, "x");
  EXPECT_EQ(t.records()[1].detail, "detail");
}

TEST(Trace, CountsByEvent) {
  Trace t;
  t.emit(seconds(1), TraceLevel::kInfo, "a", "setup");
  t.emit(seconds(2), TraceLevel::kInfo, "a", "setup");
  t.emit(seconds(3), TraceLevel::kInfo, "a", "teardown");
  EXPECT_EQ(t.count("setup"), 2u);
  EXPECT_EQ(t.count("teardown"), 1u);
  EXPECT_EQ(t.count("missing"), 0u);
}

TEST(Trace, JsonExportIsWellFormedAndEscaped) {
  Trace t;
  t.emit(milliseconds(1500), TraceLevel::kInfo, "controller", "setup-done",
         "path \"I-IV\"\nline2");
  t.emit(seconds(2), TraceLevel::kWarn, "plant", "fiber-cut", "");
  const std::string json = t.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"records\":["), std::string::npos);
  EXPECT_NE(json.find("\"t\":1.500000"), std::string::npos);
  EXPECT_NE(json.find("\"actor\":\"controller\""), std::string::npos);
  EXPECT_NE(json.find("\\\"I-IV\\\""), std::string::npos);  // escaped quotes
  EXPECT_NE(json.find("\\n"), std::string::npos);          // escaped newline
  EXPECT_EQ(json.find('\n'), std::string::npos);            // no raw newlines
  EXPECT_NE(json.find("\"level\":\"WARN\""), std::string::npos);
}

TEST(Trace, JsonEmptyTrace) {
  Trace t;
  EXPECT_EQ(t.to_json(), "{\"dropped\":0,\"records\":[]}");
}

TEST(Trace, ClearEmpties) {
  Trace t;
  t.emit(seconds(1), TraceLevel::kInfo, "a", "x");
  t.clear();
  EXPECT_TRUE(t.records().empty());
}

TEST(Trace, JsonEscapesControlCharacters) {
  Trace t;
  t.emit(seconds(1), TraceLevel::kInfo, "a", "evt",
         std::string("bell\x07tab\tend"));
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  for (const char c : json)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(Trace, BoundedByDefault) {
  // A long run with default settings keeps memory bounded: the engine's
  // ring holds the newest kDefaultCapacity records and counts the rest as
  // dropped.
  Engine e;
  Trace& t = e.trace();
  EXPECT_EQ(t.capacity(), Trace::kDefaultCapacity);
  EXPECT_EQ(Trace::kDefaultCapacity, 4096u);
  const std::size_t emitted = Trace::kDefaultCapacity + 100;
  for (std::size_t i = 0; i < emitted; ++i)
    t.emit(seconds(static_cast<std::int64_t>(i)), TraceLevel::kInfo, "a",
           "e" + std::to_string(i));
  ASSERT_EQ(t.records().size(), Trace::kDefaultCapacity);
  // emitted + 1 ring-full warning, less what the ring retains.
  EXPECT_EQ(t.dropped_count(), 101u);
  EXPECT_EQ(t.records().back().event, "e" + std::to_string(emitted - 1));
  // 0 still means unbounded.
  Trace unbounded;
  unbounded.set_capacity(0);
  for (std::size_t i = 0; i < emitted; ++i)
    unbounded.emit(seconds(1), TraceLevel::kInfo, "a", "e");
  EXPECT_EQ(unbounded.records().size(), emitted);
  EXPECT_EQ(unbounded.dropped_count(), 0u);
}

TEST(Trace, RecordsCarryCorrelationTag) {
  Trace t;
  t.emit(seconds(3), TraceLevel::kWarn, "chaos", "ot-fail", "ot 4", 7);
  t.emit(seconds(4), TraceLevel::kInfo, "plant", "fiber-repair");
  EXPECT_EQ(t.records()[0].tag, 7u);
  EXPECT_EQ(t.records()[1].tag, 0u);  // untagged
  EXPECT_NE(t.to_json().find("\"detail\":\"ot 4\",\"tag\":7}"),
            std::string::npos);
  std::ostringstream line;
  line << t.records()[0];
  EXPECT_EQ(line.str(), "[3.000s] WARN chaos ot-fail (ot 4) #7");
}

TEST(Trace, RingKeepsNewestInOrder) {
  Trace t;
  t.set_capacity(3);
  for (int i = 0; i < 10; ++i)
    t.emit(seconds(i), TraceLevel::kInfo, "a", "e" + std::to_string(i));
  ASSERT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.records()[0].event, "e7");
  EXPECT_EQ(t.records()[1].event, "e8");
  EXPECT_EQ(t.records()[2].event, "e9");
  // 10 emits + 1 ring-full warning into a ring of 3: 8 evicted.
  EXPECT_EQ(t.dropped_count(), 8u);
  // Emitting after a read (which normalizes the ring) keeps order right.
  t.emit(seconds(10), TraceLevel::kInfo, "a", "e10");
  ASSERT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.records()[0].event, "e8");
  EXPECT_EQ(t.records()[2].event, "e10");
  EXPECT_EQ(t.dropped_count(), 9u);
}

TEST(Trace, FirstOverflowEmitsOneWarning) {
  Trace t;
  t.set_capacity(4);
  for (int i = 0; i < 20; ++i)
    t.emit(seconds(i), TraceLevel::kInfo, "a", "e" + std::to_string(i));
  // Exactly one ring-full warning for the whole overflow run — it rode
  // the ring itself (and may since have been evicted), never repeating.
  std::size_t warned = 0;
  for (const auto& r : t.records())
    if (r.event == "ring-full") ++warned;
  EXPECT_LE(warned, 1u);
  EXPECT_EQ(t.dropped_count(), 17u);  // 20 emits + 1 warning - 4 retained

  // A fresh overflow run after clear() warns again.
  t.clear();
  EXPECT_EQ(t.dropped_count(), 0u);
  for (int i = 0; i < 5; ++i)
    t.emit(seconds(i), TraceLevel::kInfo, "a", "x");
  EXPECT_EQ(t.count("ring-full"), 1u);
  EXPECT_NE(t.to_json().find("\"dropped\":2"), std::string::npos);
}

TEST(Trace, ShrinkingCapacityDropsOldest) {
  Trace t;
  for (int i = 0; i < 5; ++i)
    t.emit(seconds(i), TraceLevel::kInfo, "a", "e" + std::to_string(i));
  t.set_capacity(2);
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[0].event, "e3");
  EXPECT_EQ(t.records()[1].event, "e4");
  EXPECT_EQ(t.dropped_count(), 3u);
}

TEST(Trace, RingJsonAndCountSeeOnlyRetained) {
  Trace t;
  t.set_capacity(2);
  for (int i = 0; i < 4; ++i)
    t.emit(seconds(i), TraceLevel::kInfo, "a", "e" + std::to_string(i));
  // Retained: the ring-full warning (emitted on the first eviction, then
  // aged like any record) and e3; the dump's `dropped` makes the
  // truncation visible.
  EXPECT_EQ(t.count("e0"), 0u);
  EXPECT_EQ(t.count("e3"), 1u);
  EXPECT_EQ(t.count("ring-full"), 1u);
  const std::string json = t.to_json();
  EXPECT_EQ(json.find("e0"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":3"), std::string::npos);
  EXPECT_LT(json.find("ring-full"), json.find("e3"));  // oldest first
  t.clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.dropped_count(), 0u);
  EXPECT_EQ(t.capacity(), 2u);  // clear keeps the bound
}

// Property: however events are scheduled (random times, random nesting),
// observed firing times are monotonically nondecreasing.
class EngineOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrderProperty, TimeNeverGoesBackwards) {
  Engine e(GetParam());
  std::vector<SimTime> observed;
  std::function<void(int)> spawn = [&](int depth) {
    observed.push_back(e.now());
    if (depth <= 0) return;
    const int children = static_cast<int>(e.rng().uniform_int(0, 3));
    for (int i = 0; i < children; ++i) {
      e.schedule(from_seconds(e.rng().uniform(0, 10)),
                 [&spawn, depth]() { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 5; ++i)
    e.schedule(from_seconds(e.rng().uniform(0, 10)),
               [&spawn]() { spawn(3); });
  e.run();
  for (std::size_t i = 1; i < observed.size(); ++i)
    EXPECT_LE(observed[i - 1], observed[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrderProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace griphon::sim
