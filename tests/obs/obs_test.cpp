#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "klotski/json/json.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"

namespace klotski::obs {
namespace {

/// Every test runs with metrics+tracing on and a clean slate; the previous
/// enabled state is restored so test order never matters.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_metrics_ = metrics_enabled();
    was_trace_ = trace_enabled();
    set_metrics_enabled(true);
    set_trace_enabled(true);
    Registry::global().reset_values();
    Tracer::global().clear();
  }
  void TearDown() override {
    Registry::global().reset_values();
    Tracer::global().clear();
    set_metrics_enabled(was_metrics_);
    set_trace_enabled(was_trace_);
  }

 private:
  bool was_metrics_ = false;
  bool was_trace_ = false;
};

TEST_F(ObsTest, CounterCountsAndResets) {
  Counter& c = Registry::global().counter("test.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
  Registry::global().reset_values();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, CounterHandleIsStable) {
  Counter& a = Registry::global().counter("test.stable");
  Counter& b = Registry::global().counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST_F(ObsTest, DisabledCounterIsANoop) {
  Counter& c = Registry::global().counter("test.disabled");
  set_metrics_enabled(false);
  c.inc(1000);
  EXPECT_EQ(c.value(), 0);
}

// Exercised under the TSan tier-1 pass: concurrent increments from many
// threads must race-free sum exactly.
TEST_F(ObsTest, ConcurrentCounterIncrementsSumExactly) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  Counter& c = Registry::global().counter("test.concurrent");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kIncrements);
}

TEST_F(ObsTest, ConcurrentRegistryLookupsAndHistogramObserves) {
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        Registry::global().counter("test.lookup").inc();
        Registry::global().histogram("test.hist").observe(0.5);
        Registry::global().gauge("test.gauge").set_max(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(Registry::global().counter("test.lookup").value(), 8000);
  EXPECT_EQ(Registry::global().histogram("test.hist").count(), 8000);
  EXPECT_DOUBLE_EQ(Registry::global().gauge("test.gauge").value(), 999.0);
}

TEST_F(ObsTest, GaugeSetMaxIsAHighWaterMark) {
  Gauge& g = Registry::global().gauge("test.hwm");
  g.set_max(3.0);
  g.set_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST_F(ObsTest, HistogramTracksCountSumMinMax) {
  Histogram& h = Registry::global().histogram("test.stats");
  h.observe(0.001);
  h.observe(0.1);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 10.101);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST_F(ObsTest, MetricsJsonReparsesWithInTreeParser) {
  Registry::global().counter("test.json.counter").inc(5);
  Registry::global().gauge("test.json.gauge").set(2.5);
  Registry::global().histogram("test.json.hist").observe(0.25);

  const std::string text = json::dump(Registry::global().to_json(), 2);
  const json::Value round = json::parse(text);
  EXPECT_EQ(round.get_string("schema", ""), "klotski.metrics.v1");
  EXPECT_EQ(round.at("counters").at("test.json.counter").as_int(), 5);
  EXPECT_DOUBLE_EQ(round.at("gauges").at("test.json.gauge").as_double(), 2.5);
  const json::Value& hist = round.at("histograms").at("test.json.hist");
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_EQ(hist.at("buckets").as_array().size(),
            static_cast<std::size_t>(Histogram::kNumBuckets));
}

TEST_F(ObsTest, SpanNestingDepthsRecorded) {
  {
    Span outer("outer");
    {
      Span inner("inner");
      { Span innermost("innermost"); }
    }
    { Span sibling("sibling"); }
  }
  const std::vector<Tracer::Event> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 4u);
  // Spans close innermost-first.
  EXPECT_EQ(events[0].name, "innermost");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].depth, 0);
  // Nesting also shows in the timestamps: outer starts no later than inner
  // and ends no earlier.
  EXPECT_LE(events[3].ts_us, events[1].ts_us);
  EXPECT_GE(events[3].ts_us + events[3].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  set_trace_enabled(false);
  { Span span("invisible"); }
  EXPECT_EQ(Tracer::global().size(), 0u);
}

TEST_F(ObsTest, TraceJsonReparsesWithInTreeParser) {
  {
    Span outer("a");
    { Span inner("b"); }
  }
  const std::string text = json::dump(Tracer::global().to_json(), 2);
  const json::Value round = json::parse(text);
  EXPECT_EQ(round.get_string("displayTimeUnit", ""), "ms");
  const json::Array& events = round.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const json::Value& event : events) {
    EXPECT_EQ(event.get_string("ph", ""), "X");
    EXPECT_GE(event.at("dur").as_int(), 0);
    EXPECT_GE(event.at("args").at("depth").as_int(), 0);
  }
}

// Regression: the tracer appended every span to an unbounded vector until
// exit, so a long-lived traced daemon grew without limit.
TEST_F(ObsTest, FullTraceRingKeepsTheNewestSpansOldestFirst) {
  constexpr std::size_t kRecorded = Tracer::kCapacity + 10;
  for (std::size_t i = 0; i < kRecorded; ++i) {
    Tracer::Event event;
    event.name = "span";
    event.ts_us = static_cast<std::int64_t>(i);
    Tracer::global().record(std::move(event));
  }
  EXPECT_EQ(Tracer::global().size(), Tracer::kCapacity);
  EXPECT_EQ(Tracer::global().dropped(), 10);
  EXPECT_EQ(Registry::global().counter("trace.dropped").value(), 10);

  const std::vector<Tracer::Event> events = Tracer::global().events();
  ASSERT_EQ(events.size(), Tracer::kCapacity);
  EXPECT_EQ(events.front().ts_us, 10);  // the 11th recorded
  EXPECT_EQ(events.back().ts_us, static_cast<std::int64_t>(kRecorded - 1));
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_EQ(events[i].ts_us, events[i - 1].ts_us + 1) << "at " << i;
  }
  const json::Value exported = Tracer::global().to_json();
  EXPECT_EQ(exported.at("traceEvents").as_array().front().at("ts").as_int(),
            10);

  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().size(), 0u);
  EXPECT_EQ(Tracer::global().dropped(), 0);
}

TEST_F(ObsTest, SpansFromMultipleThreadsGetDistinctTids) {
  std::thread a([] { Span span("thread-a"); });
  std::thread b([] { Span span("thread-b"); });
  a.join();
  b.join();
  const std::vector<Tracer::Event> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

}  // namespace
}  // namespace klotski::obs
