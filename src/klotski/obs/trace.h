// Scoped nested trace spans with wall-clock timing, exportable in Chrome
// trace_event format (chrome://tracing, Perfetto, speedscope all read it).
//
// Usage: `obs::Span span("plan/astar");` — the span measures from
// construction to destruction and records one complete ("ph":"X") event.
// Spans nest lexically; the per-thread nesting depth is recorded in each
// event's args so tests (and humans) can check span structure without
// reconstructing it from timestamps.
//
// Like metrics, tracing is off by default: a disabled Span construction is
// one relaxed atomic load. Recording takes a mutex once per span end — spans
// belong on operational boundaries (a planner run, a pipeline stage, a
// replan round), not in per-state inner loops.
//
// The tracer holds at most Tracer::kCapacity events, so a long-lived
// process (the daemon under --trace-out) cannot grow it without bound: past
// the cap each new span overwrites the oldest one, which is counted in
// Tracer::dropped() and the trace.dropped counter. Exports list the kept
// spans oldest first.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "klotski/json/json.h"

namespace klotski::obs {

/// Process-global tracing switch; Span no-ops while false.
bool trace_enabled();
void set_trace_enabled(bool on);

class Tracer {
 public:
  struct Event {
    std::string name;
    std::int64_t ts_us = 0;   // start, microseconds since process start
    std::int64_t dur_us = 0;  // wall-clock duration
    std::uint32_t tid = 0;    // dense per-process thread number
    std::int32_t depth = 0;   // nesting depth on that thread (0 = outermost)
  };

  /// Events held before the oldest are overwritten.
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;

  static Tracer& global();

  void record(Event event);
  /// Drops every event and zeroes dropped().
  void clear();
  std::size_t size() const;
  /// Events overwritten since the last clear().
  long long dropped() const;
  /// The kept events, oldest first.
  std::vector<Event> events() const;

  /// {"displayTimeUnit": "ms", "traceEvents": [{name, ph: "X", ts, dur,
  ///  pid, tid, args: {depth}}, ...]} — the Chrome trace_event JSON shape.
  json::Value to_json() const;

 private:
  mutable std::mutex mu_;
  /// Grows to kCapacity, then is a ring whose oldest event is at oldest_.
  std::vector<Event> events_;
  std::size_t oldest_ = 0;
  long long dropped_ = 0;
};

/// RAII span; records into Tracer::global() when tracing is enabled at
/// construction time.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::int32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace klotski::obs
