// Thread-safe metrics registry: counters, gauges, and histograms backed by
// atomics, so instrumented code can run unchanged on worker threads (the
// sweep pools, the daemon's job workers).
//
// Recording is gated on a process-global enabled flag (set by the tools'
// --metrics-out flag, off by default): a disabled instrument is one relaxed
// atomic load and a predictable branch, so the planner hot paths pay
// near-zero cost when nobody is watching (verified by the BM_* benches).
// Handles returned by Registry::counter()/gauge()/histogram() are stable for
// the registry's lifetime and may be cached across calls and threads.
//
// Metric names are dotted paths, subsystem first: "evaluator.sat_cache_hits",
// "router.group_recomputes", "planner.states_expanded" (see DESIGN.md
// "Observability" for the full catalogue and the thread-invariance contract).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "klotski/json/json.h"

namespace klotski::obs {

/// Process-global metrics switch; all instruments no-op while false.
bool metrics_enabled();
void set_metrics_enabled(bool on);

class Counter {
 public:
  /// Adds `delta` when metrics are enabled; relaxed, monotonic.
  void inc(long long delta = 1) {
    if (!metrics_enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }

  /// Raises the gauge to `v` when larger (high-water marks).
  void set_max(double v) {
    if (!metrics_enabled()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale histogram: bucket i counts observations <= kBucketBounds[i],
/// the last bucket is the +inf overflow. Count/sum/min/max are exact.
class Histogram {
 public:
  static constexpr int kNumBuckets = 20;
  /// Upper bounds: 1e-6 * 4^i for i in [0, kNumBuckets-2], then +inf —
  /// covers microseconds to hours when observing seconds.
  static double bucket_bound(int i);

  void observe(double v);

  long long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  long long bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<long long> buckets_[kNumBuckets] = {};
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Named-instrument registry. Instruments are created on first use and live
/// as long as the registry; lookups are mutex-protected (do them once, at
/// construction time, not per event).
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every instrument's value; registrations (and handles) survive.
  void reset_values();

  /// {"schema": "klotski.metrics.v1", "counters": {...}, "gauges": {...},
  ///  "histograms": {name: {count, sum, min, max, buckets: [{le, count}]}}}.
  /// Names are emitted in sorted order.
  json::Value to_json() const;

  /// End-of-run summary rendered with util::Table ("metric | value" rows,
  /// zero-valued instruments omitted).
  std::string render_table(const std::string& title = "metrics") const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace klotski::obs
