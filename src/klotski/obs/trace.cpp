#include "klotski/obs/trace.h"

#include <algorithm>
#include <iterator>

#include "klotski/obs/metrics.h"

namespace klotski::obs {

namespace {
std::atomic<bool> g_trace_enabled{false};

std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

thread_local std::int32_t t_depth = 0;

std::int64_t micros_since(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - from)
      .count();
}
}  // namespace

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  process_epoch();  // pin the epoch no later than enablement
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // intentionally leaked
  return *instance;
}

void Tracer::record(Event event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < kCapacity) {
      events_.push_back(std::move(event));
      return;
    }
    events_[oldest_] = std::move(event);
    oldest_ = (oldest_ + 1) % kCapacity;
    ++dropped_;
  }
  static Counter& dropped_counter = Registry::global().counter("trace.dropped");
  dropped_counter.inc();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  oldest_ = 0;
  dropped_ = 0;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

long long Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Tracer::Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(events_.size());
  std::rotate_copy(events_.begin(),
                   events_.begin() + static_cast<std::ptrdiff_t>(oldest_),
                   events_.end(), std::back_inserter(out));
  return out;
}

json::Value Tracer::to_json() const {
  json::Object root;
  root["displayTimeUnit"] = json::Value(std::string("ms"));
  json::Array events;
  for (const Event& e : this->events()) {
    json::Object entry;
    entry["name"] = json::Value(e.name);
    entry["ph"] = json::Value(std::string("X"));
    entry["ts"] = json::Value(static_cast<std::int64_t>(e.ts_us));
    entry["dur"] = json::Value(static_cast<std::int64_t>(e.dur_us));
    entry["pid"] = json::Value(static_cast<std::int64_t>(1));
    entry["tid"] = json::Value(static_cast<std::int64_t>(e.tid));
    json::Object args;
    args["depth"] = json::Value(static_cast<std::int64_t>(e.depth));
    entry["args"] = json::Value(std::move(args));
    events.push_back(json::Value(std::move(entry)));
  }
  root["traceEvents"] = json::Value(std::move(events));
  return json::Value(std::move(root));
}

Span::Span(std::string name) {
  if (!trace_enabled()) return;
  active_ = true;
  name_ = std::move(name);
  depth_ = t_depth++;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  --t_depth;
  Tracer::Event event;
  event.name = std::move(name_);
  event.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    start_ - process_epoch())
                    .count();
  event.dur_us = micros_since(start_);
  event.tid = current_tid();
  event.depth = depth_;
  Tracer::global().record(std::move(event));
}

}  // namespace klotski::obs
