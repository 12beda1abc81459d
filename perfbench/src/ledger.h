// Span recorder and layer decorators for the traced benchmark run.
//
// The benchmark times the calls it makes into each layer from its own
// files: a Recorder keeps every span in memory (name, request id, parent,
// start, end) and writes them out when the run ends. Spans inside the
// planner come from forwarding decorators that wrap the program's own
// objects without changing their behaviour:
//
//   TracedComposite  a CompositeChecker whose members forward to the
//                    checkers make_standard_checker built, in the same order,
//                    each check timed as "constraints.<checker name>";
//   TracedPlanner    a core::Planner that forwards plan() and accumulates the
//                    returned search statistics.
//
// A null Recorder turns every span into a no-op, which is how the untraced
// half of a run uses the same code.
#pragma once

#include <chrono>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "klotski/constraints/composite.h"
#include "klotski/core/planner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  long long rid = 0;  // request id: the operation the span belongs to
  int parent = -1;    // index of the enclosing span on the same thread
  Clock::time_point start;
  Clock::time_point end;
};

class Recorder {
 public:
  /// Opens a span on the calling thread and returns its index.
  int begin(std::string_view name, long long rid);
  void end(int index);

  /// Sum of the durations of every span called `name`, and their number.
  double total_ms(std::string_view name) const;
  long long count(std::string_view name) const;
  /// Sum of the durations of spans whose name starts with `prefix` and whose
  /// parent is called `parent` (the children that make up a span).
  double child_ms(std::string_view parent, std::string_view prefix) const;

  std::size_t size() const;
  /// One JSON object per line: {"rid","name","parent","start_us","dur_us"}.
  void write_jsonl(const std::string& path) const;

 private:
  const char* intern(std::string_view name);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::deque<std::string> names_;  // stable storage behind Span::name
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a no-op when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, std::string_view name, long long rid)
      : rec_(rec), index_(rec != nullptr ? rec->begin(name, rid) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* rec_;
  int index_;
};

/// Counts passed and performed checks on top of the base composite.
class TracedComposite final : public klotski::constraints::CompositeChecker {
 public:
  klotski::constraints::Verdict check(
      const klotski::topo::Topology& topo) override;
  long long passed() const { return passed_; }

 private:
  long long passed_ = 0;
};

/// Wraps every member of `inner` (which must outlive the result) in a
/// forwarding checker that records one span per check, keeping the order.
/// `rid` is read at each check, so the caller can advance it between
/// operations.
std::unique_ptr<TracedComposite> traced_composite(
    klotski::constraints::CompositeChecker& inner, Recorder* rec,
    const long long& rid);

/// Forwards plan() to `inner`, recording a "core.plan" span per call and
/// summing the search statistics of every plan it returns.
class TracedPlanner final : public klotski::core::Planner {
 public:
  TracedPlanner(klotski::core::Planner& inner, Recorder* rec,
                const long long& rid)
      : inner_(inner), rec_(rec), rid_(rid) {}

  std::string name() const override { return inner_.name(); }
  klotski::core::Plan plan(klotski::migration::MigrationTask& task,
                           klotski::constraints::CompositeChecker& checker,
                           const klotski::core::PlannerOptions& options) override;

  long long calls = 0;
  klotski::core::PlannerStats totals;

 private:
  klotski::core::Planner& inner_;
  Recorder* rec_;
  const long long& rid_;
};

}  // namespace perfbench
