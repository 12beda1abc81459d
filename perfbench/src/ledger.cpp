#include "ledger.h"

#include <fstream>
#include <stdexcept>

#include "klotski/json/json.h"

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last (parent links).
thread_local std::vector<int> t_open;

}  // namespace

const char* Recorder::intern(std::string_view name) {
  for (const std::string& known : names_) {
    if (known == name) return known.c_str();
  }
  names_.emplace_back(name);
  return names_.back().c_str();
}

int Recorder::begin(std::string_view name, long long rid) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = intern(name);
  span.rid = rid;
  span.parent = t_open.empty() ? -1 : t_open.back();
  const int index = static_cast<int>(spans_.size());
  t_open.push_back(index);
  span.start = Clock::now();
  spans_.push_back(span);
  return index;
}

void Recorder::end(int index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = now;
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

double Recorder::total_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += ms_between(s.start, s.end);
  }
  return sum;
}

long long Recorder::count(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  long long n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ++n;
  }
  return n;
}

double Recorder::child_ms(std::string_view parent,
                          std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 || std::string_view(s.name).substr(0, prefix.size()) !=
                            prefix) {
      continue;
    }
    if (parent == spans_[static_cast<std::size_t>(s.parent)].name) {
      sum += ms_between(s.start, s.end);
    }
  }
  return sum;
}

std::size_t Recorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Recorder::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (const Span& s : spans_) {
    klotski::json::Object row;
    row["rid"] = static_cast<std::int64_t>(s.rid);
    row["name"] = s.name;
    row["parent"] = s.parent;
    row["start_us"] =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    row["dur_us"] =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << klotski::json::dump(klotski::json::Value(std::move(row))) << "\n";
  }
}

klotski::constraints::Verdict TracedComposite::check(
    const klotski::topo::Topology& topo) {
  klotski::constraints::Verdict verdict = CompositeChecker::check(topo);
  if (verdict.satisfied) ++passed_;
  return verdict;
}

namespace {

class TracedChecker final : public klotski::constraints::Checker {
 public:
  TracedChecker(klotski::constraints::Checker& inner, Recorder* rec,
                const long long& rid)
      : inner_(inner), rec_(rec), rid_(rid),
        span_name_("constraints." + inner.name()) {}

  klotski::constraints::Verdict check(
      const klotski::topo::Topology& topo) override {
    ScopedSpan span(rec_, span_name_, rid_);
    return inner_.check(topo);
  }
  std::string name() const override { return inner_.name(); }

 private:
  klotski::constraints::Checker& inner_;
  Recorder* rec_;
  const long long& rid_;
  std::string span_name_;
};

}  // namespace

std::unique_ptr<TracedComposite> traced_composite(
    klotski::constraints::CompositeChecker& inner, Recorder* rec,
    const long long& rid) {
  auto out = std::make_unique<TracedComposite>();
  for (std::size_t i = 0; i < inner.size(); ++i) {
    out->add(std::make_unique<TracedChecker>(inner.checker(i), rec, rid));
  }
  return out;
}

klotski::core::Plan TracedPlanner::plan(
    klotski::migration::MigrationTask& task,
    klotski::constraints::CompositeChecker& checker,
    const klotski::core::PlannerOptions& options) {
  ++calls;
  ScopedSpan span(rec_, "core.plan", rid_);
  klotski::core::Plan plan = inner_.plan(task, checker, options);
  totals.visited_states += plan.stats.visited_states;
  totals.sat_checks += plan.stats.sat_checks;
  totals.cache_hits += plan.stats.cache_hits;
  totals.evaluations += plan.stats.evaluations;
  return plan;
}

}  // namespace perfbench
