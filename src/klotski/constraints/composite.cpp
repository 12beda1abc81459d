#include "klotski/constraints/composite.h"

#include "klotski/obs/metrics.h"

namespace klotski::constraints {

void CompositeChecker::add(CheckerPtr checker) {
  checkers_.push_back(std::move(checker));
}

Verdict CompositeChecker::check(const topo::Topology& topo) {
  ++checks_performed_;
  static obs::Counter& checks =
      obs::Registry::global().counter("checker.composite.checks");
  checks.inc();
  for (const CheckerPtr& checker : checkers_) {
    Verdict verdict = checker->check(topo);
    if (!verdict.satisfied) return verdict;
  }
  return Verdict::ok();
}

void CompositeChecker::open_scope(const traffic::Quotient* quotient) {
  for (const CheckerPtr& checker : checkers_) checker->open_scope(quotient);
}

void CompositeChecker::close_scope() {
  for (const CheckerPtr& checker : checkers_) checker->close_scope();
}

}  // namespace klotski::constraints
