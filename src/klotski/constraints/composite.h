// Composite checker: evaluates cheap structural constraints first (ports,
// space/power), then the expensive demand constraints, short-circuiting on
// the first violation.
#pragma once

#include <vector>

#include "klotski/constraints/checker.h"

namespace klotski::constraints {

class CompositeChecker : public Checker {
 public:
  CompositeChecker() = default;

  /// Takes ownership; checkers run in insertion order.
  void add(CheckerPtr checker);

  Verdict check(const topo::Topology& topo) override;
  std::string name() const override { return "composite"; }

  /// Forwarded to every member.
  void open_scope(const traffic::Quotient* quotient) override;
  void close_scope() override;

  std::size_t size() const { return checkers_.size(); }
  Checker& checker(std::size_t i) { return *checkers_[i]; }

  /// Number of check() invocations on this composite (satisfiability-check
  /// counter used by the evaluation, §6.4).
  long long checks_performed() const { return checks_performed_; }
  void reset_counter() { checks_performed_ = 0; }

 private:
  std::vector<CheckerPtr> checkers_;
  long long checks_performed_ = 0;
};

}  // namespace klotski::constraints
