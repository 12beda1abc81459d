// Port constraints (Eq. 6): the number of present circuits terminating on a
// present switch must not exceed the switch's physical port count. Tight
// port budgets are what force "decommission first to free up the ports"
// orderings (§2.3).
//
// Outside a search scope every check scans every present switch. In a scope
// with a quotient it scans one representative per class: members of a
// class share their state, their port budget and the states of their
// incident circuits and neighbors, and the representative is the class's
// smallest id, so the first violating representative is the first
// violating switch. Nothing is cached between checks.
#pragma once

#include "klotski/constraints/checker.h"
#include "klotski/traffic/quotient.h"

namespace klotski::constraints {

class PortChecker : public Checker {
 public:
  PortChecker() = default;

  Verdict check(const topo::Topology& topo) override;
  std::string name() const override { return "ports"; }

  void open_scope(const traffic::Quotient* quotient) override {
    quotient_ = quotient;
  }
  void close_scope() override { quotient_ = nullptr; }

 private:
  const traffic::Quotient* quotient_ = nullptr;
};

}  // namespace klotski::constraints
