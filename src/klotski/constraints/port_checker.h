// Port constraints (Eq. 6): the number of present circuits terminating on a
// present switch must not exceed the switch's physical port count. Tight
// port budgets are what force "decommission first to free up the ports"
// orderings (§2.3).
//
// Every check scans every present switch; nothing is cached between checks.
#pragma once

#include "klotski/constraints/checker.h"

namespace klotski::constraints {

class PortChecker : public Checker {
 public:
  PortChecker() = default;

  Verdict check(const topo::Topology& topo) override;
  std::string name() const override { return "ports"; }
};

}  // namespace klotski::constraints
