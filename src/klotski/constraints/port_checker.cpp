#include "klotski/constraints/port_checker.h"

namespace klotski::constraints {

Verdict PortChecker::check(const topo::Topology& topo) {
  for (const topo::Switch& s : topo.switches()) {
    if (!s.present()) continue;
    const int occupied = topo.occupied_ports(s.id);
    if (occupied > s.max_ports) {
      return Verdict::fail("switch " + s.name + " needs " +
                           std::to_string(occupied) + " ports but has " +
                           std::to_string(s.max_ports));
    }
  }
  return Verdict::ok();
}

}  // namespace klotski::constraints
