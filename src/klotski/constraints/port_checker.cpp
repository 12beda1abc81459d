#include "klotski/constraints/port_checker.h"

namespace klotski::constraints {

Verdict PortChecker::check(const topo::Topology& topo) {
  const auto over_budget = [&](const topo::Switch& s) {
    return s.present() && topo.occupied_ports(s.id) > s.max_ports;
  };
  const auto fail = [&](const topo::Switch& s) {
    return Verdict::fail("switch " + s.name + " needs " +
                         std::to_string(topo.occupied_ports(s.id)) +
                         " ports but has " + std::to_string(s.max_ports));
  };
  if (quotient_ != nullptr && &quotient_->topology() == &topo) {
    const auto classes = static_cast<std::int32_t>(quotient_->num_classes());
    for (std::int32_t cls = 0; cls < classes; ++cls) {
      const topo::Switch& s = topo.sw(quotient_->representative(cls));
      if (over_budget(s)) return fail(s);
    }
    return Verdict::ok();
  }
  for (const topo::Switch& s : topo.switches()) {
    if (over_budget(s)) return fail(s);
  }
  return Verdict::ok();
}

}  // namespace klotski::constraints
