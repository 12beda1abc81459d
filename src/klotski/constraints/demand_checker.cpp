#include "klotski/constraints/demand_checker.h"

#include <algorithm>

#include "klotski/util/string_util.h"

namespace klotski::constraints {

DemandChecker::DemandChecker(traffic::EcmpRouter& router,
                             traffic::DemandSet demands,
                             DemandCheckerParams params)
    : router_(router), demands_(std::move(demands)), params_(params) {}

Verdict DemandChecker::check(const topo::Topology& topo) {
  loads_.assign(topo.num_circuits() * 2, 0.0);
  last_max_utilization_ = 0.0;

  std::string failed_demand;
  if (!router_.assign_all(demands_, loads_, &failed_demand)) {
    return Verdict::fail("demand " + failed_demand +
                         " has no path in this topology");
  }

  // Funneling inflation: a circuit whose endpoint switch also terminates
  // drained or absent circuits absorbs the traffic its siblings shed during
  // the asynchronous drain transient.
  if (params_.funneling_margin > 0.0) {
    funneled_.assign(topo.num_switches(), 0);
    for (const topo::Circuit& c : topo.circuits()) {
      if (c.state != topo::ElementState::kActive) {
        if (c.a < static_cast<topo::SwitchId>(funneled_.size())) {
          funneled_[static_cast<std::size_t>(c.a)] = 1;
        }
        if (c.b < static_cast<topo::SwitchId>(funneled_.size())) {
          funneled_[static_cast<std::size_t>(c.b)] = 1;
        }
      }
    }
  }

  // Utilization scan over the router's touched-circuit list (ascending
  // ids). loads_ was zeroed above, so the list covers every circuit with
  // non-zero load: the verdict is the full scan's, including which
  // over-theta circuit is reported first.
  for (const topo::CircuitId id : router_.touched_circuits()) {
    const topo::Circuit& c = topo.circuit(id);
    const double util = utilization(c);
    if (util <= 0.0) continue;
    last_max_utilization_ = std::max(last_max_utilization_, util);
    if (util > params_.max_utilization) {
      return Verdict::fail(
          "circuit " + std::to_string(c.id) + " (" + topo.sw(c.a).name +
          " - " + topo.sw(c.b).name + ") at " +
          util::format_double(util * 100.0, 1) + "% > theta " +
          util::format_double(params_.max_utilization * 100.0, 1) + "%");
    }
  }
  return Verdict::ok();
}

double DemandChecker::utilization(const topo::Circuit& c) const {
  const double load = std::max(loads_[static_cast<std::size_t>(c.id) * 2],
                               loads_[static_cast<std::size_t>(c.id) * 2 + 1]);
  if (load <= 0.0) return 0.0;
  double util = load / c.capacity_tbps;
  if (params_.funneling_margin > 0.0 &&
      (funneled_[static_cast<std::size_t>(c.a)] ||
       funneled_[static_cast<std::size_t>(c.b)])) {
    util *= 1.0 + params_.funneling_margin;
  }
  return util;
}

double DemandChecker::peak_utilization(const topo::Topology& topo) const {
  // touched_circuits() is empty after a failed assign_all, so an
  // unroutable check reads 0.
  double peak = 0.0;
  for (const topo::CircuitId id : router_.touched_circuits()) {
    peak = std::max(peak, utilization(topo.circuit(id)));
  }
  return peak;
}

}  // namespace klotski::constraints
