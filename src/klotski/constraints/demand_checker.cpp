#include "klotski/constraints/demand_checker.h"

#include <algorithm>

#include "klotski/obs/metrics.h"
#include "klotski/util/string_util.h"

namespace klotski::constraints {

namespace {

/// Where the checks of a search scope went: quotient + not_applicable ==
/// scoped (klotski_metrics_check asserts it).
struct ScopeCounters {
  obs::Counter& scoped;
  obs::Counter& quotient;
  obs::Counter& not_applicable;

  static ScopeCounters& get() {
    obs::Registry& reg = obs::Registry::global();
    static ScopeCounters counters{
        reg.counter("quotient.scoped_checks"),
        reg.counter("quotient.checks"),
        reg.counter("quotient.fallback_not_applicable")};
    return counters;
  }
};

}  // namespace

DemandChecker::DemandChecker(traffic::EcmpRouter& router,
                             traffic::DemandSet demands,
                             DemandCheckerParams params)
    : router_(router), demands_(std::move(demands)), params_(params) {}

void DemandChecker::open_scope(const traffic::Quotient* quotient) {
  scoped_ = true;
  quotient_ = quotient;
  bind_quotient();
}

void DemandChecker::close_scope() {
  scoped_ = false;
  quotient_ = nullptr;
  quotient_router_.reset();
}

void DemandChecker::set_demands(traffic::DemandSet demands) {
  demands_ = std::move(demands);
  if (scoped_) bind_quotient();
}

void DemandChecker::bind_quotient() {
  quotient_router_.reset();
  if (quotient_ == nullptr) return;
  auto router = std::make_unique<traffic::QuotientRouter>(*quotient_);
  if (router->bind(demands_)) quotient_router_ = std::move(router);
}

Verdict DemandChecker::check(const topo::Topology& topo) {
  if (!scoped_) return check_fabric(topo);
  ScopeCounters& counters = ScopeCounters::get();
  counters.scoped.inc();
  if (quotient_router_ == nullptr || &quotient_->topology() != &topo) {
    counters.not_applicable.inc();
    return check_fabric(topo);
  }
  counters.quotient.inc();
  return check_quotient(topo);
}

Verdict DemandChecker::check_fabric(const topo::Topology& topo) {
  loads_.assign(topo.num_circuits() * 2, 0);
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

  // Utilization scan over every loaded circuit in id order: the full peak,
  // and the first over-theta circuit. A zero load never exceeds theta > 0.
  topo::CircuitId worst = topo::kInvalidCircuit;
  double worst_util = 0.0;
  for (const topo::Circuit& c : topo.circuits()) {
    const auto id = static_cast<std::size_t>(c.id);
    const traffic::Load load = std::max(loads_[id * 2], loads_[id * 2 + 1]);
    if (load == 0) continue;
    const double util =
        traffic::utilization(load, c.capacity_tbps, funnel_factor(c));
    last_max_utilization_ = std::max(last_max_utilization_, util);
    if (worst == topo::kInvalidCircuit && util > params_.max_utilization) {
      worst = c.id;
      worst_util = util;
    }
  }
  if (worst == topo::kInvalidCircuit) return Verdict::ok();
  return over_theta(topo, worst, worst_util);
}

Verdict DemandChecker::check_quotient(const topo::Topology& topo) {
  last_max_utilization_ = 0.0;
  std::string failed_demand;
  if (!quotient_router_->assign_all(router_.split_mode(), &failed_demand)) {
    return Verdict::fail("demand " + failed_demand +
                         " has no path in this topology");
  }

  // Funneling is class-uniform: a bundle's circuits share their state, and
  // every member of a class terminates the same bundles.
  const traffic::Quotient& q = *quotient_;
  const bool funnel = params_.funneling_margin > 0.0;
  if (funnel) {
    class_funneled_.assign(q.num_classes(), 0);
    for (const traffic::Quotient::Bundle& b : q.bundles()) {
      if (topo.circuit(b.rep).state != topo::ElementState::kActive) {
        class_funneled_[static_cast<std::size_t>(b.x)] = 1;
        class_funneled_[static_cast<std::size_t>(b.y)] = 1;
      }
    }
  }

  // The full peak, and the first over-theta bundle: bundles are numbered
  // in the order of their smallest circuit id, and the fabric scan reports
  // the smallest over-theta circuit id first. A bundle's load, capacity and
  // funneling factor are each member circuit's, so the fabric's scan
  // decides every member as this one decides the bundle.
  const std::vector<traffic::Load>& loads = quotient_router_->loads();
  const double theta = params_.max_utilization;
  double peak = 0.0;
  std::size_t worst = q.num_bundles();
  double worst_util = 0.0;
  for (std::size_t b = 0; b < q.num_bundles(); ++b) {
    const traffic::Load load = std::max(loads[2 * b], loads[2 * b + 1]);
    if (load == 0) continue;
    const traffic::Quotient::Bundle& bundle = q.bundles()[b];
    const double factor =
        funnel && (class_funneled_[static_cast<std::size_t>(bundle.x)] ||
                   class_funneled_[static_cast<std::size_t>(bundle.y)])
            ? 1.0 + params_.funneling_margin
            : 1.0;
    const double util =
        traffic::utilization(load, bundle.capacity_tbps, factor);
    peak = std::max(peak, util);
    if (worst == q.num_bundles() && util > theta) {
      worst = b;
      worst_util = util;
    }
  }
  last_max_utilization_ = peak;
  if (worst == q.num_bundles()) return Verdict::ok();
  return over_theta(topo, q.bundles()[worst].rep, worst_util);
}

Verdict DemandChecker::over_theta(const topo::Topology& topo,
                                  topo::CircuitId id, double util) const {
  const topo::Circuit& c = topo.circuit(id);
  return Verdict::fail(
      "circuit " + std::to_string(c.id) + " (" + topo.sw(c.a).name + " - " +
      topo.sw(c.b).name + ") at " + util::format_double(util * 100.0, 1) +
      "% > theta " +
      util::format_double(params_.max_utilization * 100.0, 1) + "%");
}

double DemandChecker::funnel_factor(const topo::Circuit& c) const {
  return params_.funneling_margin > 0.0 &&
                 (funneled_[static_cast<std::size_t>(c.a)] ||
                  funneled_[static_cast<std::size_t>(c.b)])
             ? 1.0 + params_.funneling_margin
             : 1.0;
}

}  // namespace klotski::constraints
