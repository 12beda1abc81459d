// Demand constraints (Eq. 4-5): every demand must have a path from source to
// target in the intermediate topology, and the utilization of every circuit
// — aggregated over all demands under ECMP — must stay below the bound
// theta, so the network can survive failures and absorb traffic spikes.
//
// The optional funneling margin models the transient congestion of §2.2 /
// §7.2: circuits adjacent to a switch that neighbors drained equipment see
// their load inflated by (1 + margin), approximating the window in which
// sibling circuits have drained but this one has not yet.
//
// Outside a search scope every check routes the whole demand set
// (EcmpRouter::assign_all) and then scans utilization over every loaded
// circuit in id order: the full peak, and the first over-theta circuit as
// the violation.
//
// In a search scope with a quotient whose classes every demand's source
// and target lists cover uniformly, a check routes on the quotient instead
// (traffic::QuotientRouter) and scans utilization per bundle. Its result
// is the fabric's: unroutability is combinatorial, every bundle's
// fixed-point load equals each member circuit's fabric load, and both
// scans compare traffic::utilization() of that integer with theta
// (DESIGN.md §3 "Fixed-point loads"). So both record the same full peak,
// and a theta failure names the smallest-id circuit of the first
// over-theta bundle, which is the fabric's first over-theta circuit.
// Nothing is cached between checks: set_demands and set_max_utilization
// take effect on the next one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "klotski/constraints/checker.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/traffic/quotient.h"

namespace klotski::constraints {

struct DemandCheckerParams {
  /// Maximum utilization rate theta (default 75%, §6.1).
  double max_utilization = 0.75;
  /// Funneling inflation for circuits incident to a switch that also has
  /// drained/absent circuits (0 disables).
  double funneling_margin = 0.0;
};

class DemandChecker : public Checker {
 public:
  /// The router must outlive the checker and be built on the same topology
  /// object that check() will be called with. Several checkers may share
  /// one router.
  DemandChecker(traffic::EcmpRouter& router, traffic::DemandSet demands,
                DemandCheckerParams params = {});

  Verdict check(const topo::Topology& topo) override;
  std::string name() const override { return "demands"; }

  void open_scope(const traffic::Quotient* quotient) override;
  void close_scope() override;

  void set_demands(traffic::DemandSet demands);
  const traffic::DemandSet& demands() const { return demands_; }
  const DemandCheckerParams& params() const { return params_; }
  void set_max_utilization(double theta) { params_.max_utilization = theta; }

  /// The peak utilization of the most recent check's loads, funneling
  /// inflation included, whatever the verdict: every loaded circuit (or
  /// bundle) is scanned, so a theta failure reads the full peak, equal on
  /// the fabric and the quotient. 0 when that check had an unroutable
  /// demand.
  double last_max_utilization() const { return last_max_utilization_; }

 private:
  Verdict check_fabric(const topo::Topology& topo);
  Verdict check_quotient(const topo::Topology& topo);
  /// Binds demands_ to the scope's quotient, or leaves the checker on the
  /// fabric when there is none or the demands split a class.
  void bind_quotient();

  /// 1 + the funneling margin when circuit `c` has a funneled endpoint
  /// under funneled_, else 1.
  double funnel_factor(const topo::Circuit& c) const;
  Verdict over_theta(const topo::Topology& topo, topo::CircuitId id,
                     double util) const;

  traffic::EcmpRouter& router_;
  traffic::DemandSet demands_;
  DemandCheckerParams params_;
  traffic::LoadVector loads_;           // scratch
  std::vector<std::uint8_t> funneled_;  // scratch (per-switch)
  double last_max_utilization_ = 0.0;

  // Search scope: whether one is open, and its quotient router bound to
  // demands_ (null when the checks stay on the fabric).
  bool scoped_ = false;
  const traffic::Quotient* quotient_ = nullptr;
  std::unique_ptr<traffic::QuotientRouter> quotient_router_;
  std::vector<std::uint8_t> class_funneled_;  // scratch (per-class)
};

}  // namespace klotski::constraints
