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
// Every check routes the whole demand set (EcmpRouter::assign_all) and
// then scans utilization over the router's ascending touched-circuit list,
// the only circuits that carry load — the same verdict as a full-circuit
// scan, including which violation is reported first. Nothing is cached
// between checks: set_demands and set_max_utilization take effect on the
// next one.
#pragma once

#include <cstdint>
#include <vector>

#include "klotski/constraints/checker.h"
#include "klotski/traffic/ecmp.h"

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

  void set_demands(traffic::DemandSet demands) { demands_ = std::move(demands); }
  const traffic::DemandSet& demands() const { return demands_; }
  const DemandCheckerParams& params() const { return params_; }
  void set_max_utilization(double theta) { params_.max_utilization = theta; }

  /// Peak utilization seen by the most recent check (diagnostics). The
  /// scan stops at the first circuit over theta, so after a theta failure
  /// this is that circuit's utilization or a higher one seen before it.
  double last_max_utilization() const { return last_max_utilization_; }

  /// The true peak utilization of the most recent check's loads, funneling
  /// inflation included: every loaded circuit is scanned, whatever the
  /// verdict. 0 when that check had an unroutable demand. `topo` must be
  /// the topology that check ran on, and neither it nor the router may
  /// have been used or changed since.
  double peak_utilization(const topo::Topology& topo) const;

 private:
  /// Utilization of circuit `c` under loads_, inflated by the funneling
  /// margin when an endpoint is funneled.
  double utilization(const topo::Circuit& c) const;

  traffic::EcmpRouter& router_;
  traffic::DemandSet demands_;
  DemandCheckerParams params_;
  traffic::LoadVector loads_;           // scratch
  std::vector<std::uint8_t> funneled_;  // scratch (per-switch)
  double last_max_utilization_ = 0.0;
};

}  // namespace klotski::constraints
