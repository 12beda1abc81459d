// Constraint checker interface (the `C*` of Algorithms 1 and 2).
//
// A checker examines one intermediate topology and reports whether it is
// safe. Checkers are stateless with respect to the search (the same topology
// always yields the same verdict), which is what makes the ordering-agnostic
// satisfiability cache of §4.2 sound.
//
// Purity contract: a verdict is a function of the topology's element states
// and the checker's own parameters only — never of earlier checks — which
// is what lets the satisfiability cache answer a count vector it has seen
// before. Out-of-band edits that a verdict depends on but that do not flow
// through the versioned mutators (e.g. rewriting a circuit's capacity or a
// switch's max_ports in place) must be followed by
// Topology::bump_state_version(), so version-keyed state below the checkers
// (the ECMP router's liveness words, and its capacity range check) re-reads
// them.
#pragma once

#include <memory>
#include <string>

#include "klotski/topo/topology.h"

namespace klotski::traffic {
class Quotient;
}

namespace klotski::constraints {

struct Verdict {
  bool satisfied = true;
  /// Human-readable reason for the first violation found (diagnostics for
  /// the operators' trial-and-error loop, §2.3).
  std::string violation;

  static Verdict ok() { return Verdict{}; }
  static Verdict fail(std::string reason) {
    return Verdict{false, std::move(reason)};
  }
};

class Checker {
 public:
  virtual ~Checker() = default;

  /// Checks the current element states of `topo`.
  virtual Verdict check(const topo::Topology& topo) = 0;

  /// Short name for logs and audit reports.
  virtual std::string name() const = 0;

  /// Search scope (DESIGN.md §3 "Quotient checks"). A planner opens one
  /// for the length of one search, and a what-if worker for its sweep
  /// (core::SearchScope). Until close_scope(),
  /// every topology checked is one the search reached from its task's
  /// original state by applying and reverting blocks, so a checker may
  /// answer from `quotient` — the class-level graph of that task, or
  /// nullptr when the search has none — provided every verdict equals the
  /// one it gives outside the scope. The default ignores the scope.
  virtual void open_scope(const traffic::Quotient* /*quotient*/) {}
  virtual void close_scope() {}
};

using CheckerPtr = std::unique_ptr<Checker>;

}  // namespace klotski::constraints
