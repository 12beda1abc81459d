// The search scope a StateEvaluator-based planner opens for one plan() call
// (DESIGN.md §3 "Quotient checks").
//
// Every topology a search checks is the task's original state with some
// blocks applied, so an element's state is a function of its original
// state, its block ops and the count vector. Elements that agree on those,
// on what the demand and port checks read of them (port budgets,
// capacities, demand membership) and, recursively, on their neighborhoods
// take equal states in every topology of the search. SearchScope finds
// them: exact *kinds* from those seeds, 1-WL refinement to the coarsest
// equitable partition over them (migration::refine_colors, the loop
// compute_symmetry runs), then traffic::Quotient::build, which verifies the
// partition exactly. The composite checker gets the quotient for the
// scope's lifetime; its demand and port checks answer from it, everything
// else stays on the fabric.
//
// A discrete partition (every class one switch, as on the flat and reconf
// families) saves nothing, so the scope then hands over no quotient and the
// checks stay on the fabric. Two callers open a scope: plan(), and each
// what-if sweep worker, whose phases are plan prefixes and so states a
// search reaches. Audits, replan revalidation, the chaos invariants and
// phase export check on the fabric; the audit is the independent oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "klotski/constraints/checker.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/traffic/quotient.h"

namespace klotski::core {

/// Exact kinds of a search's elements: equal ids iff the elements agree on
/// every seed (numbered by first occurrence).
struct SearchKinds {
  /// Role, generation, port budget, original state, block ops, and the
  /// occurrences in every demand's source and target lists.
  std::vector<std::uint64_t> switch_kind;
  /// Capacity, original state, block ops.
  std::vector<std::uint64_t> circuit_kind;
};
SearchKinds search_kinds(const StateEvaluator& evaluator);

/// Opens a search scope on `checker` for the object's lifetime.
class SearchScope {
 public:
  SearchScope(const StateEvaluator& evaluator, constraints::Checker& checker);
  ~SearchScope();

  SearchScope(const SearchScope&) = delete;
  SearchScope& operator=(const SearchScope&) = delete;

  /// The quotient the checks route on; null when the search has none.
  const traffic::Quotient* quotient() const {
    return quotient_ ? &*quotient_ : nullptr;
  }

 private:
  constraints::Checker& checker_;
  std::optional<traffic::Quotient> quotient_;
};

}  // namespace klotski::core
