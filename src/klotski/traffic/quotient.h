// The class-level graph a planner's demand and port checks route on while
// it searches (DESIGN.md §3 "Quotient checks").
//
// Input: a partition of the switches into classes, plus a *kind* per switch
// and per circuit — ids that are equal exactly when two elements take the
// same state in every topology the search can reach and look the same to
// the demand and port checks (core/search_scope.cpp derives them from the
// original states, the block ops, the port budgets, the capacities and the
// demand membership). The circuits of one kind between one pair of classes
// form a *bundle*; a class's *arcs* are its bundles seen from one member,
// each with the number of the bundle's circuits that member terminates.
//
// Quotient::build verifies the partition exactly before anything routes on
// it: every member of a class must have its representative's kind and its
// representative's multiset of (bundle, neighbor class). That makes the
// partition equitable, so in every reachable state all members of a class
// share their state, their BFS distance to any demand target set that is a
// union of classes, their injected and transit volume, and every circuit of
// a bundle carries the same directional load. QuotientRouter routes on that
// graph: BFS, injection and propagation over classes, per-circuit loads per
// bundle direction, with the bundle multiplicities standing in for the
// parallel circuits of the fabric. Loads are the fixed-point integers of
// load.h, so a bundle's load equals each member circuit's fabric load
// exactly: where the fabric adds a share m times the quotient adds
// m × share, and integer sums do not depend on order.
//
// Both the router's per-check work and its result are O(classes + arcs) —
// 193 classes and 1,428 arcs for the 1,308 switches and 44,864 directed
// arcs of full-scale Clos D. Element states are read from the class and
// bundle representatives, so a quotient answers only for topologies whose
// classes and bundles are uniform: the states a search reaches from the
// task's original state by applying and reverting blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "klotski/topo/topology.h"
#include "klotski/traffic/demand.h"
#include "klotski/traffic/ecmp.h"

namespace klotski::traffic {

class Quotient {
 public:
  /// The circuits of one kind between class x and class y (x <= y).
  /// Direction 0 is x -> y, direction 1 is y -> x; an intra-class bundle
  /// (x == y) never carries load, since its endpoints share a distance.
  struct Bundle {
    topo::CircuitId rep = topo::kInvalidCircuit;  // smallest circuit id
    std::int32_t x = -1;
    std::int32_t y = -1;
    double capacity_tbps = 0.0;
  };

  /// A bundle seen from one member of a class.
  struct Arc {
    std::int32_t neighbor;  // class at the far end
    std::uint32_t slot;     // 2 * bundle + direction (this class -> neighbor)
    std::uint32_t bundle;
    std::uint32_t here;     // bundle circuits at one member of this class
    std::uint32_t there;    // bundle circuits at one member of the neighbor
    std::uint64_t weight;   // WCMP split weight per circuit (Mbps)
  };

  /// Builds and verifies the quotient of `topo` (which must outlive it).
  /// `class_of` numbers the classes densely by first occurrence in
  /// switch-id order (migration::partition_of does). Returns nullopt when
  /// the inputs disagree in size or the exact verification fails.
  static std::optional<Quotient> build(
      const topo::Topology& topo, const std::vector<std::int32_t>& class_of,
      const std::vector<std::uint64_t>& switch_kind,
      const std::vector<std::uint64_t>& circuit_kind);

  const topo::Topology& topology() const { return *topo_; }

  std::size_t num_classes() const { return rep_.size(); }
  std::size_t num_bundles() const { return bundles_.size(); }
  /// Directed quotient arcs, intra-class ones included.
  std::size_t num_arcs() const { return arcs_.size(); }

  std::int32_t class_of(topo::SwitchId s) const {
    return class_of_[static_cast<std::size_t>(s)];
  }
  /// The smallest member id: classes in index order visit representatives
  /// in ascending switch-id order.
  topo::SwitchId representative(std::int32_t cls) const {
    return rep_[static_cast<std::size_t>(cls)];
  }
  std::uint32_t class_size(std::int32_t cls) const {
    return size_[static_cast<std::size_t>(cls)];
  }
  /// Numbered in ascending order of their smallest circuit id.
  const std::vector<Bundle>& bundles() const { return bundles_; }
  std::uint32_t bundle_of(topo::CircuitId c) const {
    return bundle_of_[static_cast<std::size_t>(c)];
  }

  /// Arcs out of class `cls`: arcs()[arc_begin(cls) .. arc_begin(cls + 1)).
  std::uint32_t arc_begin(std::int32_t cls) const {
    return offsets_[static_cast<std::size_t>(cls)];
  }
  const std::vector<Arc>& arcs() const { return arcs_; }

 private:
  Quotient() = default;

  const topo::Topology* topo_ = nullptr;
  std::vector<std::int32_t> class_of_;
  std::vector<topo::SwitchId> rep_;
  std::vector<std::uint32_t> size_;
  std::vector<Bundle> bundles_;
  std::vector<std::uint32_t> bundle_of_;  // per circuit
  std::vector<std::uint32_t> offsets_;    // CSR over classes
  std::vector<Arc> arcs_;
};

/// The class-level counterpart of EcmpRouter::assign_all.
class QuotientRouter {
 public:
  /// `quotient` must outlive the router.
  explicit QuotientRouter(const Quotient& quotient);

  /// Binds a demand set. Returns false, leaving nothing bound, when some
  /// demand's source or target list is not uniform over the classes: every
  /// member of a class must occur in it equally often, or the members would
  /// not carry equal volumes. Throws std::invalid_argument when the set
  /// leaves the fixed-point range, as EcmpRouter::assign_all does.
  bool bind(const DemandSet& demands);

  /// Routes the bound demands on the current element states, grouped by
  /// target set in first-occurrence order as EcmpRouter::assign_all groups
  /// them. loads() then holds each bundle direction's per-circuit load.
  /// Returns false on the first unroutable demand in the fabric router's
  /// order, naming it via `failed_demand` when non-null.
  bool assign_all(SplitMode mode, std::string* failed_demand = nullptr);

  /// Index 2 * bundle + direction: the load of every circuit of the bundle
  /// in that direction, equal to the fabric router's.
  const std::vector<Load>& loads() const { return loads_; }

 private:
  /// One source class of a demand: `count` occurrences per member.
  struct SourceClass {
    std::int32_t cls;
    std::uint32_t count;
  };
  struct BoundDemand {
    const std::string* name;
    Load volume;
    std::vector<SourceClass> sources;
  };
  struct BoundGroup {
    std::vector<std::int32_t> targets;  // ascending classes
    std::vector<BoundDemand> demands;
  };

  /// Per-member occurrence count of each class in `members`, as
  /// (class, count) pairs in ascending class order; false when some class
  /// is only partly covered.
  bool uniform_classes(const std::vector<topo::SwitchId>& members,
                       std::vector<SourceClass>& out);

  const Quotient& q_;
  std::vector<BoundGroup> groups_;
  std::vector<Load> loads_;
  // Per-check scratch.
  std::vector<std::uint8_t> active_;  // per class
  std::vector<std::uint8_t> alive_;   // per bundle
  std::vector<std::int32_t> dist_;    // per class, -1 = unreached
  std::vector<Load> volume_;          // per class, per member
  std::vector<std::int32_t> visit_order_;
  std::vector<std::uint32_t> next_hops_;
  // uniform_classes scratch, zero between calls.
  std::vector<std::uint32_t> switch_count_;   // per switch: occurrences
  std::vector<std::uint32_t> class_count_;    // per class: member count
  std::vector<std::uint32_t> class_members_;  // per class: distinct members
};

}  // namespace klotski::traffic
