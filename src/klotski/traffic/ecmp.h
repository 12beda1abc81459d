// ECMP traffic assignment over the active topology (§5: "we focus on
// macro-scale network behavior ... we use the equal-cost multi-path routing
// policy").
//
// For one demand, the router runs a multi-source BFS from the demand's
// active targets over traffic-carrying circuits, which yields the
// shortest-path DAG (circuits from a switch at distance k to a neighbor at
// distance k-1). The demand volume is injected equally across active source
// switches and propagated down the DAG, split equally across a switch's
// outgoing DAG circuits — ECMP is deliberately capacity-blind, exactly the
// property behind the HGRID V1/V2 outage described in §7.1. Volumes and
// loads are fixed-point integers (load.h); every share rounds up.
//
// One assignment is Theta(|S| + |C|), matching the satisfiability-check
// cost in Theorems 1 and 2. Every assign_all groups the demands by target
// set and routes every group in order: a BFS that resets dist for every
// switch, injection, and a propagation that adds each share straight into
// the caller's loads. Between calls the router keeps only the CSR arcs and
// the liveness words, bit c set when circuit c carries traffic, rebuilt in
// one Topology::liveness_words pass whenever the topology's state version
// has moved. Under plain ECMP every next hop of a switch gets the same
// share, so propagation divides once per switch, not once per arc; under
// WCMP the split weight is read from the circuit's capacity as it
// propagates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "klotski/obs/metrics.h"
#include "klotski/topo/topology.h"
#include "klotski/traffic/demand.h"
#include "klotski/traffic/load.h"

namespace klotski::traffic {

/// How a switch splits traffic over its equal-cost next hops.
///
///  * kEqualSplit       — plain ECMP: equal share per circuit, regardless of
///                        capacity. The production default, and the cause of
///                        the §7.1 outage: a low-capacity next hop receives
///                        the same share as a high-capacity one.
///  * kCapacityWeighted — weighted ECMP (WCMP): share proportional to
///                        circuit capacity. Models the "temporary routing
///                        configurations to balance the traffic between
///                        HGRID V1 and V2" that operators create (§7.1);
///                        Klotski is being extended toward such flexible
///                        routing configurations.
enum class SplitMode : std::uint8_t { kEqualSplit, kCapacityWeighted };

class EcmpRouter {
 public:
  /// Captures the immutable structure (CSR adjacency) and range-checks
  /// every capacity. Element states and capacities are read from `topo` at
  /// assignment time, so the same router serves every intermediate topology
  /// of a migration. State and capacity edits that bypass the versioned
  /// mutators follow the topology's out-of-band contract: call
  /// Topology::bump_state_version(), and the next call re-reads liveness and
  /// range-checks the capacities again.
  explicit EcmpRouter(const topo::Topology& topo,
                      SplitMode mode = SplitMode::kEqualSplit);

  EcmpRouter(const EcmpRouter&) = delete;
  EcmpRouter& operator=(const EcmpRouter&) = delete;

  SplitMode split_mode() const { return mode_; }
  void set_split_mode(SplitMode mode) { mode_ = mode; }

  /// Adds this demand's circuit loads into `loads` (resized if needed).
  /// Returns false — without touching `loads` beyond possible resizing —
  /// when the demand is unroutable: no active target, or some active source
  /// cannot reach any target. Throws std::invalid_argument when the volume
  /// or a capacity is out of range (demand_loads, the constructor) or a
  /// load of `loads` would leave int64.
  bool assign(const Demand& demand, LoadVector& loads);

  /// Assigns a whole demand set: groups the demands by target set
  /// (first-occurrence order), routes every group — demands with identical
  /// target sets share one BFS and one merged propagation — and adds the
  /// groups' loads into `loads` (resized if needed). Nothing of `demands`
  /// is kept, so the caller may edit the set freely between calls. Returns
  /// false on the first unroutable demand in group order, reporting its
  /// name via `failed_demand` when non-null; `loads` then holds an
  /// unspecified partial sum. Throws std::invalid_argument, before routing,
  /// when the set leaves the fixed-point range (demand_loads) or a capacity
  /// does (see the constructor), and when a load of `loads` would leave
  /// int64. The fabric check path: audits, replan revalidation, and the
  /// flat and reconf searches.
  bool assign_all(const DemandSet& demands, LoadVector& loads,
                  std::string* failed_demand = nullptr);

  std::size_t num_switches() const { return num_switches_; }

  /// Demand indices of one target-set group.
  using Group = std::vector<std::uint32_t>;

  /// Groups demand indices by identical target sets, first-occurrence order
  /// (the grouping assign_all routes in; QuotientRouter binds the same).
  static std::vector<Group> group_by_targets(const DemandSet& demands);

  /// Demand groups routed by assign_all, summed over calls: every group of
  /// every successful call, and the groups up to and including the first
  /// failing one otherwise.
  long long group_recomputes() const { return group_recomputes_; }

 private:
  /// CSR arc record. For switch s, its arcs are
  /// arcs_[offsets_[s]..offsets_[s+1]); the circuit is fwd_slot >> 1.
  struct Arc {
    topo::SwitchId neighbor;
    std::uint32_t fwd_slot;  // load slot for the s -> neighbor direction
  };
  static_assert(sizeof(Arc) == 8, "Arc is two 32-bit words");

  bool alive(const Arc& arc) const {
    const std::uint32_t c = arc.fwd_slot >> 1;
    return (alive_words_[c >> 6] >> (c & 63)) & 1;
  }

  /// Runs the BFS from the demand's active targets: dist_ holds every
  /// switch's distance (-1 = unreached), visit_order_ the reached switches
  /// in ascending distance with volume_ zeroed. Returns false when no
  /// target is active.
  bool bfs_from_targets(const Demand& demand);

  /// Injects `volume` (load units) equally at the demand's active sources,
  /// each share rounded up; returns false when an active source is one the
  /// current BFS did not reach.
  bool inject_sources(const Demand& demand, Load volume);

  /// Propagates volume_ down the current shortest-path DAG, adding every
  /// share (rounded up) into `loads` (add_load).
  void propagate(LoadVector& loads);

  /// Brings the liveness words up to the topology's current state version:
  /// a no-op when unchanged, otherwise one Topology::liveness_words pass
  /// plus the capacity range check.
  void refresh_alive();

  const topo::Topology& topo_;
  SplitMode mode_ = SplitMode::kEqualSplit;
  std::size_t num_switches_ = 0;

  std::vector<std::uint32_t> offsets_;
  std::vector<Arc> arcs_;

  std::vector<std::uint64_t> alive_words_;  // bit c = circuit c carries traffic
  bool alive_valid_ = false;
  std::uint64_t alive_version_ = 0;

  // Per-call scratch.
  std::vector<Load> volumes_;                // each demand's load units
  std::vector<std::int32_t> dist_;           // per switch, -1 = unreached
  std::vector<Load> volume_;                 // per switch, pending volume
  std::vector<topo::SwitchId> visit_order_;  // ascending distance
  std::vector<std::uint32_t> next_hops_;     // one switch's DAG arcs

  long long group_recomputes_ = 0;

  // Global observability counters (metrics.h; no-ops while disabled),
  // summed over every router instance.
  obs::Counter& m_alive_refreshes_;
  obs::Counter& m_group_recomputes_;
};

/// Maximum utilization over circuits given directional loads; utilization of
/// a circuit is max(direction loads) / capacity (traffic::utilization).
/// Returns 0 for an empty topology. Circuits not carrying traffic but with
/// non-zero load would be a router bug; they are ignored here.
double max_utilization(const topo::Topology& topo, const LoadVector& loads);

/// Worst circuit (id, utilization); id = kInvalidCircuit when no circuit is
/// loaded.
struct WorstCircuit {
  topo::CircuitId circuit = topo::kInvalidCircuit;
  double utilization = 0.0;
};
WorstCircuit worst_circuit(const topo::Topology& topo, const LoadVector& loads);

}  // namespace klotski::traffic
