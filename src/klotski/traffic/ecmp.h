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
// set and routes every group in order, each with a fresh BFS in one shared
// scratch. Between calls the router keeps only the CSR arcs and the
// liveness words. The engine is laid out so an assignment only pays for
// what it actually touches:
//
//  * Epoch-stamped scratch — dist/volume validity is a per-switch stamp
//    compared against a per-BFS epoch, so starting a BFS never clears the
//    O(|S|) arrays; only visited switches are written.
//  * Word-packed liveness — "circuit carries traffic" lives in uint64 words
//    (bit per circuit), refreshed by replaying the topology's change
//    journal, so a check after a few element flips touches only their bits.
//  * Flat arc records — the CSR arc inlines the neighbor, the directional
//    load slot, the liveness word/mask, and the circuit's split weight, so
//    BFS and propagation read one contiguous stream instead of chasing
//    Circuit records through the topology.
//  * One division per switch — under plain ECMP every next hop of a switch
//    gets the same share, so propagation divides once per switch, not once
//    per arc.
//  * Sparse group loads — a group's load contribution is a list of
//    (slot, value) pairs in propagation order (each slot is written at most
//    once per group), added into the caller's vector, which also yields the
//    ascending touched-circuit list for utilization scans.
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
  /// Captures the immutable structure (CSR adjacency, inlined capacities).
  /// Element states are read from `topo` at assignment time, so the same
  /// router serves every intermediate topology of a migration. Capacity
  /// edits after construction follow the topology's out-of-band contract:
  /// call Topology::bump_state_version() and the next refresh re-reads them.
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
  /// is out of range (demand_loads) or a load of `loads` would leave int64.
  bool assign(const Demand& demand, LoadVector& loads);

  /// Assigns a whole demand set: groups the demands by target set
  /// (first-occurrence order), routes every group — demands with identical
  /// target sets share one BFS and one merged propagation — and adds the
  /// groups' loads into `loads` (resized if needed). Nothing of `demands`
  /// is kept, so the caller may edit the set freely between calls. Returns
  /// false on the first unroutable demand in group order, reporting its
  /// name via `failed_demand` when non-null; `loads` then holds an
  /// unspecified partial sum. Throws std::invalid_argument, before routing,
  /// when the set leaves the fixed-point range (demand_loads), and when a
  /// load of `loads` would leave int64. The fabric check path: audits,
  /// replan revalidation, and the flat and reconf searches.
  bool assign_all(const DemandSet& demands, LoadVector& loads,
                  std::string* failed_demand = nullptr);

  std::size_t num_switches() const { return num_switches_; }

  /// After a successful assign_all: the ascending-id list of circuits that
  /// call added load to. Lets the DemandChecker's utilization scan visit
  /// only loaded circuits instead of all of them. Empty after a failed
  /// assign_all or any assign().
  const std::vector<topo::CircuitId>& touched_circuits() const {
    return touched_circuits_;
  }

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
  /// One (slot, value) pair of a group's load contribution. Propagation
  /// writes each directional slot at most once per group (a circuit is a
  /// DAG edge in at most one direction), so a group's load vector is exactly
  /// its entry list — no dense scatter needed until summation.
  struct LoadEntry {
    std::uint32_t slot;
    Load value;
  };
  static_assert(sizeof(LoadEntry) == 16, "LoadEntry is two words");

  /// Flat CSR arc record: everything BFS + propagation need, contiguous.
  /// For switch s, its arcs are arcs_[offsets_[s]..offsets_[s+1]).
  struct Arc {
    topo::SwitchId neighbor;
    std::uint32_t fwd_slot;    // load slot for the s -> neighbor direction
    std::uint32_t alive_word;  // index into alive_words_
    std::uint32_t pad_ = 0;
    std::uint64_t alive_mask;  // single-bit mask within alive_word
    std::uint64_t weight;      // kCapacityWeighted split weight (Mbps)
  };
  static_assert(sizeof(topo::SwitchId) == 4, "Arc layout assumes 32-bit ids");

  /// BFS/propagation scratch, shared by every group and assign(). The epoch
  /// stamp makes dist/volume reads self-invalidating: an entry is live iff
  /// stamp[s] == epoch, so a new BFS only bumps the epoch instead of
  /// clearing O(|S|) arrays.
  struct Scratch {
    std::vector<std::int32_t> dist;
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
    std::vector<topo::SwitchId> visit_order;  // ascending distance
    std::vector<Load> volume;                 // per-switch pending volume
    std::vector<std::uint32_t> next_hops;     // per-switch DAG arc scratch

    void init(std::size_t num_switches);
    /// Starts a BFS generation; handles the (rare) epoch wrap.
    void begin_bfs();
    bool reached(topo::SwitchId s) const {
      return stamp[static_cast<std::size_t>(s)] == epoch;
    }
  };

  /// Runs the BFS from the demand's targets into `s`; visited switches get
  /// dist stamped and volume zeroed. Returns the number of visited switches
  /// (0 if no active target).
  std::size_t bfs_from_targets(Scratch& s, const Demand& demand) const;

  /// Injects `volume` (load units) equally at the demand's active sources,
  /// each share rounded up; returns false when an active source is one the
  /// current BFS did not reach.
  bool inject_sources(Scratch& s, const Demand& demand, Load volume) const;

  /// Propagates scratch volume down the current shortest-path DAG, appending
  /// (slot, value) entries to `out` (each slot at most once). Every share
  /// rounds up.
  void propagate(Scratch& s, std::vector<LoadEntry>& out) const;

  /// BFS + inject + propagate for one group of `demands` (load units in
  /// volumes_) into entries_scratch_ (cleared first).
  bool run_group(const DemandSet& demands, const Group& group,
                 std::string* failed_demand);

  /// Adds one group's entries into `loads` and marks their circuits in
  /// touched_words_.
  void add_group(const std::vector<LoadEntry>& entries, LoadVector& loads);

  /// Turns touched_words_ into the ascending touched_circuits_ list and
  /// clears the words for the next call.
  void collect_touched();

  /// Brings the liveness words (and, on full rebuilds, the inlined arc
  /// capacities) up to the topology's current state version: a no-op when
  /// unchanged, a journal replay when the gap is covered, one sequential
  /// pass otherwise.
  void refresh_alive();

  void set_circuit_alive(topo::CircuitId c, bool alive) {
    const std::uint64_t mask = std::uint64_t{1}
                               << (static_cast<std::size_t>(c) & 63);
    if (alive) {
      alive_words_[static_cast<std::size_t>(c) >> 6] |= mask;
    } else {
      alive_words_[static_cast<std::size_t>(c) >> 6] &= ~mask;
    }
  }

  const topo::Topology& topo_;
  SplitMode mode_ = SplitMode::kEqualSplit;
  std::size_t num_switches_ = 0;

  std::vector<std::uint32_t> offsets_;
  std::vector<Arc> arcs_;

  Scratch scratch_;  // the one BFS scratch, sized on first use
  std::vector<LoadEntry> entries_scratch_;  // one group's load contribution
  std::vector<Load> volumes_;               // each demand's load units
  std::vector<std::uint64_t> alive_words_;  // bit c = circuit c carries traffic
  bool alive_valid_ = false;
  std::uint64_t alive_version_ = 0;
  std::vector<topo::Topology::StateChange> changes_scratch_;

  std::vector<std::uint64_t> touched_words_;  // bit c = circuit c loaded
  std::vector<topo::CircuitId> touched_circuits_;  // ascending ids
  long long group_recomputes_ = 0;

  // Global observability counters (metrics.h; no-ops while disabled),
  // summed over every router instance.
  obs::Counter& m_alive_journal_replays_;
  obs::Counter& m_alive_full_rebuilds_;
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
