// The DCN graph: switches (nodes) and circuits (edges) with life-cycle
// states, plus the location attributes (dc / pod / plane / grid) that the
// migration layer uses to form symmetry and operation blocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "klotski/topo/switch_types.h"

namespace klotski::topo {

/// Location attributes; -1 means "not applicable" for the role.
struct Location {
  std::int16_t dc = -1;     // building within the region
  std::int16_t pod = -1;    // fabric pod (RSW/FSW)
  std::int16_t plane = -1;  // spine plane (FSW/SSW)
  std::int16_t grid = -1;   // HGRID grid (FADU/FAUU) or MA group

  friend bool operator==(const Location&, const Location&) = default;
};

struct Switch {
  SwitchId id = kInvalidSwitch;
  SwitchRole role = SwitchRole::kRsw;
  Generation gen = Generation::kV1;
  Location loc;
  std::int32_t max_ports = 0;  // hard physical port limit (Eq. 6)
  ElementState state = ElementState::kActive;
  std::string name;  // hierarchical, e.g. "dc0/pod3/fsw2"

  bool present() const { return state != ElementState::kAbsent; }
  bool active() const { return state == ElementState::kActive; }
};

struct Circuit {
  CircuitId id = kInvalidCircuit;
  SwitchId a = kInvalidSwitch;
  SwitchId b = kInvalidSwitch;
  double capacity_tbps = 0.0;  // per direction (full duplex)
  ElementState state = ElementState::kActive;

  bool present() const { return state != ElementState::kAbsent; }

  SwitchId other(SwitchId s) const { return s == a ? b : a; }
};

/// Mutable DCN topology.
///
/// Construction is append-only (ids are dense indexes); migrations only flip
/// ElementStates, so a state snapshot (`TopologyState`) plus the immutable
/// structure fully describes any intermediate topology.
///
/// State changes that go through set_switch_state() / set_circuit_state()
/// (or TopologyState::restore) bump a monotonically increasing version
/// counter. Consumers key what they derive from element states on it: the
/// state evaluator's delta materialization, and the ECMP router's liveness
/// words, rebuilt in one pass whenever the version has moved. Writing
/// `sw(id).state` directly bypasses the counter and is only safe before any
/// such consumer exists (construction-time setup); call bump_state_version()
/// after out-of-band edits (e.g. capacity or port-budget tweaks) to flush
/// downstream caches.
class Topology {
 public:
  /// Adds a switch; returns its id.
  SwitchId add_switch(SwitchRole role, Generation gen, Location loc,
                      std::int32_t max_ports, ElementState state,
                      std::string name);

  /// Adds a circuit between two existing switches; returns its id.
  CircuitId add_circuit(SwitchId a, SwitchId b, double capacity_tbps,
                        ElementState state);

  std::size_t num_switches() const { return switches_.size(); }
  std::size_t num_circuits() const { return circuits_.size(); }

  const Switch& sw(SwitchId id) const { return switches_[id]; }
  Switch& sw(SwitchId id) { return switches_[id]; }
  const Circuit& circuit(CircuitId id) const { return circuits_[id]; }
  Circuit& circuit(CircuitId id) { return circuits_[id]; }

  /// Versioned state mutators: no-ops when the state is unchanged, otherwise
  /// bump state_version().
  void set_switch_state(SwitchId id, ElementState state);
  void set_circuit_state(CircuitId id, ElementState state);

  /// Monotonically increasing counter of element-state changes. Two reads
  /// returning the same value guarantee the element states are unchanged in
  /// between (provided all writers use the versioned mutators).
  std::uint64_t state_version() const { return state_version_; }

  /// Forces a version bump. Use after out-of-band mutations — direct
  /// `.state` writes, capacity or port-budget edits — to invalidate
  /// version-keyed caches.
  void bump_state_version() { ++state_version_; }

  const std::vector<Switch>& switches() const { return switches_; }
  const std::vector<Circuit>& circuits() const { return circuits_; }

  /// Circuits incident to a switch (all states).
  const std::vector<CircuitId>& incident(SwitchId id) const {
    return incident_[id];
  }

  /// True iff the circuit carries traffic: circuit active and both endpoint
  /// switches active.
  bool circuit_carries_traffic(CircuitId id) const;

  /// Packs circuit_carries_traffic for every circuit into 64-bit words
  /// (bit c of out[c / 64] = circuit c carries traffic) in one sequential
  /// pass. `out` is resized to ceil(num_circuits / 64); trailing bits of the
  /// last word are zero. The ECMP router rebuilds its liveness this way
  /// whenever state_version() has moved.
  void liveness_words(std::vector<std::uint64_t>& out) const;

  /// Number of ports occupied on a switch = incident circuits that are
  /// physically present (active or drained).
  int occupied_ports(SwitchId id) const;

  /// Switch ids matching a predicate-free filter (role, optional state).
  std::vector<SwitchId> switches_with_role(SwitchRole role) const;

  /// Aggregate counters.
  std::size_t count_present_switches() const;
  std::size_t count_present_circuits() const;
  std::size_t count_active_circuits() const;

  /// Sum of capacity over circuits currently carrying traffic (Tbps,
  /// one direction).
  double active_capacity_tbps() const;

  /// Looks up a switch by its unique name; returns kInvalidSwitch if absent.
  SwitchId find_switch(const std::string& name) const;

  /// Validates structural invariants (endpoint ids in range, port limits not
  /// exceeded by present circuits, unique names). Returns an error message
  /// or empty string when valid.
  std::string validate() const;

 private:
  std::vector<Switch> switches_;
  std::vector<Circuit> circuits_;
  std::vector<std::vector<CircuitId>> incident_;
  std::uint64_t state_version_ = 0;
};

/// A snapshot of all element states; restoring one onto the owning topology
/// is O(|S|+|C|). Used by the state evaluator to re-materialize intermediate
/// topologies from the compact representation.
struct TopologyState {
  std::vector<ElementState> switch_states;
  std::vector<ElementState> circuit_states;

  static TopologyState capture(const Topology& topo);
  void restore(Topology& topo) const;

  /// Order-sensitive 64-bit digest of all element states. Used by the chaos
  /// engine's trajectory logs: two topologies with equal structure and equal
  /// signatures went through the same intermediate state.
  std::uint64_t signature() const;

  friend bool operator==(const TopologyState&, const TopologyState&) = default;
};

}  // namespace klotski::topo
