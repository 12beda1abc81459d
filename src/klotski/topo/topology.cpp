#include "klotski/topo/topology.h"

#include <stdexcept>
#include <unordered_map>

#include "klotski/util/hash.h"

namespace klotski::topo {

std::string_view to_string(SwitchRole role) {
  switch (role) {
    case SwitchRole::kRsw: return "RSW";
    case SwitchRole::kFsw: return "FSW";
    case SwitchRole::kSsw: return "SSW";
    case SwitchRole::kFadu: return "FADU";
    case SwitchRole::kFauu: return "FAUU";
    case SwitchRole::kMa: return "MA";
    case SwitchRole::kEb: return "EB";
    case SwitchRole::kDr: return "DR";
    case SwitchRole::kEbb: return "EBB";
  }
  return "?";
}

std::string_view to_string(Generation gen) {
  return gen == Generation::kV1 ? "V1" : "V2";
}

std::string_view to_string(ElementState state) {
  switch (state) {
    case ElementState::kActive: return "active";
    case ElementState::kDrained: return "drained";
    case ElementState::kAbsent: return "absent";
  }
  return "?";
}

SwitchRole switch_role_from_string(std::string_view text) {
  for (int r = 0; r < kNumSwitchRoles; ++r) {
    const auto role = static_cast<SwitchRole>(r);
    if (to_string(role) == text) return role;
  }
  throw std::invalid_argument("unknown switch role: " + std::string(text));
}

Generation generation_from_string(std::string_view text) {
  if (text == "V1") return Generation::kV1;
  if (text == "V2") return Generation::kV2;
  throw std::invalid_argument("unknown generation: " + std::string(text));
}

ElementState element_state_from_string(std::string_view text) {
  if (text == "active") return ElementState::kActive;
  if (text == "drained") return ElementState::kDrained;
  if (text == "absent") return ElementState::kAbsent;
  throw std::invalid_argument("unknown element state: " + std::string(text));
}

SwitchId Topology::add_switch(SwitchRole role, Generation gen, Location loc,
                              std::int32_t max_ports, ElementState state,
                              std::string name) {
  const auto id = static_cast<SwitchId>(switches_.size());
  switches_.push_back(Switch{id, role, gen, loc, max_ports, state,
                             std::move(name)});
  incident_.emplace_back();
  // Structural growth invalidates version-keyed caches: sizes change.
  bump_state_version();
  return id;
}

CircuitId Topology::add_circuit(SwitchId a, SwitchId b, double capacity_tbps,
                                ElementState state) {
  if (a < 0 || b < 0 || a >= static_cast<SwitchId>(switches_.size()) ||
      b >= static_cast<SwitchId>(switches_.size())) {
    throw std::out_of_range("add_circuit: endpoint id out of range");
  }
  if (a == b) {
    throw std::invalid_argument("add_circuit: self loops are not allowed");
  }
  const auto id = static_cast<CircuitId>(circuits_.size());
  circuits_.push_back(Circuit{id, a, b, capacity_tbps, state});
  incident_[a].push_back(id);
  incident_[b].push_back(id);
  bump_state_version();
  return id;
}

void Topology::set_switch_state(SwitchId id, ElementState state) {
  Switch& s = switches_[id];
  if (s.state == state) return;
  s.state = state;
  ++state_version_;
}

void Topology::set_circuit_state(CircuitId id, ElementState state) {
  Circuit& c = circuits_[id];
  if (c.state == state) return;
  c.state = state;
  ++state_version_;
}

bool Topology::circuit_carries_traffic(CircuitId id) const {
  const Circuit& c = circuits_[id];
  return c.state == ElementState::kActive && switches_[c.a].active() &&
         switches_[c.b].active();
}

void Topology::liveness_words(std::vector<std::uint64_t>& out) const {
  out.assign((circuits_.size() + 63) / 64, 0);
  for (const Circuit& c : circuits_) {
    if (c.state == ElementState::kActive && switches_[c.a].active() &&
        switches_[c.b].active()) {
      out[static_cast<std::size_t>(c.id) >> 6] |=
          std::uint64_t{1} << (static_cast<std::size_t>(c.id) & 63);
    }
  }
}

int Topology::occupied_ports(SwitchId id) const {
  int count = 0;
  for (const CircuitId cid : incident_[id]) {
    const Circuit& c = circuits_[cid];
    // A present circuit occupies a port on both endpoints, but only if the
    // far-end switch is installed (staged circuits to absent switches have
    // not been wired yet).
    if (c.present() && switches_[c.other(id)].present()) ++count;
  }
  return count;
}

std::vector<SwitchId> Topology::switches_with_role(SwitchRole role) const {
  std::vector<SwitchId> out;
  for (const Switch& s : switches_) {
    if (s.role == role) out.push_back(s.id);
  }
  return out;
}

std::size_t Topology::count_present_switches() const {
  std::size_t n = 0;
  for (const Switch& s : switches_) n += s.present() ? 1 : 0;
  return n;
}

std::size_t Topology::count_present_circuits() const {
  std::size_t n = 0;
  for (const Circuit& c : circuits_) n += c.present() ? 1 : 0;
  return n;
}

std::size_t Topology::count_active_circuits() const {
  std::size_t n = 0;
  for (const Circuit& c : circuits_) {
    n += circuit_carries_traffic(c.id) ? 1 : 0;
  }
  return n;
}

double Topology::active_capacity_tbps() const {
  double total = 0.0;
  for (const Circuit& c : circuits_) {
    if (circuit_carries_traffic(c.id)) total += c.capacity_tbps;
  }
  return total;
}

SwitchId Topology::find_switch(const std::string& name) const {
  for (const Switch& s : switches_) {
    if (s.name == name) return s.id;
  }
  return kInvalidSwitch;
}

std::string Topology::validate() const {
  std::unordered_map<std::string, int> names;
  for (const Switch& s : switches_) {
    if (s.max_ports <= 0) {
      return "switch " + s.name + " has non-positive max_ports";
    }
    if (++names[s.name] > 1) {
      return "duplicate switch name: " + s.name;
    }
  }
  for (const Circuit& c : circuits_) {
    if (c.a < 0 || c.b < 0 ||
        c.a >= static_cast<SwitchId>(switches_.size()) ||
        c.b >= static_cast<SwitchId>(switches_.size())) {
      return "circuit " + std::to_string(c.id) + " has invalid endpoints";
    }
    if (c.capacity_tbps <= 0.0) {
      return "circuit " + std::to_string(c.id) + " has non-positive capacity";
    }
  }
  for (const Switch& s : switches_) {
    if (!s.present()) continue;
    if (occupied_ports(s.id) > s.max_ports) {
      return "switch " + s.name + " exceeds its port budget: " +
             std::to_string(occupied_ports(s.id)) + " > " +
             std::to_string(s.max_ports);
    }
  }
  return "";
}

TopologyState TopologyState::capture(const Topology& topo) {
  TopologyState state;
  state.switch_states.reserve(topo.num_switches());
  for (const Switch& s : topo.switches()) state.switch_states.push_back(s.state);
  state.circuit_states.reserve(topo.num_circuits());
  for (const Circuit& c : topo.circuits()) {
    state.circuit_states.push_back(c.state);
  }
  return state;
}

void TopologyState::restore(Topology& topo) const {
  if (switch_states.size() != topo.num_switches() ||
      circuit_states.size() != topo.num_circuits()) {
    throw std::invalid_argument(
        "TopologyState::restore: snapshot does not match topology shape");
  }
  // Versioned setters so restores invalidate version-keyed caches; a
  // restore that changes nothing leaves the version alone.
  for (std::size_t i = 0; i < switch_states.size(); ++i) {
    topo.set_switch_state(static_cast<SwitchId>(i), switch_states[i]);
  }
  for (std::size_t i = 0; i < circuit_states.size(); ++i) {
    topo.set_circuit_state(static_cast<CircuitId>(i), circuit_states[i]);
  }
}

std::uint64_t TopologyState::signature() const {
  std::uint64_t h = util::hash_combine(0x1234'5678'9ABC'DEF0ULL,
                                       switch_states.size());
  for (const ElementState s : switch_states) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(s));
  }
  h = util::hash_combine(h, circuit_states.size());
  for (const ElementState s : circuit_states) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(s));
  }
  return h;
}

}  // namespace klotski::topo
