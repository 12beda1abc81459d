#include "klotski/npd/npd_convert.h"

#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "klotski/traffic/load.h"

namespace klotski::npd {

using json::Array;
using json::Object;
using json::Value;

json::Value topology_to_json(const topo::Topology& topo) {
  Object root;
  Array switches;
  for (const topo::Switch& s : topo.switches()) {
    Object o;
    o["name"] = s.name;
    o["role"] = std::string(topo::to_string(s.role));
    o["gen"] = std::string(topo::to_string(s.gen));
    o["state"] = std::string(topo::to_string(s.state));
    o["max_ports"] = s.max_ports;
    Object loc;
    loc["dc"] = static_cast<std::int64_t>(s.loc.dc);
    loc["pod"] = static_cast<std::int64_t>(s.loc.pod);
    loc["plane"] = static_cast<std::int64_t>(s.loc.plane);
    loc["grid"] = static_cast<std::int64_t>(s.loc.grid);
    o["loc"] = Value(std::move(loc));
    switches.push_back(Value(std::move(o)));
  }
  root["switches"] = Value(std::move(switches));

  Array circuits;
  for (const topo::Circuit& c : topo.circuits()) {
    Object o;
    o["a"] = topo.sw(c.a).name;
    o["b"] = topo.sw(c.b).name;
    o["capacity_tbps"] = c.capacity_tbps;
    o["state"] = std::string(topo::to_string(c.state));
    circuits.push_back(Value(std::move(o)));
  }
  root["circuits"] = Value(std::move(circuits));
  return Value(std::move(root));
}

topo::Topology topology_from_json(const json::Value& value) {
  topo::Topology topo;
  std::unordered_map<std::string, topo::SwitchId> by_name;

  for (const Value& v : value.at("switches").as_array()) {
    const std::string name = v.at("name").as_string();
    topo::Location loc;
    if (const Value* l = v.as_object().find("loc")) {
      // -1 is "not applicable" (topo::Location); anything else indexes.
      const auto coordinate = [&](const char* key) {
        return static_cast<std::int16_t>(l->get_int_in(
            key, -1, -1, std::numeric_limits<std::int16_t>::max()));
      };
      loc.dc = coordinate("dc");
      loc.pod = coordinate("pod");
      loc.plane = coordinate("plane");
      loc.grid = coordinate("grid");
    }
    const topo::SwitchId id = topo.add_switch(
        topo::switch_role_from_string(v.at("role").as_string()),
        topo::generation_from_string(v.get_string("gen", "V1")), loc,
        static_cast<std::int32_t>(v.get_int_in(
            "max_ports", 64, 0, std::numeric_limits<std::int32_t>::max())),
        topo::element_state_from_string(v.get_string("state", "active")),
        name);
    if (!by_name.emplace(name, id).second) {
      throw std::invalid_argument("topology_from_json: duplicate switch '" +
                                  name + "'");
    }
  }

  for (const Value& v : value.at("circuits").as_array()) {
    const std::string a = v.at("a").as_string();
    const std::string b = v.at("b").as_string();
    const auto ia = by_name.find(a);
    const auto ib = by_name.find(b);
    if (ia == by_name.end() || ib == by_name.end()) {
      throw std::invalid_argument(
          "topology_from_json: circuit references unknown switch '" +
          (ia == by_name.end() ? a : b) + "'");
    }
    const double capacity = traffic::checked_capacity(
        v.at("capacity_tbps").as_double(),
        "topology_from_json: circuit " + a + " - " + b + " capacity_tbps");
    topo.add_circuit(
        ia->second, ib->second, capacity,
        topo::element_state_from_string(v.get_string("state", "active")));
  }
  return topo;
}

}  // namespace klotski::npd
