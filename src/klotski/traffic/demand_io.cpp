#include "klotski/traffic/demand_io.h"

#include <stdexcept>
#include <unordered_map>

#include "klotski/traffic/load.h"

namespace klotski::traffic {

using json::Array;
using json::Object;
using json::Value;

DemandKind demand_kind_from_string(const std::string& text) {
  if (text == "egress") return DemandKind::kEgress;
  if (text == "ingress") return DemandKind::kIngress;
  if (text == "east-west") return DemandKind::kEastWest;
  if (text == "intra-dc") return DemandKind::kIntraDc;
  throw std::invalid_argument("unknown demand kind: " + text);
}

json::Value demands_to_json(const topo::Topology& topo,
                            const DemandSet& demands) {
  Array list;
  for (const Demand& d : demands) {
    Object o;
    o["name"] = d.name;
    o["kind"] = to_string(d.kind);
    o["volume_tbps"] = d.volume_tbps;
    Array sources;
    for (const topo::SwitchId s : d.sources) {
      sources.push_back(topo.sw(s).name);
    }
    o["sources"] = Value(std::move(sources));
    Array targets;
    for (const topo::SwitchId t : d.targets) {
      targets.push_back(topo.sw(t).name);
    }
    o["targets"] = Value(std::move(targets));
    list.push_back(Value(std::move(o)));
  }
  Object root;
  root["demands"] = Value(std::move(list));
  return Value(std::move(root));
}

DemandSet demands_from_json(const topo::Topology& topo,
                            const json::Value& value) {
  // Name lookup once: the matrices reference thousands of RSWs.
  std::unordered_map<std::string, topo::SwitchId> by_name;
  by_name.reserve(topo.num_switches());
  for (const topo::Switch& s : topo.switches()) {
    by_name.emplace(s.name, s.id);
  }
  auto resolve = [&](const std::string& name) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw std::invalid_argument(
          "demands_from_json: unknown switch '" + name + "'");
    }
    return it->second;
  };

  DemandSet demands;
  for (const Value& v : value.at("demands").as_array()) {
    Demand d;
    d.name = v.at("name").as_string();
    d.kind = demand_kind_from_string(v.at("kind").as_string());
    d.volume_tbps =
        checked_volume(v.at("volume_tbps").as_double(),
                       "demands_from_json: demand '" + d.name + "' volume_tbps");
    for (const Value& s : v.at("sources").as_array()) {
      d.sources.push_back(resolve(s.as_string()));
    }
    for (const Value& t : v.at("targets").as_array()) {
      d.targets.push_back(resolve(t.as_string()));
    }
    if (d.sources.empty() || d.targets.empty()) {
      throw std::invalid_argument("demands_from_json: demand '" + d.name +
                                  "' needs sources and targets");
    }
    demands.push_back(std::move(d));
  }
  return demands;
}

}  // namespace klotski::traffic
