#include "klotski/topo/families.h"

#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "klotski/util/rng.h"

namespace klotski::topo {

std::string to_string(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kClos: return "clos";
    case TopologyFamily::kFlat: return "flat";
    case TopologyFamily::kReconf: return "reconf";
  }
  return "?";
}

TopologyFamily family_from_string(const std::string& text) {
  if (text == "clos") return TopologyFamily::kClos;
  if (text == "flat") return TopologyFamily::kFlat;
  if (text == "reconf") return TopologyFamily::kReconf;
  throw std::invalid_argument("unknown topology family: " + text);
}

std::vector<TopologyFamily> all_families() {
  return {TopologyFamily::kClos, TopologyFamily::kFlat,
          TopologyFamily::kReconf};
}

namespace {

[[noreturn]] void fail(const std::string& builder, const std::string& what) {
  throw std::invalid_argument(builder + ": " + what);
}

/// Assigns max_ports = initial occupancy + slack, the same post-wiring rule
/// build_region applies; tighten_port_budgets re-tightens once a migration
/// also knows the target state.
void size_ports(Topology& topo, int slack) {
  for (std::size_t i = 0; i < topo.num_switches(); ++i) {
    const auto id = static_cast<SwitchId>(i);
    Switch& s = topo.sw(id);
    s.max_ports = topo.occupied_ports(id) + slack;
    if (s.max_ports <= 0) s.max_ports = 1;
  }
}

/// `prefix` followed by `index`, built by appending: GCC 12's -Wrestrict
/// misreads the front insert of `"f" + std::to_string(i)`.
std::string node_name(char prefix, int index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

int ring_distance(int a, int b, int n) {
  const int d = a > b ? a - b : b - a;
  return std::min(d, n - d);
}

}  // namespace

Region build_flat(const FlatParams& p) {
  auto require = [](bool ok, const char* message) {
    if (!ok) fail("build_flat", message);
  };
  require(p.switches >= 4, "switches must be >= 4");
  require(p.switches <= 10000, "switches must be <= 10000");
  require(p.degree >= 2,
          "degree must be >= 2 (the connectivity ring itself); "
          "zero-degree flat graphs are disconnected");
  require(p.degree < p.switches, "degree must be < switches");
  require(p.extra_links >= 0, "extra_links must be >= 0");
  require(p.max_chord_span == 0 ||
              (p.max_chord_span >= 2 && p.max_chord_span <= p.switches / 2),
          "max_chord_span must be 0 (unrestricted) or in [2, switches/2]");
  require(p.cap_tbps > 0.0, "cap_tbps must be > 0");
  require(p.port_slack >= 0, "port_slack must be >= 0");
  // Every round of chords matches at most half the switches; the extra
  // links loop runs extra_links times whether or not a link lands.
  RegionTotal circuits("build_flat", "circuits");
  circuits.add("switches", {p.switches});
  circuits.add("degree", {p.degree - 2, p.switches / 2});
  circuits.add("extra_links", {p.extra_links});

  Region region;
  region.family = TopologyFamily::kFlat;
  region.params.dcs = 1;
  region.params.port_slack_fabric = p.port_slack;
  Topology& topo = region.topo;
  const int n = p.switches;

  constexpr std::int32_t kUnsizedPorts = 1 << 20;
  for (int i = 0; i < n; ++i) {
    Location loc;
    loc.pod = static_cast<std::int16_t>(i);  // ring position, for debugging
    region.mesh_nodes.push_back(
        topo.add_switch(SwitchRole::kFsw, Generation::kV1, loc, kUnsizedPorts,
                        ElementState::kActive, node_name('f', i)));
  }

  // Edge de-duplication: chords never repeat an existing pair, which keeps
  // the degree distribution spread out instead of stacking parallel links.
  std::unordered_set<std::int64_t> edges;
  auto edge_key = [n](int a, int b) {
    return static_cast<std::int64_t>(std::min(a, b)) * n + std::max(a, b);
  };
  auto add_edge = [&](int a, int b) {
    edges.insert(edge_key(a, b));
    topo.add_circuit(region.mesh_nodes[static_cast<std::size_t>(a)],
                     region.mesh_nodes[static_cast<std::size_t>(b)],
                     p.cap_tbps, ElementState::kActive);
  };

  // Hamiltonian ring: connectivity holds no matter where the chords land.
  for (int i = 0; i < n; ++i) add_edge(i, (i + 1) % n);

  util::Rng rng(p.seed);
  const int span = p.max_chord_span > 0 ? p.max_chord_span : n / 2;
  auto admissible = [&](int a, int b) {
    return a != b && ring_distance(a, b, n) >= 2 &&
           ring_distance(a, b, n) <= span && edges.count(edge_key(a, b)) == 0;
  };

  // Chord matchings: each round visits the switches in a fresh seeded order
  // and pairs every still-unmatched switch with a random admissible partner
  // (index offset within the span). A bounded number of probes per switch
  // means some switches stay unmatched in some rounds — deliberate degree
  // irregularity rather than a perfectly regular graph.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int round = 0; round < p.degree - 2; ++round) {
    rng.shuffle(order);
    std::vector<char> matched(static_cast<std::size_t>(n), 0);
    for (const int i : order) {
      if (matched[static_cast<std::size_t>(i)]) continue;
      for (int probe = 0; probe < 8; ++probe) {
        const int offset = static_cast<int>(rng.uniform_int(2, span));
        const int j =
            rng.chance(0.5) ? (i + offset) % n : (i - offset + n) % n;
        if (matched[static_cast<std::size_t>(j)] || !admissible(i, j)) {
          continue;
        }
        add_edge(i, j);
        matched[static_cast<std::size_t>(i)] = 1;
        matched[static_cast<std::size_t>(j)] = 1;
        break;
      }
    }
  }

  // Extra links on top of the matchings: pure degree spread.
  for (int k = 0; k < p.extra_links; ++k) {
    for (int probe = 0; probe < 16; ++probe) {
      const int a = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      const int offset = static_cast<int>(rng.uniform_int(2, span));
      const int b = rng.chance(0.5) ? (a + offset) % n : (a - offset + n) % n;
      if (!admissible(a, b)) continue;
      add_edge(a, b);
      break;
    }
  }

  size_ports(topo, p.port_slack);
  region.fsws.assign(1, region.mesh_nodes);
  region.rsws.resize(1);
  region.ssws.resize(1);
  return region;
}

Region build_reconf(const ReconfParams& p) {
  auto require = [](bool ok, const std::string& message) {
    if (!ok) fail("build_reconf", message);
  };
  require(p.switches >= 4, "switches must be >= 4");
  require(p.switches <= 10000, "switches must be <= 10000");
  require(p.cap_tbps > 0.0, "cap_tbps must be > 0");
  require(p.port_slack >= 0, "port_slack must be >= 0");

  const int n = p.switches;
  auto validate_pattern = [&](const std::vector<int>& strides,
                              const char* which) {
    require(!strides.empty(),
            std::string(which) + " stride pattern must not be empty");
    std::unordered_set<int> seen;
    int g = n;
    for (const int s : strides) {
      require(s >= 1 && s <= n / 2,
              std::string(which) + " strides must be in [1, switches/2]");
      require(seen.insert(s).second,
              std::string(which) + " stride pattern has a duplicate stride");
      g = std::gcd(g, s);
    }
    // A circulant graph is connected iff gcd(n, strides...) == 1; a seed
    // like {2} on an even ring splits into disjoint cycles.
    require(g == 1, std::string(which) + " stride pattern {gcd " +
                        std::to_string(g) +
                        " with the ring size} leaves the mesh disconnected");
  };
  validate_pattern(p.v1_strides, "v1");
  validate_pattern(p.v2_strides, "v2");

  const std::unordered_set<int> v1(p.v1_strides.begin(), p.v1_strides.end());
  const std::unordered_set<int> v2(p.v2_strides.begin(), p.v2_strides.end());
  std::vector<int> strides;
  for (int s = 1; s <= n / 2; ++s) {
    if (v1.count(s) != 0 || v2.count(s) != 0) strides.push_back(s);
  }
  // Stride n/2 on an even ring meets itself halfway around: each of its
  // circuits is emitted once.
  const auto circuits_of = [n](int s) {
    return (n % 2 == 0 && s == n / 2) ? n / 2 : n;
  };
  RegionTotal circuits("build_reconf", "circuits");
  for (const int s : strides) {
    circuits.add(v1.count(s) != 0 ? "v1_strides" : "v2_strides",
                 {circuits_of(s)});
  }

  Region region;
  region.family = TopologyFamily::kReconf;
  region.params.dcs = 1;
  region.params.port_slack_fabric = p.port_slack;
  Topology& topo = region.topo;

  constexpr std::int32_t kUnsizedPorts = 1 << 20;
  for (int i = 0; i < n; ++i) {
    Location loc;
    loc.pod = static_cast<std::int16_t>(i);
    region.mesh_nodes.push_back(
        topo.add_switch(SwitchRole::kFsw, Generation::kV1, loc, kUnsizedPorts,
                        ElementState::kActive, node_name('n', i)));
  }

  for (const int s : strides) {
    MeshStrideCircuits group;
    group.stride = s;
    group.shared = v1.count(s) != 0 && v2.count(s) != 0;
    group.gen = v1.count(s) != 0 ? Generation::kV1 : Generation::kV2;
    const ElementState state = v1.count(s) != 0 ? ElementState::kActive
                                                : ElementState::kAbsent;
    for (int i = 0; i < circuits_of(s); ++i) {
      group.circuits.push_back(topo.add_circuit(
          region.mesh_nodes[static_cast<std::size_t>(i)],
          region.mesh_nodes[static_cast<std::size_t>((i + s) % n)], p.cap_tbps,
          state));
    }
    region.mesh_strides.push_back(std::move(group));
  }

  size_ports(topo, p.port_slack);
  region.fsws.assign(1, region.mesh_nodes);
  region.rsws.resize(1);
  region.ssws.resize(1);
  return region;
}

}  // namespace klotski::topo
