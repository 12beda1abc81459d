#include "klotski/topo/builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace klotski::topo {

namespace {

std::string name_of(const std::string& prefix, int index) {
  return prefix + std::to_string(index);
}

void validate_params(const RegionParams& p) {
  auto require = [](bool ok, const std::string& message) {
    if (!ok) throw std::invalid_argument("build_region: " + message);
  };
  require(p.dcs >= 1, "dcs must be >= 1");
  require(!p.fabrics.empty(), "at least one FabricParams entry is required");
  for (const FabricParams& f : p.fabrics) {
    require(f.pods >= 1, "pods must be >= 1");
    require(f.rsws_per_pod >= 1, "rsws_per_pod must be >= 1");
    require(f.planes >= 1, "planes must be >= 1");
    require(f.ssws_per_plane >= 1, "ssws_per_plane must be >= 1");
    require(f.rsw_fsw_links >= 1, "rsw_fsw_links must be >= 1");
  }
  require(p.grids >= 1, "grids must be >= 1");
  require(p.fadus_per_grid_per_dc >= 1, "fadus_per_grid_per_dc must be >= 1");
  require(p.fauus_per_grid >= 1, "fauus_per_grid must be >= 1");
  require(p.ebs >= 1, "ebs must be >= 1");
  require(p.drs >= 1, "drs must be >= 1");
  require(p.ebbs >= 1, "ebbs must be >= 1");
  // Degenerate hardware parameters produce regions that only fail deep
  // inside the demand checker ("no path" / zero-capacity layers); reject
  // them here with a nameable cause instead.
  require(p.cap_rsw_fsw > 0.0 && p.cap_fsw_ssw > 0.0 &&
              p.cap_ssw_fadu > 0.0 && p.cap_fadu_fauu > 0.0 &&
              p.cap_fauu_eb > 0.0 && p.cap_fauu_dr > 0.0 &&
              p.cap_eb_ebb > 0.0 && p.cap_dr_ebb > 0.0,
          "circuit capacities must all be > 0");
  require(p.port_slack_fabric >= 0 && p.port_slack_ssw >= 0 &&
              p.port_slack_agg >= 0 && p.port_slack_eb >= 0 &&
              p.port_slack_ebb >= 0,
          "port slacks must all be >= 0");

  // Location stores these indices as int16, with -1 for "unset".
  constexpr int kMaxIndex = std::numeric_limits<std::int16_t>::max();
  const auto require_index = [&](int count, const char* field) {
    require(count <= kMaxIndex, std::string(field) + " must be <= " +
                                    std::to_string(kMaxIndex));
  };
  require_index(p.dcs, "dcs");
  require_index(p.grids, "grids");
  for (const FabricParams& f : p.fabrics) {
    require_index(f.pods, "pods");
    require_index(f.planes, "planes");
  }

  // The totals build_region creates, switches first, from the same loops.
  const auto fabric = [&](int dc) -> const FabricParams& {
    return p.fabrics[std::min(static_cast<std::size_t>(dc),
                              p.fabrics.size() - 1)];
  };
  RegionTotal switches("build_region", "switches");
  for (int dc = 0; dc < p.dcs; ++dc) {
    const FabricParams& f = fabric(dc);
    switches.add("ssws_per_plane", {f.planes, f.ssws_per_plane});
    switches.add("pods", {f.pods, f.planes});  // one FSW per plane and pod
    switches.add("rsws_per_pod", {f.pods, f.rsws_per_pod});
  }
  switches.add("fadus_per_grid_per_dc",
               {p.grids, p.dcs, p.fadus_per_grid_per_dc});
  switches.add("fauus_per_grid", {p.grids, p.fauus_per_grid});
  switches.add("ebs", {p.ebs});
  switches.add("drs", {p.drs});
  switches.add("ebbs", {p.ebbs});

  RegionTotal circuits("build_region", "circuits");
  for (int dc = 0; dc < p.dcs; ++dc) {
    const FabricParams& f = fabric(dc);
    circuits.add("ssws_per_plane", {f.pods, f.planes, f.ssws_per_plane});
    circuits.add("rsw_fsw_links",
                 {f.pods, f.rsws_per_pod, f.planes, f.rsw_fsw_links});
    // A plane-aligned FADU meshes with one plane's SSWs; interleaved FADUs
    // share every SSW of the DC between them.
    if (p.mesh == MeshPattern::kPlaneAligned) {
      circuits.add("fadus_per_grid_per_dc",
                   {p.grids, p.fadus_per_grid_per_dc, f.ssws_per_plane});
    } else {
      circuits.add("grids", {p.grids, f.planes, f.ssws_per_plane});
    }
  }
  circuits.add("fauus_per_grid",
               {p.grids, p.fauus_per_grid, p.dcs, p.fadus_per_grid_per_dc});
  circuits.add("ebs", {p.grids, p.fauus_per_grid, p.ebs});
  circuits.add("drs", {p.grids, p.fauus_per_grid, p.drs});
  circuits.add("ebbs", {p.ebs, p.ebbs});
  circuits.add("ebbs", {p.drs, p.ebbs});
}

}  // namespace

void RegionTotal::add(const char* field,
                      std::initializer_list<std::int64_t> factors) {
  std::int64_t term = 1;
  for (const std::int64_t factor : factors) {
    if (__builtin_mul_overflow(term, factor, &term)) {
      term = std::numeric_limits<std::int64_t>::max();
    }
  }
  if (__builtin_add_overflow(total_, term, &total_)) {
    total_ = std::numeric_limits<std::int64_t>::max();
  }
  if (total_ > kMaxRegionElements) {
    throw std::invalid_argument(std::string(builder_) + ": " + field +
                                " takes the region past " +
                                std::to_string(kMaxRegionElements) + " " +
                                elements_);
  }
}

const FabricParams& Region::fabric(int dc) const {
  const auto index = static_cast<std::size_t>(dc);
  if (index < params.fabrics.size()) return params.fabrics[index];
  return params.fabrics.back();
}

Region build_region(const RegionParams& params) {
  validate_params(params);

  Region region;
  region.params = params;
  Topology& topo = region.topo;

  // max_ports is assigned after wiring (initial occupancy + role slack), so
  // use a sentinel large value during construction.
  constexpr std::int32_t kUnsizedPorts = 1 << 20;

  // -------------------------------------------------------------------------
  // Fabric per DC: RSW / FSW / SSW.
  region.rsws.resize(params.dcs);
  region.fsws.resize(params.dcs);
  region.ssws.resize(params.dcs);

  for (int dc = 0; dc < params.dcs; ++dc) {
    const FabricParams& fab = region.fabric(dc);
    const std::string dc_prefix = "d" + std::to_string(dc) + "/";

    // Spine planes first so FSW wiring can look them up.
    region.ssws[dc].resize(fab.planes);
    for (int plane = 0; plane < fab.planes; ++plane) {
      for (int i = 0; i < fab.ssws_per_plane; ++i) {
        Location loc;
        loc.dc = static_cast<std::int16_t>(dc);
        loc.plane = static_cast<std::int16_t>(plane);
        const SwitchId id = topo.add_switch(
            SwitchRole::kSsw, Generation::kV1, loc, kUnsizedPorts,
            ElementState::kActive,
            dc_prefix + "pl" + std::to_string(plane) + "/ssw" +
                std::to_string(i));
        region.ssws[dc][plane].push_back(id);
      }
    }

    for (int pod = 0; pod < fab.pods; ++pod) {
      const std::string pod_prefix =
          dc_prefix + "p" + std::to_string(pod) + "/";

      // One FSW per plane in each pod.
      std::vector<SwitchId> pod_fsws;
      for (int plane = 0; plane < fab.planes; ++plane) {
        Location loc;
        loc.dc = static_cast<std::int16_t>(dc);
        loc.pod = static_cast<std::int16_t>(pod);
        loc.plane = static_cast<std::int16_t>(plane);
        const SwitchId id = topo.add_switch(
            SwitchRole::kFsw, Generation::kV1, loc, kUnsizedPorts,
            ElementState::kActive, pod_prefix + name_of("fsw", plane));
        pod_fsws.push_back(id);
        region.fsws[dc].push_back(id);

        // FSW <-> all SSWs of its plane.
        for (const SwitchId ssw : region.ssws[dc][plane]) {
          topo.add_circuit(id, ssw, params.cap_fsw_ssw,
                           ElementState::kActive);
        }
      }

      // RSWs: each connects to every FSW of its pod.
      for (int r = 0; r < fab.rsws_per_pod; ++r) {
        Location loc;
        loc.dc = static_cast<std::int16_t>(dc);
        loc.pod = static_cast<std::int16_t>(pod);
        const SwitchId id = topo.add_switch(
            SwitchRole::kRsw, Generation::kV1, loc, kUnsizedPorts,
            ElementState::kActive, pod_prefix + name_of("rsw", r));
        region.rsws[dc].push_back(id);
        for (const SwitchId fsw : pod_fsws) {
          for (int link = 0; link < fab.rsw_fsw_links; ++link) {
            topo.add_circuit(id, fsw, params.cap_rsw_fsw,
                             ElementState::kActive);
          }
        }
      }
    }
  }

  // -------------------------------------------------------------------------
  // HGRID layer: grids of FADUs (per DC) and FAUUs.
  region.fadus.resize(params.grids);
  region.fauus.resize(params.grids);

  for (int grid = 0; grid < params.grids; ++grid) {
    const std::string grid_prefix = "g" + std::to_string(grid) + "/";
    region.fadus[grid].resize(params.dcs);

    for (int dc = 0; dc < params.dcs; ++dc) {
      const FabricParams& fab = region.fabric(dc);
      for (int k = 0; k < params.fadus_per_grid_per_dc; ++k) {
        Location loc;
        loc.dc = static_cast<std::int16_t>(dc);
        loc.grid = static_cast<std::int16_t>(grid);
        const SwitchId fadu = topo.add_switch(
            SwitchRole::kFadu, params.hgrid_gen, loc, kUnsizedPorts,
            ElementState::kActive,
            grid_prefix + "d" + std::to_string(dc) + "/" + name_of("fadu", k));
        region.fadus[grid][dc].push_back(fadu);

        // SSW <-> FADU meshing (Figure 2(c)). The grid offset staggers which
        // planes each grid serves, so that when fadus_per_grid_per_dc is
        // smaller than the plane count the union of grids still covers all
        // planes (and draining one grid removes capacity evenly overall).
        if (params.mesh == MeshPattern::kPlaneAligned) {
          const int plane =
              (k + grid * params.fadus_per_grid_per_dc) % fab.planes;
          for (const SwitchId ssw : region.ssws[dc][plane]) {
            topo.add_circuit(ssw, fadu, params.cap_ssw_fadu,
                             ElementState::kActive);
          }
        } else {  // kInterleaved: stripe across all planes
          int j = 0;
          for (int plane = 0; plane < fab.planes; ++plane) {
            for (const SwitchId ssw : region.ssws[dc][plane]) {
              if (j % params.fadus_per_grid_per_dc == k) {
                topo.add_circuit(ssw, fadu, params.cap_ssw_fadu,
                                 ElementState::kActive);
              }
              ++j;
            }
          }
        }
      }
    }

    for (int u = 0; u < params.fauus_per_grid; ++u) {
      Location loc;
      loc.grid = static_cast<std::int16_t>(grid);
      const SwitchId fauu = topo.add_switch(
          SwitchRole::kFauu, params.hgrid_gen, loc, kUnsizedPorts,
          ElementState::kActive, grid_prefix + name_of("fauu", u));
      region.fauus[grid].push_back(fauu);

      // Full mesh FADU <-> FAUU within the grid.
      for (int dc = 0; dc < params.dcs; ++dc) {
        for (const SwitchId fadu : region.fadus[grid][dc]) {
          topo.add_circuit(fadu, fauu, params.cap_fadu_fauu,
                           ElementState::kActive);
        }
      }
    }
  }

  // -------------------------------------------------------------------------
  // Backbone boundary: EB, DR, EBB.
  for (int e = 0; e < params.ebs; ++e) {
    region.ebs.push_back(topo.add_switch(SwitchRole::kEb, Generation::kV1,
                                         Location{}, kUnsizedPorts,
                                         ElementState::kActive,
                                         name_of("eb", e)));
  }
  for (int d = 0; d < params.drs; ++d) {
    region.drs.push_back(topo.add_switch(SwitchRole::kDr, Generation::kV1,
                                         Location{}, kUnsizedPorts,
                                         ElementState::kActive,
                                         name_of("dr", d)));
  }
  for (int b = 0; b < params.ebbs; ++b) {
    region.ebbs.push_back(topo.add_switch(SwitchRole::kEbb, Generation::kV1,
                                          Location{}, kUnsizedPorts,
                                          ElementState::kActive,
                                          name_of("ebb", b)));
  }

  region.fauu_eb_circuits_by_eb.resize(params.ebs);
  for (int grid = 0; grid < params.grids; ++grid) {
    for (const SwitchId fauu : region.fauus[grid]) {
      for (int e = 0; e < params.ebs; ++e) {
        const CircuitId cid = topo.add_circuit(
            fauu, region.ebs[e], params.cap_fauu_eb, ElementState::kActive);
        region.fauu_eb_circuits_by_eb[e].push_back(cid);
      }
      for (const SwitchId dr : region.drs) {
        topo.add_circuit(fauu, dr, params.cap_fauu_dr, ElementState::kActive);
      }
    }
  }
  for (const SwitchId eb : region.ebs) {
    for (const SwitchId ebb : region.ebbs) {
      topo.add_circuit(eb, ebb, params.cap_eb_ebb, ElementState::kActive);
    }
  }
  for (const SwitchId dr : region.drs) {
    for (const SwitchId ebb : region.ebbs) {
      topo.add_circuit(dr, ebb, params.cap_dr_ebb, ElementState::kActive);
    }
  }

  // -------------------------------------------------------------------------
  // Port budgets: initial occupancy plus per-role slack. Tight SSW and EB
  // budgets are what gate onboarding of staged hardware until the matching
  // decommission steps have freed ports.
  for (std::size_t i = 0; i < topo.num_switches(); ++i) {
    Switch& s = topo.sw(static_cast<SwitchId>(i));
    const int occupied = topo.occupied_ports(s.id);
    int slack = params.port_slack_agg;
    switch (s.role) {
      case SwitchRole::kRsw:
      case SwitchRole::kFsw:
        slack = params.port_slack_fabric;
        break;
      case SwitchRole::kSsw:
        slack = params.port_slack_ssw;
        break;
      case SwitchRole::kEb:
        slack = params.port_slack_eb;
        break;
      case SwitchRole::kEbb:
        slack = params.port_slack_ebb;
        break;
      default:
        break;
    }
    s.max_ports = occupied + slack;
    if (s.max_ports <= 0) s.max_ports = 1;
  }

  const std::string error = topo.validate();
  if (!error.empty()) {
    throw std::logic_error("build_region produced invalid topology: " + error);
  }
  return region;
}

}  // namespace klotski::topo
