// Synthesizer for Meta-style regional DCN topologies (§2.1).
//
// A region is a set of DC buildings, each with a three-layer fabric
// (RSW - FSW - SSW organized in pods and planes), interconnected by an
// HGRID fabric-aggregation layer (FADU / FAUU grids), which reaches the
// backbone through EB border routers and DR datacenter routers down to
// EBB core routers. The DMAG migration later inserts an MA layer between
// FAUU and EB.
//
// The builder reproduces the structural properties the planner depends on:
//  * plane/pod symmetry inside each fabric,
//  * per-grid locality in the HGRID layer,
//  * two meshing patterns between SSWs and the aggregation layer (§2.2,
//    Figure 2(c)),
//  * per-DC generation heterogeneity (4-plane vs 8-plane DCs, Figure 2(d)).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "klotski/topo/topology.h"

namespace klotski::topo {

/// Topology family of a synthesized region. Clos is the paper's Meta-style
/// hierarchy; flat and reconf are the non-Clos families of DESIGN.md §12
/// (RNG-style random flat fabrics and reconfigurable circulant meshes).
enum class TopologyFamily : std::uint8_t { kClos, kFlat, kReconf };

std::string to_string(TopologyFamily family);
TopologyFamily family_from_string(const std::string& text);
std::vector<TopologyFamily> all_families();

/// How FADUs mesh with the spine planes (Figure 2(c)).
enum class MeshPattern : std::uint8_t {
  /// FADU k serves exactly plane (k mod planes): one-to-one plane mapping.
  kPlaneAligned,
  /// FADU k connects to SSW j iff j mod fadu_count == k: smaller capacity
  /// per node, no one-to-one mapping with downstream planes.
  kInterleaved,
};

/// Per-DC fabric shape. fsws_per_pod always equals `planes` in this model:
/// FSW i of a pod serves spine plane i.
struct FabricParams {
  int pods = 2;
  int rsws_per_pod = 4;
  int planes = 4;          // 4 (older generation) or 8 (newer)
  int ssws_per_plane = 2;
  int rsw_fsw_links = 1;   // parallel circuits per RSW-FSW pair
};

/// Region-wide parameters.
struct RegionParams {
  int dcs = 2;
  /// One entry per DC; if fewer entries are given the last one is
  /// replicated (a single entry means a homogeneous region).
  std::vector<FabricParams> fabrics = std::vector<FabricParams>(1);

  // HGRID layer (generation hgrid_gen).
  int grids = 2;
  int fadus_per_grid_per_dc = 2;
  int fauus_per_grid = 2;
  Generation hgrid_gen = Generation::kV1;
  MeshPattern mesh = MeshPattern::kPlaneAligned;

  // Backbone boundary.
  int ebs = 2;
  int drs = 2;
  int ebbs = 2;

  // Circuit capacities (Tbps per direction).
  double cap_rsw_fsw = 0.1;
  double cap_fsw_ssw = 0.2;
  double cap_ssw_fadu = 0.4;
  double cap_fadu_fauu = 0.8;
  double cap_fauu_eb = 0.8;
  double cap_fauu_dr = 0.8;
  double cap_eb_ebb = 1.6;
  double cap_dr_ebb = 1.6;

  /// Extra physical ports beyond initial occupancy, per role. Tight budgets
  /// are what force "decommission before onboard" orderings (§2.3).
  int port_slack_fabric = 2;  // RSW / FSW ports are never contended
  int port_slack_ssw = 0;     // SSW ports gate HGRID V1->V2
  int port_slack_agg = 2;     // FADU/FAUU/DR headroom
  int port_slack_eb = 0;      // EB ports gate the DMAG migration
  int port_slack_ebb = 8;
};

/// One stride class of a reconfigurable mesh: all circuits i -> (i+stride)
/// mod N, in ring-index order. `shared` strides belong to both the V1 and
/// the V2 wiring pattern and are never operated by the rewire migration.
struct MeshStrideCircuits {
  int stride = 0;
  Generation gen = Generation::kV1;  // kV2 = staged target-only chords
  bool shared = false;
  std::vector<CircuitId> circuits;
};

/// A built region: the topology plus the index structures the traffic
/// generator and the migration task builders navigate by.
struct Region {
  Topology topo;
  RegionParams params;
  TopologyFamily family = TopologyFamily::kClos;

  // Fabric indexes. rsws[dc], fsws[dc], ssws[dc][plane] -> switch ids.
  std::vector<std::vector<SwitchId>> rsws;
  std::vector<std::vector<SwitchId>> fsws;
  std::vector<std::vector<std::vector<SwitchId>>> ssws;

  // HGRID indexes. fadus[grid][dc], fauus[grid] -> switch ids.
  std::vector<std::vector<std::vector<SwitchId>>> fadus;
  std::vector<std::vector<SwitchId>> fauus;

  std::vector<SwitchId> ebs;
  std::vector<SwitchId> drs;
  std::vector<SwitchId> ebbs;

  // Circuits between FAUUs and EBs, grouped by EB (the DMAG migration
  // drains these; grouping by EB mirrors the §5 organization policy).
  std::vector<std::vector<CircuitId>> fauu_eb_circuits_by_eb;

  // Non-Clos family annotations (families.h); empty for Clos regions.
  // mesh_nodes lists the family's switches in ring order (flat + reconf);
  // mesh_strides records the reconf wiring pattern per stride class.
  std::vector<SwitchId> mesh_nodes;
  std::vector<MeshStrideCircuits> mesh_strides;

  /// Fabric parameters effective for a DC (after replication).
  const FabricParams& fabric(int dc) const;

  int num_dcs() const { return params.dcs; }
  int num_grids() const { return params.grids; }
};

/// Upper bound on the switches, and separately on the circuits, of one
/// region of any family. Builders sum their totals from the params
/// (RegionTotal) before they allocate anything, so a document asking for a
/// larger region is refused naming a field instead of exhausting memory.
/// Full-scale E, the largest preset, builds 10,136 switches and 107,200
/// circuits before its migration stages more.
inline constexpr std::int64_t kMaxRegionElements = std::int64_t{1} << 20;

/// A region's switch or circuit total, summed term by term in saturating
/// int64 and checked against kMaxRegionElements after every term.
class RegionTotal {
 public:
  /// `builder` prefixes errors ("build_region"); `elements` names what is
  /// counted ("switches").
  RegionTotal(const char* builder, const char* elements)
      : builder_(builder), elements_(elements) {}

  /// Adds the product of `factors` (each >= 0). Throws
  /// std::invalid_argument naming `field` once the total passes
  /// kMaxRegionElements.
  void add(const char* field, std::initializer_list<std::int64_t> factors);

 private:
  const char* builder_;
  const char* elements_;
  std::int64_t total_ = 0;
};

/// Builds a region; throws std::invalid_argument on inconsistent params,
/// on a dcs, pods, planes or grids count past INT16_MAX (Location stores
/// them as int16), and on a region past kMaxRegionElements.
Region build_region(const RegionParams& params);

}  // namespace klotski::topo
