#include "klotski/npd/npd_io.h"

#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "klotski/traffic/load.h"

namespace klotski::npd {

namespace {

using json::Array;
using json::Object;
using json::Value;

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("npd: " + message);
}

/// Reads a capacity in Tbps, refusing one outside the fixed-point range of
/// the routers (traffic::checked_capacity) with an error naming
/// `section`.`key`.
double get_capacity(const Value& v, const std::string& section,
                    const char* key, double fallback) {
  try {
    return traffic::checked_capacity(v.get_double(key, fallback),
                                     section + "." + key);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

/// Rejects keys outside `allowed` so that typos are loud.
void check_keys(const Value& v, const char* section,
                std::initializer_list<const char*> allowed) {
  std::unordered_set<std::string> set;
  for (const char* key : allowed) set.insert(key);
  for (const auto& [key, unused] : v.as_object()) {
    (void)unused;
    if (set.count(key) == 0) {
      fail(std::string("unknown key '") + key + "' in section " + section);
    }
  }
}

topo::FabricParams fabric_from_json(const Value& v) {
  check_keys(v, "fabric.buildings[]",
             {"pods", "rsws_per_pod", "planes", "ssws_per_plane",
              "rsw_fsw_links"});
  topo::FabricParams fab;
  fab.pods = v.get_count("pods", fab.pods);
  fab.rsws_per_pod = v.get_count("rsws_per_pod", fab.rsws_per_pod);
  fab.planes = v.get_count("planes", fab.planes);
  fab.ssws_per_plane = v.get_count("ssws_per_plane", fab.ssws_per_plane);
  fab.rsw_fsw_links = v.get_count("rsw_fsw_links", fab.rsw_fsw_links);
  return fab;
}

Value fabric_to_json(const topo::FabricParams& fab) {
  Object o;
  o["pods"] = fab.pods;
  o["rsws_per_pod"] = fab.rsws_per_pod;
  o["planes"] = fab.planes;
  o["ssws_per_plane"] = fab.ssws_per_plane;
  o["rsw_fsw_links"] = fab.rsw_fsw_links;
  return Value(std::move(o));
}

std::string mesh_to_string(topo::MeshPattern mesh) {
  return mesh == topo::MeshPattern::kPlaneAligned ? "plane-aligned"
                                                  : "interleaved";
}

topo::MeshPattern mesh_from_string(const std::string& text) {
  if (text == "plane-aligned") return topo::MeshPattern::kPlaneAligned;
  if (text == "interleaved") return topo::MeshPattern::kInterleaved;
  fail("unknown mesh pattern '" + text + "'");
}

std::vector<int> strides_from_json(const Value& v, const char* key) {
  std::vector<int> strides;
  for (const Value& s : v.as_array()) {
    strides.push_back(static_cast<int>(
        s.as_int_in(key, 0, std::numeric_limits<int>::max())));
  }
  if (strides.empty()) fail(std::string(key) + " must not be empty");
  return strides;
}

Value strides_to_json(const std::vector<int>& strides) {
  Array a;
  for (const int s : strides) a.emplace_back(static_cast<std::int64_t>(s));
  return Value(std::move(a));
}

}  // namespace

NpdDocument from_json(const Value& root) {
  check_keys(root, "(root)",
             {"name", "version", "family", "fabric", "hgrid", "ma", "eb",
              "dr", "bb", "flat", "reconf", "hardware", "migration",
              "demand"});
  NpdDocument doc;
  doc.name = root.get_string("name", doc.name);
  doc.version = root.get_count("version", doc.version);
  doc.family =
      topo::family_from_string(root.get_string("family", "clos"));
  topo::RegionParams& rp = doc.region;

  if (const Value* flat = root.as_object().find("flat")) {
    check_keys(*flat, "flat",
               {"switches", "degree", "extra_links", "max_chord_span",
                "cap_tbps", "seed", "port_slack"});
    topo::FlatParams& fp = doc.flat;
    fp.switches = flat->get_count("switches", fp.switches);
    fp.degree = flat->get_count("degree", fp.degree);
    fp.extra_links = flat->get_count("extra_links", fp.extra_links);
    fp.max_chord_span = flat->get_count("max_chord_span", fp.max_chord_span);
    fp.cap_tbps = get_capacity(*flat, "flat", "cap_tbps", fp.cap_tbps);
    // Written as int64 (to_json casts), so every uint64 seed round-trips.
    fp.seed = static_cast<std::uint64_t>(flat->get_int_in(
        "seed", static_cast<std::int64_t>(fp.seed),
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()));
    fp.port_slack = flat->get_count("port_slack", fp.port_slack);
  }

  if (const Value* reconf = root.as_object().find("reconf")) {
    check_keys(*reconf, "reconf",
               {"switches", "v1_strides", "v2_strides", "cap_tbps",
                "port_slack"});
    topo::ReconfParams& cp = doc.reconf;
    cp.switches = reconf->get_count("switches", cp.switches);
    if (const Value* v1 = reconf->as_object().find("v1_strides")) {
      cp.v1_strides = strides_from_json(*v1, "reconf.v1_strides");
    }
    if (const Value* v2 = reconf->as_object().find("v2_strides")) {
      cp.v2_strides = strides_from_json(*v2, "reconf.v2_strides");
    }
    cp.cap_tbps = get_capacity(*reconf, "reconf", "cap_tbps", cp.cap_tbps);
    cp.port_slack = reconf->get_count("port_slack", cp.port_slack);
  }

  if (const Value* fabric = root.as_object().find("fabric")) {
    check_keys(*fabric, "fabric", {"dcs", "buildings"});
    rp.dcs = fabric->get_count("dcs", rp.dcs);
    if (const Value* buildings = fabric->as_object().find("buildings")) {
      rp.fabrics.clear();
      for (const Value& b : buildings->as_array()) {
        rp.fabrics.push_back(fabric_from_json(b));
      }
      if (rp.fabrics.empty()) fail("fabric.buildings must not be empty");
    }
  }

  if (const Value* hgrid = root.as_object().find("hgrid")) {
    check_keys(*hgrid, "hgrid",
               {"grids", "fadus_per_grid_per_dc", "fauus_per_grid",
                "generation", "mesh"});
    rp.grids = hgrid->get_count("grids", rp.grids);
    rp.fadus_per_grid_per_dc =
        hgrid->get_count("fadus_per_grid_per_dc", rp.fadus_per_grid_per_dc);
    rp.fauus_per_grid = hgrid->get_count("fauus_per_grid", rp.fauus_per_grid);
    rp.hgrid_gen = topo::generation_from_string(
        hgrid->get_string("generation", "V1"));
    rp.mesh = mesh_from_string(hgrid->get_string("mesh", "plane-aligned"));
  }

  if (const Value* ma = root.as_object().find("ma")) {
    check_keys(*ma, "ma", {});
  }
  if (const Value* eb = root.as_object().find("eb")) {
    check_keys(*eb, "eb", {"count"});
    rp.ebs = eb->get_count("count", rp.ebs);
  }
  if (const Value* dr = root.as_object().find("dr")) {
    check_keys(*dr, "dr", {"count"});
    rp.drs = dr->get_count("count", rp.drs);
  }
  if (const Value* bb = root.as_object().find("bb")) {
    check_keys(*bb, "bb", {"ebbs"});
    rp.ebbs = bb->get_count("ebbs", rp.ebbs);
  }

  if (const Value* hw = root.as_object().find("hardware")) {
    check_keys(*hw, "hardware", {"capacities", "port_slack"});
    if (const Value* caps = hw->as_object().find("capacities")) {
      check_keys(*caps, "hardware.capacities",
                 {"rsw_fsw", "fsw_ssw", "ssw_fadu", "fadu_fauu", "fauu_eb",
                  "fauu_dr", "eb_ebb", "dr_ebb"});
      const std::string section = "hardware.capacities";
      rp.cap_rsw_fsw = get_capacity(*caps, section, "rsw_fsw", rp.cap_rsw_fsw);
      rp.cap_fsw_ssw = get_capacity(*caps, section, "fsw_ssw", rp.cap_fsw_ssw);
      rp.cap_ssw_fadu =
          get_capacity(*caps, section, "ssw_fadu", rp.cap_ssw_fadu);
      rp.cap_fadu_fauu =
          get_capacity(*caps, section, "fadu_fauu", rp.cap_fadu_fauu);
      rp.cap_fauu_eb = get_capacity(*caps, section, "fauu_eb", rp.cap_fauu_eb);
      rp.cap_fauu_dr = get_capacity(*caps, section, "fauu_dr", rp.cap_fauu_dr);
      rp.cap_eb_ebb = get_capacity(*caps, section, "eb_ebb", rp.cap_eb_ebb);
      rp.cap_dr_ebb = get_capacity(*caps, section, "dr_ebb", rp.cap_dr_ebb);
    }
    if (const Value* slack = hw->as_object().find("port_slack")) {
      check_keys(*slack, "hardware.port_slack",
                 {"fabric", "ssw", "agg", "eb", "ebb"});
      rp.port_slack_fabric = slack->get_count("fabric", rp.port_slack_fabric);
      rp.port_slack_ssw = slack->get_count("ssw", rp.port_slack_ssw);
      rp.port_slack_agg = slack->get_count("agg", rp.port_slack_agg);
      rp.port_slack_eb = slack->get_count("eb", rp.port_slack_eb);
      rp.port_slack_ebb = slack->get_count("ebb", rp.port_slack_ebb);
    }
  }

  if (const Value* mig = root.as_object().find("migration")) {
    check_keys(*mig, "migration",
               {"type", "v2_grids", "v2_fadus_per_grid_per_dc",
                "v2_fauus_per_grid", "fadu_chunks_per_grid_dc",
                "fauu_chunks_per_grid", "dc", "v2_capacity_factor",
                "blocks_per_plane", "ma_per_eb", "upgrade_fraction",
                "switch_chunks", "chunks_per_stride",
                "origin_utilization_cap", "block_scale",
                "use_operation_blocks"});
    doc.migration =
        migration_kind_from_string(mig->get_string("type", "none"));

    migration::PolicyParams policy;
    policy.block_scale = mig->get_double("block_scale", policy.block_scale);
    policy.use_operation_blocks =
        mig->get_bool("use_operation_blocks", policy.use_operation_blocks);

    doc.hgrid.v2_grids = mig->get_count("v2_grids", doc.hgrid.v2_grids);
    doc.hgrid.v2_fadus_per_grid_per_dc = mig->get_count(
        "v2_fadus_per_grid_per_dc", doc.hgrid.v2_fadus_per_grid_per_dc);
    doc.hgrid.v2_fauus_per_grid =
        mig->get_count("v2_fauus_per_grid", doc.hgrid.v2_fauus_per_grid);
    doc.hgrid.fadu_chunks_per_grid_dc = mig->get_count(
        "fadu_chunks_per_grid_dc", doc.hgrid.fadu_chunks_per_grid_dc);
    doc.hgrid.fauu_chunks_per_grid =
        mig->get_count("fauu_chunks_per_grid", doc.hgrid.fauu_chunks_per_grid);
    doc.hgrid.policy = policy;

    doc.ssw.dc = mig->get_count("dc", doc.ssw.dc);
    doc.ssw.v2_capacity_factor =
        mig->get_double("v2_capacity_factor", doc.ssw.v2_capacity_factor);
    doc.ssw.blocks_per_plane =
        mig->get_count("blocks_per_plane", doc.ssw.blocks_per_plane);
    doc.ssw.policy = policy;

    doc.dmag.ma_per_eb = mig->get_count("ma_per_eb", doc.dmag.ma_per_eb);
    doc.dmag.policy = policy;

    doc.flat_mig.upgrade_fraction =
        mig->get_double("upgrade_fraction", doc.flat_mig.upgrade_fraction);
    doc.flat_mig.v2_capacity_factor = mig->get_double(
        "v2_capacity_factor", doc.flat_mig.v2_capacity_factor);
    doc.flat_mig.switch_chunks =
        mig->get_count("switch_chunks", doc.flat_mig.switch_chunks);
    doc.flat_mig.origin_utilization_cap = mig->get_double(
        "origin_utilization_cap", doc.flat_mig.origin_utilization_cap);
    doc.flat_mig.policy = policy;

    doc.reconf_mig.chunks_per_stride =
        mig->get_count("chunks_per_stride", doc.reconf_mig.chunks_per_stride);
    doc.reconf_mig.origin_utilization_cap = mig->get_double(
        "origin_utilization_cap", doc.reconf_mig.origin_utilization_cap);
    doc.reconf_mig.policy = policy;
  }

  if (const Value* demand = root.as_object().find("demand")) {
    check_keys(*demand, "demand",
               {"egress_frac", "ingress_frac", "east_west_frac",
                "intra_dc_frac", "mesh_group_frac", "mesh_groups"});
    doc.demand.egress_frac =
        demand->get_double("egress_frac", doc.demand.egress_frac);
    doc.demand.ingress_frac =
        demand->get_double("ingress_frac", doc.demand.ingress_frac);
    doc.demand.east_west_frac =
        demand->get_double("east_west_frac", doc.demand.east_west_frac);
    doc.demand.intra_dc_frac =
        demand->get_double("intra_dc_frac", doc.demand.intra_dc_frac);
    doc.demand.mesh_group_frac =
        demand->get_double("mesh_group_frac", doc.demand.mesh_group_frac);
    doc.demand.mesh_groups =
        demand->get_count("mesh_groups", doc.demand.mesh_groups);
  }

  return doc;
}

NpdDocument parse_npd(const std::string& text) {
  return from_json(json::parse(text));
}

json::Value to_json(const NpdDocument& doc) {
  const topo::RegionParams& rp = doc.region;
  Object root;
  root["name"] = doc.name;
  root["version"] = doc.version;
  root["family"] = std::string(topo::to_string(doc.family));

  if (doc.family == topo::TopologyFamily::kFlat) {
    Object flat;
    flat["switches"] = doc.flat.switches;
    flat["degree"] = doc.flat.degree;
    flat["extra_links"] = doc.flat.extra_links;
    flat["max_chord_span"] = doc.flat.max_chord_span;
    flat["cap_tbps"] = doc.flat.cap_tbps;
    flat["seed"] = static_cast<std::int64_t>(doc.flat.seed);
    flat["port_slack"] = doc.flat.port_slack;
    root["flat"] = Value(std::move(flat));
  }
  if (doc.family == topo::TopologyFamily::kReconf) {
    Object reconf;
    reconf["switches"] = doc.reconf.switches;
    reconf["v1_strides"] = strides_to_json(doc.reconf.v1_strides);
    reconf["v2_strides"] = strides_to_json(doc.reconf.v2_strides);
    reconf["cap_tbps"] = doc.reconf.cap_tbps;
    reconf["port_slack"] = doc.reconf.port_slack;
    root["reconf"] = Value(std::move(reconf));
  }

  if (doc.family == topo::TopologyFamily::kClos) {
    Object fabric;
    fabric["dcs"] = rp.dcs;
    Array buildings;
    for (const topo::FabricParams& fab : rp.fabrics) {
      buildings.push_back(fabric_to_json(fab));
    }
    fabric["buildings"] = Value(std::move(buildings));
    root["fabric"] = Value(std::move(fabric));
  }
  if (doc.family == topo::TopologyFamily::kClos) {
    Object hgrid;
    hgrid["grids"] = rp.grids;
    hgrid["fadus_per_grid_per_dc"] = rp.fadus_per_grid_per_dc;
    hgrid["fauus_per_grid"] = rp.fauus_per_grid;
    hgrid["generation"] = std::string(topo::to_string(rp.hgrid_gen));
    hgrid["mesh"] = mesh_to_string(rp.mesh);
    root["hgrid"] = Value(std::move(hgrid));
    root["ma"] = Value(Object{});
    Object eb;
    eb["count"] = rp.ebs;
    root["eb"] = Value(std::move(eb));
    Object dr;
    dr["count"] = rp.drs;
    root["dr"] = Value(std::move(dr));
    Object bb;
    bb["ebbs"] = rp.ebbs;
    root["bb"] = Value(std::move(bb));
    Object caps;
    caps["rsw_fsw"] = rp.cap_rsw_fsw;
    caps["fsw_ssw"] = rp.cap_fsw_ssw;
    caps["ssw_fadu"] = rp.cap_ssw_fadu;
    caps["fadu_fauu"] = rp.cap_fadu_fauu;
    caps["fauu_eb"] = rp.cap_fauu_eb;
    caps["fauu_dr"] = rp.cap_fauu_dr;
    caps["eb_ebb"] = rp.cap_eb_ebb;
    caps["dr_ebb"] = rp.cap_dr_ebb;
    Object slack;
    slack["fabric"] = rp.port_slack_fabric;
    slack["ssw"] = rp.port_slack_ssw;
    slack["agg"] = rp.port_slack_agg;
    slack["eb"] = rp.port_slack_eb;
    slack["ebb"] = rp.port_slack_ebb;
    Object hw;
    hw["capacities"] = Value(std::move(caps));
    hw["port_slack"] = Value(std::move(slack));
    root["hardware"] = Value(std::move(hw));
  }
  {
    Object mig;
    mig["type"] = to_string(doc.migration);
    switch (doc.migration) {
      case MigrationKind::kHgridV1ToV2:
        mig["v2_grids"] = doc.hgrid.v2_grids;
        mig["v2_fadus_per_grid_per_dc"] = doc.hgrid.v2_fadus_per_grid_per_dc;
        mig["v2_fauus_per_grid"] = doc.hgrid.v2_fauus_per_grid;
        mig["fadu_chunks_per_grid_dc"] = doc.hgrid.fadu_chunks_per_grid_dc;
        mig["fauu_chunks_per_grid"] = doc.hgrid.fauu_chunks_per_grid;
        mig["block_scale"] = doc.hgrid.policy.block_scale;
        mig["use_operation_blocks"] = doc.hgrid.policy.use_operation_blocks;
        break;
      case MigrationKind::kSswForklift:
        mig["dc"] = doc.ssw.dc;
        mig["v2_capacity_factor"] = doc.ssw.v2_capacity_factor;
        mig["blocks_per_plane"] = doc.ssw.blocks_per_plane;
        mig["block_scale"] = doc.ssw.policy.block_scale;
        mig["use_operation_blocks"] = doc.ssw.policy.use_operation_blocks;
        break;
      case MigrationKind::kDmag:
        mig["ma_per_eb"] = doc.dmag.ma_per_eb;
        mig["block_scale"] = doc.dmag.policy.block_scale;
        mig["use_operation_blocks"] = doc.dmag.policy.use_operation_blocks;
        break;
      case MigrationKind::kFlatForklift:
        mig["upgrade_fraction"] = doc.flat_mig.upgrade_fraction;
        mig["v2_capacity_factor"] = doc.flat_mig.v2_capacity_factor;
        mig["switch_chunks"] = doc.flat_mig.switch_chunks;
        mig["origin_utilization_cap"] = doc.flat_mig.origin_utilization_cap;
        mig["block_scale"] = doc.flat_mig.policy.block_scale;
        mig["use_operation_blocks"] =
            doc.flat_mig.policy.use_operation_blocks;
        break;
      case MigrationKind::kReconfRewire:
        mig["chunks_per_stride"] = doc.reconf_mig.chunks_per_stride;
        mig["origin_utilization_cap"] =
            doc.reconf_mig.origin_utilization_cap;
        mig["block_scale"] = doc.reconf_mig.policy.block_scale;
        mig["use_operation_blocks"] =
            doc.reconf_mig.policy.use_operation_blocks;
        break;
      case MigrationKind::kNone:
        break;
    }
    root["migration"] = Value(std::move(mig));
  }
  {
    Object demand;
    demand["egress_frac"] = doc.demand.egress_frac;
    demand["ingress_frac"] = doc.demand.ingress_frac;
    demand["east_west_frac"] = doc.demand.east_west_frac;
    demand["intra_dc_frac"] = doc.demand.intra_dc_frac;
    demand["mesh_group_frac"] = doc.demand.mesh_group_frac;
    demand["mesh_groups"] = doc.demand.mesh_groups;
    root["demand"] = Value(std::move(demand));
  }
  return Value(std::move(root));
}

std::string dump_npd(const NpdDocument& doc) {
  return json::dump(to_json(doc), 2);
}

}  // namespace klotski::npd
