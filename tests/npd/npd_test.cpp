#include <gtest/gtest.h>

#include <limits>

#include "klotski/npd/npd_convert.h"
#include "klotski/npd/npd_io.h"
#include "klotski/topo/presets.h"

namespace klotski::npd {
namespace {

NpdDocument sample_doc() {
  NpdDocument doc;
  doc.name = "test-region";
  doc.region =
      topo::preset_params(topo::PresetId::kB, topo::PresetScale::kFull);
  doc.migration = MigrationKind::kHgridV1ToV2;
  doc.hgrid.v2_grids = 3;
  doc.hgrid.fadu_chunks_per_grid_dc = 2;
  doc.demand.egress_frac = 0.22;
  return doc;
}

TEST(MigrationKind, RoundTrip) {
  for (const auto kind :
       {MigrationKind::kNone, MigrationKind::kHgridV1ToV2,
        MigrationKind::kSswForklift, MigrationKind::kDmag,
        MigrationKind::kFlatForklift, MigrationKind::kReconfRewire}) {
    EXPECT_EQ(migration_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(migration_kind_from_string("warp"), std::invalid_argument);
}

TEST(MigrationKind, FamilyOfAndDefaultMigrationAgree) {
  for (const auto family : topo::all_families()) {
    EXPECT_EQ(family_of(default_migration(family)), family);
  }
  EXPECT_EQ(family_of(MigrationKind::kSswForklift),
            topo::TopologyFamily::kClos);
  EXPECT_EQ(family_of(MigrationKind::kFlatForklift),
            topo::TopologyFamily::kFlat);
  EXPECT_EQ(family_of(MigrationKind::kReconfRewire),
            topo::TopologyFamily::kReconf);
}

TEST(NpdIo, RoundTripPreservesDocument) {
  const NpdDocument doc = sample_doc();
  const NpdDocument round = parse_npd(dump_npd(doc));

  EXPECT_EQ(round.name, doc.name);
  EXPECT_EQ(round.migration, doc.migration);
  EXPECT_EQ(round.region.dcs, doc.region.dcs);
  EXPECT_EQ(round.region.grids, doc.region.grids);
  EXPECT_EQ(round.region.fabrics.size(), doc.region.fabrics.size());
  EXPECT_EQ(round.region.fabrics[0].pods, doc.region.fabrics[0].pods);
  EXPECT_EQ(round.region.fabrics[0].rsw_fsw_links,
            doc.region.fabrics[0].rsw_fsw_links);
  EXPECT_DOUBLE_EQ(round.region.cap_fauu_eb, doc.region.cap_fauu_eb);
  EXPECT_EQ(round.region.port_slack_ssw, doc.region.port_slack_ssw);
  EXPECT_EQ(round.hgrid.v2_grids, doc.hgrid.v2_grids);
  EXPECT_EQ(round.hgrid.fadu_chunks_per_grid_dc,
            doc.hgrid.fadu_chunks_per_grid_dc);
  EXPECT_DOUBLE_EQ(round.demand.egress_frac, doc.demand.egress_frac);
}

TEST(NpdIo, SswAndDmagSectionsRoundTrip) {
  NpdDocument doc = sample_doc();
  doc.migration = MigrationKind::kSswForklift;
  doc.ssw.dc = 1;
  doc.ssw.v2_capacity_factor = 2.0;
  doc.ssw.blocks_per_plane = 3;
  NpdDocument round = parse_npd(dump_npd(doc));
  EXPECT_EQ(round.ssw.dc, 1);
  EXPECT_DOUBLE_EQ(round.ssw.v2_capacity_factor, 2.0);
  EXPECT_EQ(round.ssw.blocks_per_plane, 3);

  doc.migration = MigrationKind::kDmag;
  doc.dmag.ma_per_eb = 3;
  round = parse_npd(dump_npd(doc));
  EXPECT_EQ(round.dmag.ma_per_eb, 3);
}

TEST(NpdIo, DefaultsAppliedForOmittedSections) {
  const NpdDocument doc = parse_npd(R"({"name": "minimal"})");
  EXPECT_EQ(doc.name, "minimal");
  EXPECT_EQ(doc.migration, MigrationKind::kNone);
  EXPECT_EQ(doc.region.dcs, topo::RegionParams{}.dcs);
}

TEST(NpdIo, UnknownKeysAreRejectedWithKeyName) {
  try {
    parse_npd(R"({"name": "x", "hgrid": {"grids": 2, "girds": 3}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("girds"), std::string::npos);
  }
}

TEST(NpdIo, UnknownRootKeyRejected) {
  EXPECT_THROW(parse_npd(R"({"nmae": "typo"})"), std::invalid_argument);
}

TEST(NpdIo, MalformedJsonSurfacesParserError) {
  EXPECT_THROW(parse_npd("{"), json::JsonError);
}

TEST(NpdIo, PolicyFlagsRoundTrip) {
  NpdDocument doc = sample_doc();
  doc.hgrid.policy.block_scale = 2.0;
  doc.hgrid.policy.use_operation_blocks = false;
  const NpdDocument round = parse_npd(dump_npd(doc));
  EXPECT_DOUBLE_EQ(round.hgrid.policy.block_scale, 2.0);
  EXPECT_FALSE(round.hgrid.policy.use_operation_blocks);
}

TEST(Npd, BuildRegionMatchesDirectBuild) {
  const NpdDocument doc = sample_doc();
  const topo::Region from_npd = build_region(doc);
  const topo::Region direct = topo::build_region(doc.region);
  EXPECT_EQ(from_npd.topo.num_switches(), direct.topo.num_switches());
  EXPECT_EQ(from_npd.topo.num_circuits(), direct.topo.num_circuits());
}

TEST(Npd, BuildCaseDispatchesOnMigrationKind) {
  NpdDocument doc = sample_doc();
  EXPECT_EQ(build_case(doc).task.name, "hgrid-v1-to-v2");
  doc.migration = MigrationKind::kSswForklift;
  EXPECT_EQ(build_case(doc).task.name, "ssw-forklift");
  doc.migration = MigrationKind::kDmag;
  EXPECT_EQ(build_case(doc).task.name, "dmag");
  doc.migration = MigrationKind::kNone;
  EXPECT_THROW(build_case(doc), std::invalid_argument);
}

TEST(NpdIo, FlatDocumentRoundTrips) {
  NpdDocument doc;
  doc.name = "flat-region";
  doc.family = topo::TopologyFamily::kFlat;
  doc.migration = MigrationKind::kFlatForklift;
  doc.flat.switches = 20;
  doc.flat.degree = 6;
  doc.flat.extra_links = 3;
  doc.flat.max_chord_span = 7;
  doc.flat.seed = 42;
  doc.flat_mig.upgrade_fraction = 0.4;
  doc.flat_mig.switch_chunks = 5;
  doc.flat_mig.origin_utilization_cap = 0.6;
  const NpdDocument round = parse_npd(dump_npd(doc));
  EXPECT_EQ(round.family, topo::TopologyFamily::kFlat);
  EXPECT_EQ(round.migration, MigrationKind::kFlatForklift);
  EXPECT_EQ(round.flat.switches, 20);
  EXPECT_EQ(round.flat.degree, 6);
  EXPECT_EQ(round.flat.extra_links, 3);
  EXPECT_EQ(round.flat.max_chord_span, 7);
  EXPECT_EQ(round.flat.seed, 42u);
  EXPECT_DOUBLE_EQ(round.flat_mig.upgrade_fraction, 0.4);
  EXPECT_EQ(round.flat_mig.switch_chunks, 5);
  EXPECT_DOUBLE_EQ(round.flat_mig.origin_utilization_cap, 0.6);
}

TEST(NpdIo, ReconfDocumentRoundTrips) {
  NpdDocument doc;
  doc.name = "reconf-region";
  doc.family = topo::TopologyFamily::kReconf;
  doc.migration = MigrationKind::kReconfRewire;
  doc.reconf.switches = 14;
  doc.reconf.v1_strides = {1, 2};
  doc.reconf.v2_strides = {1, 5};
  doc.reconf_mig.chunks_per_stride = 4;
  doc.reconf_mig.origin_utilization_cap = 0.45;
  const NpdDocument round = parse_npd(dump_npd(doc));
  EXPECT_EQ(round.family, topo::TopologyFamily::kReconf);
  EXPECT_EQ(round.migration, MigrationKind::kReconfRewire);
  EXPECT_EQ(round.reconf.switches, 14);
  EXPECT_EQ(round.reconf.v1_strides, (std::vector<int>{1, 2}));
  EXPECT_EQ(round.reconf.v2_strides, (std::vector<int>{1, 5}));
  EXPECT_EQ(round.reconf_mig.chunks_per_stride, 4);
  EXPECT_DOUBLE_EQ(round.reconf_mig.origin_utilization_cap, 0.45);
}

TEST(NpdIo, NonClosDocumentsOmitClosSections) {
  NpdDocument doc;
  doc.name = "flat-region";
  doc.family = topo::TopologyFamily::kFlat;
  doc.migration = MigrationKind::kFlatForklift;
  const std::string text = dump_npd(doc);
  EXPECT_EQ(text.find("\"fabric\""), std::string::npos);
  EXPECT_EQ(text.find("\"hgrid\""), std::string::npos);
  EXPECT_NE(text.find("\"flat\""), std::string::npos);
}

TEST(Npd, BuildCaseRejectsFamilyMismatchedMigration) {
  NpdDocument doc;
  doc.family = topo::TopologyFamily::kFlat;
  doc.migration = MigrationKind::kHgridV1ToV2;
  try {
    build_case(doc);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("does not apply"),
              std::string::npos);
  }

  doc.family = topo::TopologyFamily::kClos;
  doc.migration = MigrationKind::kReconfRewire;
  EXPECT_THROW(build_case(doc), std::invalid_argument);
}

TEST(Npd, BuildCaseDispatchesOnFamily) {
  NpdDocument doc;
  doc.family = topo::TopologyFamily::kFlat;
  doc.migration = MigrationKind::kFlatForklift;
  EXPECT_EQ(build_case(doc).task.name, "flat-forklift");

  doc.family = topo::TopologyFamily::kReconf;
  doc.migration = MigrationKind::kReconfRewire;
  EXPECT_EQ(build_case(doc).task.name, "reconf-rewire");
}

TEST(Npd, BuildRegionDispatchesOnFamily) {
  NpdDocument doc;
  doc.family = topo::TopologyFamily::kFlat;
  const topo::Region flat = build_region(doc);
  const topo::Region direct = topo::build_flat(doc.flat);
  EXPECT_EQ(flat.topo.num_switches(), direct.topo.num_switches());
  EXPECT_EQ(flat.topo.num_circuits(), direct.topo.num_circuits());

  doc.family = topo::TopologyFamily::kReconf;
  const topo::Region reconf = build_region(doc);
  EXPECT_EQ(reconf.topo.num_switches(),
            static_cast<std::size_t>(doc.reconf.switches));
}

TEST(Npd, DemandParamsFlowIntoBuildCase) {
  NpdDocument doc = sample_doc();
  doc.demand.egress_frac = 0.0;  // suppress egress demands entirely
  const migration::MigrationCase mig = build_case(doc);
  for (const traffic::Demand& d : mig.task.demands) {
    EXPECT_NE(d.kind, traffic::DemandKind::kEgress);
  }
}

// ---------------------------------------------------------------------------
// Explicit topology conversion

TEST(NpdConvert, TopologyRoundTrip) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  const json::Value encoded = topology_to_json(region.topo);
  const topo::Topology decoded = topology_from_json(encoded);

  ASSERT_EQ(decoded.num_switches(), region.topo.num_switches());
  ASSERT_EQ(decoded.num_circuits(), region.topo.num_circuits());
  for (std::size_t i = 0; i < decoded.num_switches(); ++i) {
    const auto id = static_cast<topo::SwitchId>(i);
    EXPECT_EQ(decoded.sw(id).name, region.topo.sw(id).name);
    EXPECT_EQ(decoded.sw(id).role, region.topo.sw(id).role);
    EXPECT_EQ(decoded.sw(id).state, region.topo.sw(id).state);
    EXPECT_EQ(decoded.sw(id).max_ports, region.topo.sw(id).max_ports);
    EXPECT_EQ(decoded.sw(id).loc, region.topo.sw(id).loc);
  }
  for (std::size_t i = 0; i < decoded.num_circuits(); ++i) {
    const auto id = static_cast<topo::CircuitId>(i);
    EXPECT_DOUBLE_EQ(decoded.circuit(id).capacity_tbps,
                     region.topo.circuit(id).capacity_tbps);
    EXPECT_EQ(decoded.circuit(id).state, region.topo.circuit(id).state);
  }
}

TEST(NpdConvert, RejectsDanglingCircuitEndpoints) {
  const char* text = R"({
    "switches": [{"name": "a", "role": "RSW", "max_ports": 4}],
    "circuits": [{"a": "a", "b": "ghost", "capacity_tbps": 1.0}]
  })";
  EXPECT_THROW(topology_from_json(json::parse(text)), std::invalid_argument);
}

TEST(NpdConvert, RejectsDuplicateSwitchNames) {
  const char* text = R"({
    "switches": [{"name": "a", "role": "RSW"}, {"name": "a", "role": "FSW"}],
    "circuits": []
  })";
  EXPECT_THROW(topology_from_json(json::parse(text)), std::invalid_argument);
}

TEST(NpdConvert, OutOfRangeIntegersAreRefusedNamingTheField) {
  const auto refusal = [](const char* text) -> std::string {
    try {
      topology_from_json(json::parse(text));
    } catch (const json::JsonError& e) {
      return e.what();
    }
    return "";
  };
  // int16 coordinates: 65536 + 3 would wrap to 3.
  EXPECT_NE(refusal(R"({"switches": [{"name": "a", "role": "RSW",
                        "loc": {"pod": 65539}}], "circuits": []})")
                .find("pod"),
            std::string::npos);
  EXPECT_NE(refusal(R"({"switches": [{"name": "a", "role": "RSW",
                        "loc": {"dc": -2}}], "circuits": []})")
                .find("dc"),
            std::string::npos);
  EXPECT_NE(refusal(R"({"switches": [{"name": "a", "role": "RSW",
                        "max_ports": -1}], "circuits": []})")
                .find("max_ports"),
            std::string::npos);
  EXPECT_EQ(refusal(R"({"switches": [{"name": "a", "role": "RSW",
                        "loc": {"dc": -1, "pod": 7}}], "circuits": []})"),
            "");
}

TEST(NpdIo, OutOfRangeStrideIsRefusedNamingTheField) {
  NpdDocument doc;
  doc.family = topo::TopologyFamily::kReconf;
  doc.migration = MigrationKind::kReconfRewire;
  json::Value root = to_json(doc);
  root.as_object()["reconf"].as_object()["v1_strides"] =
      json::Value(json::Array{json::Value(std::int64_t{4294967297})});
  try {
    from_json(root);
    ADD_FAILURE() << "stride 2^32 + 1 was accepted";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("reconf.v1_strides"),
              std::string::npos)
        << e.what();
  }
}

TEST(NpdIo, CapacitiesOutsideTheFixedPointRangeAreRefusedNamingTheField) {
  const json::Value base = to_json(sample_doc());
  const auto refusal = [](const json::Value& root) -> std::string {
    try {
      from_json(root);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  for (const double bad : {1e300, std::numeric_limits<double>::infinity(),
                           0.0, -1.0, 1e-9}) {
    json::Value root = base;
    json::Object& hw = root.as_object()["hardware"].as_object();
    hw["capacities"].as_object()["fsw_ssw"] = json::Value(bad);
    EXPECT_NE(refusal(root).find("hardware.capacities.fsw_ssw"),
              std::string::npos)
        << bad;
  }
  NpdDocument flat;
  flat.family = topo::TopologyFamily::kFlat;
  flat.migration = MigrationKind::kFlatForklift;
  json::Value flat_root = to_json(flat);
  flat_root.as_object()["flat"].as_object()["cap_tbps"] = json::Value(1e300);
  EXPECT_NE(refusal(flat_root).find("flat.cap_tbps"), std::string::npos);
  // Capacities inside the range still load.
  json::Value root = base;
  root.as_object()["hardware"].as_object()["capacities"].as_object()
      ["fsw_ssw"] = json::Value(32768.0);
  EXPECT_EQ(refusal(root), "");
}

TEST(NpdConvert, CapacitiesOutsideTheFixedPointRangeAreRefused) {
  for (const char* capacity : {"1e300", "0", "-3"}) {
    const std::string text =
        std::string(R"({"switches": [{"name": "a", "role": "RSW"},
                                    {"name": "b", "role": "FSW"}],
                       "circuits": [{"a": "a", "b": "b", "capacity_tbps": )") +
        capacity + "}]}";
    try {
      topology_from_json(json::parse(text));
      ADD_FAILURE() << "capacity " << capacity << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("a - b capacity_tbps"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace klotski::npd
