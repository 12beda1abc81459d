#include <gtest/gtest.h>

#include <limits>

#include "../test_helpers.h"
#include "klotski/traffic/demand_io.h"
#include "klotski/traffic/generator.h"
#include "klotski/traffic/load.h"

namespace klotski::traffic {
namespace {

TEST(DemandIo, KindRoundTrip) {
  for (const auto kind : {DemandKind::kEgress, DemandKind::kIngress,
                          DemandKind::kEastWest, DemandKind::kIntraDc}) {
    EXPECT_EQ(demand_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(demand_kind_from_string("sideways"), std::invalid_argument);
}

TEST(DemandIo, GeneratedDemandsRoundTrip) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kB, topo::PresetScale::kFull);
  const DemandSet demands = generate_demands(region);
  const DemandSet round =
      demands_from_json(region.topo, demands_to_json(region.topo, demands));

  ASSERT_EQ(round.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(round[i].name, demands[i].name);
    EXPECT_EQ(round[i].kind, demands[i].kind);
    EXPECT_DOUBLE_EQ(round[i].volume_tbps, demands[i].volume_tbps);
    EXPECT_EQ(round[i].sources, demands[i].sources);
    EXPECT_EQ(round[i].targets, demands[i].targets);
  }
}

TEST(DemandIo, EditedVolumeSurvives) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  DemandSet demands = generate_demands(region);
  json::Value exported = demands_to_json(region.topo, demands);
  // An operator bumps the first demand by 30% in the matrix file.
  auto& first = exported.as_object()["demands"].as_array()[0].as_object();
  const double bumped = first["volume_tbps"].as_double() * 1.3;
  first["volume_tbps"] = json::Value(bumped);

  const DemandSet round = demands_from_json(region.topo, exported);
  EXPECT_NEAR(round[0].volume_tbps, bumped, 1e-12);
}

TEST(DemandIo, UnknownSwitchRejectedWithName) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  const char* text = R"({"demands": [{
    "name": "bad", "kind": "egress", "volume_tbps": 1.0,
    "sources": ["ghost-switch"], "targets": ["ebb0"]}]})";
  try {
    demands_from_json(region.topo, json::parse(text));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ghost-switch"), std::string::npos);
  }
}

TEST(DemandIo, NonPositiveVolumeRejected) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  const char* text = R"({"demands": [{
    "name": "zero", "kind": "egress", "volume_tbps": 0,
    "sources": ["eb0"], "targets": ["ebb0"]}]})";
  EXPECT_THROW(demands_from_json(region.topo, json::parse(text)),
               std::invalid_argument);
}

TEST(DemandIo, VolumesOutsideTheFixedPointRangeAreRejected) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  // 1e300 parses as a number; inf cannot be spelled in JSON text, but a
  // caller handing over a built document can carry one.
  for (const double volume :
       {1e300, 32768.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -2.0}) {
    json::Value doc = json::parse(R"({"demands": [{
      "name": "huge", "kind": "egress", "volume_tbps": 1.0,
      "sources": ["eb0"], "targets": ["ebb0"]}]})");
    doc.as_object()["demands"].as_array()[0].as_object()["volume_tbps"] =
        json::Value(volume);
    try {
      demands_from_json(region.topo, doc);
      ADD_FAILURE() << "volume " << volume << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'huge' volume_tbps"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest volume below the range still converts.
  const DemandSet ok = demands_from_json(
      region.topo, json::parse(R"({"demands": [{
      "name": "big", "kind": "egress", "volume_tbps": 32767.5,
      "sources": ["eb0"], "targets": ["ebb0"]}]})"));
  EXPECT_EQ(demand_load(ok[0]), static_cast<Load>(32767.5 * 0x1p48));
}

TEST(DemandIo, EmptyEndpointsRejected) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  const char* text = R"({"demands": [{
    "name": "no-targets", "kind": "egress", "volume_tbps": 1.0,
    "sources": ["eb0"], "targets": []}]})";
  EXPECT_THROW(demands_from_json(region.topo, json::parse(text)),
               std::invalid_argument);
}

TEST(DemandIo, ImportedMatrixPlansEndToEnd) {
  // Full §7.1 loop: generate, export, re-import, and plan with the matrix.
  migration::MigrationCase mig = klotski::testing::small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  task.demands = demands_from_json(
      *task.topo, demands_to_json(*task.topo, task.demands));

  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  const core::Plan plan =
      pipeline::make_planner("astar")->plan(task, *bundle.checker, {});
  EXPECT_TRUE(plan.found) << plan.failure;
}

}  // namespace
}  // namespace klotski::traffic
