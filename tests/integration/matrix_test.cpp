// Cross-configuration matrix: planner agreement and audit over the product
// of {migration type} x {meshing pattern} x {routing policy}, plus
// full-scale builder validation for every preset. This is the "does every
// combination of knobs still produce optimal, safe plans" net.
#include <gtest/gtest.h>

#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/topo/presets.h"

namespace klotski {
namespace {

// gtest prints a parameter without a PrintTo as its raw bytes, and ctest
// folds that dump into the test name. The enum knobs lead and the cases sit
// in a static table (zeroed padding), so the name's leading bytes are the
// same in every build and run; only the trailing pointer bytes move.
struct MatrixCase {
  topo::MeshPattern mesh;
  traffic::SplitMode routing;
  const char* migration;  // "hgrid" | "ssw" | "dmag"
};

std::string matrix_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name = info.param.migration;
  name += info.param.mesh == topo::MeshPattern::kPlaneAligned ? "_aligned"
                                                              : "_interleaved";
  name += info.param.routing == traffic::SplitMode::kEqualSplit ? "_ecmp"
                                                                : "_wcmp";
  return name;
}

migration::MigrationCase build(const MatrixCase& param) {
  topo::RegionParams region =
      topo::preset_params(topo::PresetId::kA, topo::PresetScale::kFull);
  region.mesh = param.mesh;
  const std::string kind = param.migration;
  if (kind == "hgrid") return migration::build_hgrid_migration(region, {});
  if (kind == "ssw") return migration::build_ssw_forklift(region, {});
  return migration::build_dmag_migration(region, {});
}

class ConfigurationMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigurationMatrix, PlannersAgreeAndAudit) {
  migration::MigrationCase mig = build(GetParam());
  migration::MigrationTask& task = mig.task;
  ASSERT_EQ(task.validate(), "");

  pipeline::CheckerConfig config;
  config.routing = GetParam().routing;

  auto run = [&](const char* name) {
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(task, config);
    core::PlannerOptions options;
    options.deadline_seconds = 120;
    return pipeline::make_planner(name)->plan(task, *bundle.checker,
                                              options);
  };

  const core::Plan astar = run("astar");
  const core::Plan dp = run("dp");
  const core::Plan oracle = run("brute");
  ASSERT_EQ(astar.found, oracle.found) << astar.failure;
  ASSERT_EQ(dp.found, oracle.found) << dp.failure;
  if (!oracle.found) return;
  EXPECT_DOUBLE_EQ(astar.cost, oracle.cost);
  EXPECT_DOUBLE_EQ(dp.cost, oracle.cost);

  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(task, config);
  const pipeline::AuditReport report =
      pipeline::audit_plan(task, *bundle.checker, astar);
  EXPECT_TRUE(report.ok) << (report.issues.empty() ? "" : report.issues[0]);
}

using Mesh = topo::MeshPattern;
using Split = traffic::SplitMode;
constexpr MatrixCase kMatrixCases[] = {
    {Mesh::kPlaneAligned, Split::kEqualSplit, "hgrid"},
    {Mesh::kPlaneAligned, Split::kCapacityWeighted, "hgrid"},
    {Mesh::kInterleaved, Split::kEqualSplit, "hgrid"},
    {Mesh::kInterleaved, Split::kCapacityWeighted, "hgrid"},
    {Mesh::kPlaneAligned, Split::kEqualSplit, "ssw"},
    {Mesh::kInterleaved, Split::kEqualSplit, "ssw"},
    {Mesh::kPlaneAligned, Split::kCapacityWeighted, "ssw"},
    {Mesh::kPlaneAligned, Split::kEqualSplit, "dmag"},
    {Mesh::kInterleaved, Split::kEqualSplit, "dmag"},
    {Mesh::kPlaneAligned, Split::kCapacityWeighted, "dmag"},
};

INSTANTIATE_TEST_SUITE_P(AllKnobs, ConfigurationMatrix,
                         ::testing::ValuesIn(kMatrixCases), matrix_name);

// ---------------------------------------------------------------------------
// Every preset builds a structurally valid region at both scales.

struct BuildCase {
  topo::PresetId preset;
  topo::PresetScale scale;
};

class PresetBuilds : public ::testing::TestWithParam<BuildCase> {};

TEST_P(PresetBuilds, TopologyValidates) {
  const topo::Region region =
      topo::build_preset(GetParam().preset, GetParam().scale);
  EXPECT_EQ(region.topo.validate(), "");
  // Index structures cover every fabric switch exactly once.
  std::size_t indexed = 0;
  for (int dc = 0; dc < region.num_dcs(); ++dc) {
    indexed += region.rsws[dc].size() + region.fsws[dc].size();
    for (const auto& plane : region.ssws[dc]) indexed += plane.size();
  }
  for (int g = 0; g < region.num_grids(); ++g) {
    indexed += region.fauus[g].size();
    for (const auto& per_dc : region.fadus[g]) indexed += per_dc.size();
  }
  indexed += region.ebs.size() + region.drs.size() + region.ebbs.size();
  EXPECT_EQ(indexed, region.topo.num_switches());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresetsBothScales, PresetBuilds,
    ::testing::Values(
        BuildCase{topo::PresetId::kA, topo::PresetScale::kReduced},
        BuildCase{topo::PresetId::kA, topo::PresetScale::kFull},
        BuildCase{topo::PresetId::kB, topo::PresetScale::kReduced},
        BuildCase{topo::PresetId::kB, topo::PresetScale::kFull},
        BuildCase{topo::PresetId::kC, topo::PresetScale::kReduced},
        BuildCase{topo::PresetId::kC, topo::PresetScale::kFull},
        BuildCase{topo::PresetId::kD, topo::PresetScale::kReduced},
        BuildCase{topo::PresetId::kD, topo::PresetScale::kFull},
        BuildCase{topo::PresetId::kE, topo::PresetScale::kReduced},
        BuildCase{topo::PresetId::kE, topo::PresetScale::kFull}),
    [](const auto& info) {
      return topo::to_string(info.param.preset) +
             (info.param.scale == topo::PresetScale::kFull
                  ? std::string("_full")
                  : std::string("_reduced"));
    });

}  // namespace
}  // namespace klotski
