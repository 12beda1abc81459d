// Golden-plan regression corpus: for Clos presets A-C plus the flat and
// reconf preset-A cases (all reduced scale), and full-scale Clos D (the
// instance perfbench's plan-cold workload plans), the default pipeline
// (klotski_synth | klotski_plan --planner=astar) must reproduce the
// committed plan JSON byte-for-byte, stats counters included. Any
// intentional change to the planner, the checker, the preset parameters,
// or the JSON encoder shows up as a readable diff; regenerate with
// scripts/regen_golden.sh.
#include <gtest/gtest.h>

#include <string>

#include "klotski/json/json.h"
#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/util/file.h"

namespace klotski {
namespace {

// The cases sit in a static table rather than in stack temporaries: gtest
// prints a parameter without a PrintTo as its raw bytes, ctest folds that
// dump into the test name, and static storage zeroes the padding after
// `family` that the name would otherwise read as stack garbage. The
// one-byte `full_scale` sits in that padding, so adding it changed neither
// the struct's size nor the reduced cases' names.
struct GoldenCase {
  topo::TopologyFamily family;
  bool full_scale;  // false: reduced scale
  topo::PresetId preset;
  const char* label;  // test-name suffix
  const char* file;   // golden file name under tests/golden/
};

class GoldenPlan : public ::testing::TestWithParam<GoldenCase> {};

/// The exact document klotski_synth emits for
///   --family=<F> --preset=<X> --scale=<S>
/// including the serialize/parse round trip the file I/O performs.
npd::NpdDocument golden_document(const GoldenCase& gc) {
  const npd::NpdDocument doc = pipeline::synth_document(
      gc.family, gc.preset,
      gc.full_scale ? topo::PresetScale::kFull : topo::PresetScale::kReduced,
      npd::default_migration(gc.family));
  return npd::parse_npd(npd::dump_npd(doc));
}

TEST_P(GoldenPlan, DefaultPipelineOutputIsByteExact) {
  const GoldenCase& gc = GetParam();
  migration::MigrationCase mig = npd::build_case(golden_document(gc));

  // klotski_plan defaults: theta 0.75, ecmp, alpha 0, single thread.
  const pipeline::CheckerConfig checker_config;
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, checker_config);
  const auto planner = pipeline::make_planner("astar");
  const core::Plan plan =
      planner->plan(mig.task, *bundle.checker, core::PlannerOptions{});
  ASSERT_TRUE(plan.found) << plan.failure;

  // Everything in the plan document is deterministic except the wall-clock
  // stat; zero it on both sides (regen_golden.sh commits it as 0 too).
  json::Value produced_doc = pipeline::plan_to_json(mig.task, plan);
  produced_doc.as_object()["stats"].as_object()["wall_seconds"] =
      json::Value(0);
  const std::string produced = json::dump(produced_doc, 2) + "\n";
  const std::string path =
      std::string(KLOTSKI_SOURCE_DIR) + "/tests/golden/" + gc.file;
  json::Value golden_doc = json::parse(util::read_file(path));
  golden_doc.as_object()["stats"].as_object()["wall_seconds"] =
      json::Value(0);
  const std::string golden = json::dump(golden_doc, 2) + "\n";
  EXPECT_EQ(produced, golden)
      << "plan output drifted from " << path
      << "\nIf the change is intentional, run scripts/regen_golden.sh and "
         "commit the updated corpus.";
}

constexpr GoldenCase kGoldenCases[] = {
    {topo::TopologyFamily::kClos, false, topo::PresetId::kA, "ClosA",
     "plan-a.json"},
    {topo::TopologyFamily::kClos, false, topo::PresetId::kB, "ClosB",
     "plan-b.json"},
    {topo::TopologyFamily::kClos, false, topo::PresetId::kC, "ClosC",
     "plan-c.json"},
    {topo::TopologyFamily::kFlat, false, topo::PresetId::kA, "FlatA",
     "plan-flat.json"},
    {topo::TopologyFamily::kReconf, false, topo::PresetId::kA, "ReconfA",
     "plan-reconf.json"},
    {topo::TopologyFamily::kClos, true, topo::PresetId::kD, "ClosDFull",
     "plan-d-full.json"},
};

INSTANTIATE_TEST_SUITE_P(
    FamilyPresets, GoldenPlan, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace klotski
