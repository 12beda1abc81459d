// The NPD documents shipped in examples/npd/ must stay parseable and
// plannable — they are the repository's public face for operators.
#include <gtest/gtest.h>

#include <chrono>

#include "klotski/npd/npd.h"
#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/util/file.h"

namespace klotski::npd {
namespace {

std::string npd_path(const char* file) {
  return std::string(KLOTSKI_SOURCE_DIR) + "/examples/npd/" + file;
}

class ShippedNpdFiles : public ::testing::TestWithParam<const char*> {};

TEST_P(ShippedNpdFiles, ParsesRoundTripsAndPlans) {
  const std::string text = util::read_file(npd_path(GetParam()));
  const NpdDocument doc = parse_npd(text);
  EXPECT_NE(doc.migration, MigrationKind::kNone);

  // Serialization round trip preserves the parsed document.
  const NpdDocument round = parse_npd(dump_npd(doc));
  EXPECT_EQ(round.migration, doc.migration);
  EXPECT_EQ(round.region.dcs, doc.region.dcs);
  EXPECT_EQ(round.region.grids, doc.region.grids);

  pipeline::EdpOptions options;
  options.planner_options.deadline_seconds = 300;
  const pipeline::EdpResult result = pipeline::run_pipeline(doc, options);
  ASSERT_TRUE(result.plan.found) << GetParam() << ": "
                                 << result.plan.failure;

  migration::MigrationTask& task =
      const_cast<migration::MigrationTask&>(result.migration.task);
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  EXPECT_TRUE(pipeline::audit_plan(task, *bundle.checker, result.plan).ok);
}

// Range-checked integer reads must not refuse a shipped document, and the
// document must come back from dump_npd exactly as it was read.
TEST_P(ShippedNpdFiles, ReadsAndDumpsUnchanged) {
  const NpdDocument doc =
      parse_npd(util::read_file(npd_path(GetParam())));
  const std::string dumped = dump_npd(doc);
  EXPECT_EQ(dump_npd(parse_npd(dumped)), dumped) << GetParam();
  EXPECT_EQ(to_json(parse_npd(dumped)), to_json(doc)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Files, ShippedNpdFiles,
                         ::testing::Values("region-b-hgrid.npd.json",
                                           "region-c-ssw-forklift.npd.json",
                                           "region-c-dmag.npd.json",
                                           "flat-b-forklift.npd.json",
                                           "reconf-b-rewire.npd.json"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

/// A shipped document with one integer field's value replaced.
std::string file_with(const char* file, const std::string& key,
                      const std::string& value) {
  std::string text = util::read_file(npd_path(file));
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find_first_of(",\n}", begin);
  return text.replace(begin, end - begin, value);
}

std::string hgrid_with(const std::string& key, const std::string& value) {
  return file_with("region-b-hgrid.npd.json", key, value);
}

std::string refusal(const std::string& text) {
  try {
    parse_npd(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// 2^32 + 3 used to wrap to 3 through a bare int cast and plan as pods: 3.
TEST(ShippedNpdRanges, OutOfRangeCountIsRefusedNamingTheField) {
  const std::string message = refusal(hgrid_with("pods", "4294967299"));
  EXPECT_NE(message.find("pods"), std::string::npos) << message;
  EXPECT_EQ(parse_npd(hgrid_with("pods", "3")).region.fabrics.front().pods,
            3);
}

TEST(ShippedNpdRanges, NegativeCountIsRefusedNamingTheField) {
  const std::string message = refusal(hgrid_with("grids", "-2"));
  EXPECT_NE(message.find("grids"), std::string::npos) << message;
}

// Counts that fit an int but not the region they ask for: a count past the
// int16 Location field it lands in (planes 40000 used to plan with
// Location::plane wrapped negative), or a region or its staged hardware
// past kMaxRegionElements (pods 2^31 - 1 used to allocate until bad_alloc,
// extra_links 2e9 to loop for minutes). The document parses; building its
// case is refused before the region or the staged hardware is allocated,
// naming the field.
TEST(ShippedNpdRanges, OversizedRegionsAreRefusedNamingTheField) {
  struct Case {
    const char* file;
    const char* field;
    const char* value;
  };
  const Case cases[] = {
      {"region-b-hgrid.npd.json", "pods", "2147483647"},
      {"region-b-hgrid.npd.json", "planes", "40000"},
      {"region-b-hgrid.npd.json", "dcs", "32768"},
      {"region-b-hgrid.npd.json", "grids", "32768"},
      {"region-b-hgrid.npd.json", "rsws_per_pod", "2147483647"},
      {"region-b-hgrid.npd.json", "rsw_fsw_links", "100000"},
      {"region-b-hgrid.npd.json", "v2_grids", "40000"},
      {"region-b-hgrid.npd.json", "v2_fauus_per_grid", "2000000"},
      {"region-c-dmag.npd.json", "fauus_per_grid", "1000000"},
      {"flat-b-forklift.npd.json", "extra_links", "2000000000"},
  };
  for (const Case& c : cases) {
    const NpdDocument doc = parse_npd(file_with(c.file, c.field, c.value));
    const auto start = std::chrono::steady_clock::now();
    std::string message;
    try {
      build_case(doc);
    } catch (const std::invalid_argument& e) {
      message = e.what();
    }
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_NE(message.find(c.field), std::string::npos)
        << c.file << " " << c.field << " = " << c.value << ": " << message;
    EXPECT_LT(took.count(), 1.0) << c.field;
  }
}

}  // namespace
}  // namespace klotski::npd
