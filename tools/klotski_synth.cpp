// klotski_synth — generate an NPD document for one of the Table 3 presets
// and a migration type, in any topology family.
//
//   klotski_synth --preset=E --migration=hgrid-v1-to-v2 --out=region-e.npd.json
//   klotski_synth --family=flat --preset=B --out=flat-b.npd.json
//
// Flags:
//   --family     clos | flat | reconf                    (default clos)
//   --preset     A | B | C | D | E                       (default B)
//   --scale      reduced | full                          (default reduced)
//   --migration  hgrid-v1-to-v2 | ssw-forklift | dmag |
//                flat-forklift | reconf-rewire | none
//                (default: the family's canonical migration)
//   --out        output path                             (default: stdout)
#include <iostream>

#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "common/tool_runner.h"

namespace {

int fail_usage(const std::string& message) {
  std::cerr << "klotski_synth: " << message << "\n"
            << "usage: klotski_synth [--family=clos|flat|reconf] "
               "[--preset=A..E] [--scale=reduced|full] "
               "[--migration=hgrid-v1-to-v2|ssw-forklift|dmag|"
               "flat-forklift|reconf-rewire|none] [--out=FILE]\n";
  return 2;
}

int run(const klotski::util::Flags& flags) {
  using namespace klotski;

  const std::string preset_name = flags.get_string("preset", "B");
  topo::PresetId preset;
  if (preset_name == "A") preset = topo::PresetId::kA;
  else if (preset_name == "B") preset = topo::PresetId::kB;
  else if (preset_name == "C") preset = topo::PresetId::kC;
  else if (preset_name == "D") preset = topo::PresetId::kD;
  else if (preset_name == "E") preset = topo::PresetId::kE;
  else return fail_usage("unknown preset '" + preset_name + "'");

  const std::string scale_name = flags.get_string("scale", "reduced");
  topo::PresetScale scale;
  if (scale_name == "reduced") scale = topo::PresetScale::kReduced;
  else if (scale_name == "full") scale = topo::PresetScale::kFull;
  else return fail_usage("unknown scale '" + scale_name + "'");

  npd::NpdDocument doc;
  try {
    const topo::TopologyFamily family =
        topo::family_from_string(flags.get_string("family", "clos"));
    npd::MigrationKind migration = npd::default_migration(family);
    if (flags.has("migration")) {
      migration =
          npd::migration_kind_from_string(flags.get_string("migration", ""));
    }
    doc = pipeline::synth_document(family, preset, scale, migration);
  } catch (const std::invalid_argument& e) {
    return fail_usage(e.what());
  }

  const std::string text = npd::dump_npd(doc) + "\n";
  const std::string out = flags.get_string("out", "");
  if (out.empty()) {
    std::cout << text;
  } else {
    util::write_file(out, text);
    std::cerr << "wrote " << out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_synth", run,
      {"preset", "scale", "family", "migration", "out"});
}
