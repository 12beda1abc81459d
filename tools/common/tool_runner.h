// Shared main() body for the CLI tools.
//
// Every tool follows the same lifecycle: parse flags, arm the observability
// registry/tracer (so the whole run is instrumented), run, then write the
// observability artifacts on the way out — including error paths, so a
// failed run still leaves its metrics behind. tool_main() is that lifecycle
// in one place; a tool's translation unit is just its run(flags) function
// and a one-line main.
//
//   int main(int argc, char** argv) {
//     return klotski::tools::tool_main(argc, argv, "klotski_plan", run,
//                                      {"npd", "planner", "out"});
//   }
//
// Uncaught exceptions are reported as "<tool>: <what>" and map to the
// usage/input-error exit code (2), matching the tools' documented contract.
//
// `known_flags` lists every flag the tool's run() reads; any other flag
// exits 2 before running, so a typo or a retired flag fails loudly instead
// of running on defaults. --metrics-out and --trace-out are always
// accepted.
#pragma once

#include <algorithm>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>

#include "obs_output.h"
#include "klotski/util/flags.h"

namespace klotski::tools {

inline int tool_main(int argc, const char* const* argv,
                     const std::string& name,
                     int (*run)(const util::Flags&),
                     std::initializer_list<std::string_view> known_flags) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  for (const std::string& flag : flags.names()) {
    if (flag != "metrics-out" && flag != "trace-out" &&
        std::find(known_flags.begin(), known_flags.end(), flag) ==
            known_flags.end()) {
      std::cerr << name << ": unknown flag --" << flag << "\n";
      return 2;
    }
  }
  const ObsOutput obs_out = obs_from_flags(flags);
  int rc = 2;
  try {
    rc = run(flags);
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    rc = 2;
  }
  // Written even on failure: a run that found no plan is exactly the one
  // whose metrics you want to look at.
  write_obs_outputs(obs_out, name);
  return rc;
}

}  // namespace klotski::tools
