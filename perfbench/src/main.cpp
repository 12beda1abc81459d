// perfbench — the repository benchmark's workload runner.
//
//   perfbench --workload=plan-cold --seed=1 --seconds=25 --trace=0
//             --data-dir=perfbench/data --out-dir=.bench_build/out
//             [--served=.bench_build/klotski_served]
//   perfbench --record-verdicts=perfbench/data/replan-b-verdicts.json
//
// Runs one workload (plan-cold | whatif-sweep | serve-mixed |
// replan-faults; see perfbench/README.md), checks every output against its
// oracle, prints a human-readable report and, as the last line of standard
// output, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u}, ...}}
//
// With --trace=0 the metrics are the end-to-end ones; with --trace=1 the run
// is split into an untraced and a traced half and the metrics are the
// per-layer ledger. Exit status: 0 every oracle held, 1 some oracle failed,
// 2 usage or set-up error (no JSON line), 3 not a Release build.
// --record-verdicts regenerates the replan-faults fault seed pool and exits.
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>

#include "common.h"
#include "klotski/json/json.h"
#include "klotski/util/flags.h"

namespace {

using namespace perfbench;

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string result_line(const Result& result) {
  klotski::json::Object metrics;
  for (const auto& [name, metric] : result.metrics) {
    klotski::json::Object m;
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    metrics[name] = klotski::json::Value(std::move(m));
  }
  klotski::json::Object out;
  out["correct"] = result.correct();
  out["attempted"] = static_cast<std::int64_t>(result.attempted);
  out["failed"] = static_cast<std::int64_t>(result.failed);
  out["metrics"] = klotski::json::Value(std::move(metrics));
  return klotski::json::dump(klotski::json::Value(std::move(out)));
}

void print_report(const Options& options, const Result& result) {
  std::cout << "workload " << options.workload << "  seed " << options.seed
            << "  seconds " << options.seconds << "  trace "
            << (options.trace ? 1 : 0) << "  build " << PERFBENCH_BUILD_TYPE
            << "\n";
  for (const std::string& note : result.notes) std::cout << "  " << note << "\n";
  const auto& order =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::cout << (options.trace ? "per-layer ledger" : "end-to-end") << ":\n";
  for (const auto& [name, unit] : order) {
    std::cout << "  " << std::left << std::setw(34) << name << std::right
              << std::setw(16) << std::setprecision(6)
              << result.metrics.at(name).value << " " << unit << "\n";
  }
  std::cout << "oracle: " << result.attempted - result.failed << "/"
            << result.attempted << " operations correct\n";
  for (const std::string& failure : result.failures) {
    std::cout << "  FAILED " << failure << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const klotski::util::Flags flags = klotski::util::Flags::parse(argc, argv);
  if (!release_build()) {
    std::cerr << "perfbench: refusing to record numbers from a "
              << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (flags.has("record-verdicts")) {
    try {
      record_replan_verdicts(flags.get_string("record-verdicts", ""));
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 2;
    }
    return 0;
  }
  Options options;
  try {
    options.workload = flags.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
    options.seconds = flags.get_double("seconds", 10.0);
    options.trace = flags.get_int("trace", 0) != 0;
    options.served = flags.get_string("served", "");
    options.data_dir = flags.get_string("data-dir", "perfbench/data");
    options.out_dir = flags.get_string("out-dir", ".bench_build/out");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (options.seconds <= 0.0) {
    std::cerr << "perfbench: --seconds must be > 0\n";
    return 2;
  }

  Result result;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "plan-cold") {
      result = run_plan_cold(options);
    } else if (options.workload == "whatif-sweep") {
      result = run_whatif_sweep(options);
    } else if (options.workload == "serve-mixed") {
      result = run_serve_mixed(options);
    } else if (options.workload == "replan-faults") {
      result = run_replan_faults(options);
    } else {
      std::cerr << "perfbench: unknown --workload '" << options.workload
                << "' (plan-cold | whatif-sweep | serve-mixed | "
                   "replan-faults)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what()
              << "\n";
    return 2;
  }

  print_report(options, result);
  std::cout << result_line(result) << std::endl;
  return result.correct() ? 0 : 1;
}
