// klotski_metrics_check — validate observability artifacts emitted by
// klotski_plan / klotski_audit, using the in-tree JSON parser (so the check
// also proves the emitted JSON round-trips through klotski_json).
//
//   klotski_metrics_check --metrics=m.json [--trace=t.json]
//
// Flags:
//   --metrics      metrics JSON written by --metrics-out (required)
//   --trace        trace JSON written by --trace-out; checked to be a
//                  well-formed Chrome trace_event document, and complete:
//                  the run's trace.dropped counter must be 0
//
// Always checked on --metrics:
//   * schema == "klotski.metrics.v1"
//   * evaluator.sat_cache_hits + evaluator.sat_cache_misses ==
//     evaluator.evaluations (when any of the three is present)
//   * replan.warm_wins + replan.fallback_full == replan.warm_attempts
//     (when any of the three is present — every warm-repair attempt either
//     wins or falls back to a full replan, never both or neither)
//   * quotient.checks + quotient.fallback_not_applicable ==
//     quotient.scoped_checks (when any of the three is present — every
//     demand check inside a search scope is answered on the quotient or,
//     when the quotient does not apply, routed on the fabric, exactly once)
//
// Exit status: 0 all checks passed, 1 a check failed, 2 usage/input error.
#include <iostream>
#include <string>

#include "klotski/json/json.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "common/tool_runner.h"

namespace {

using klotski::json::Value;

long long counter_value(const Value& metrics, const std::string& name) {
  const Value* counters = metrics.at("counters").as_object().find(name);
  return counters == nullptr ? 0 : counters->as_int();
}

bool has_counter(const Value& metrics, const std::string& name) {
  return metrics.at("counters").as_object().find(name) != nullptr;
}

int run(const klotski::util::Flags& flags) {
  using namespace klotski;

  const std::string metrics_path = flags.get_string("metrics", "");
  if (metrics_path.empty()) {
    std::cerr << "klotski_metrics_check: --metrics=FILE is required\n";
    return 2;
  }

  {
    const Value metrics = json::parse(util::read_file(metrics_path));
    if (metrics.get_string("schema", "") != "klotski.metrics.v1") {
      std::cerr << "FAIL: " << metrics_path
                << " does not carry schema klotski.metrics.v1\n";
      return 1;
    }

    // The sat-cache consistency invariant: every evaluation is either a
    // cache hit or a miss (which triggers a checker run), never both or
    // neither. The three counters are maintained independently, so this is
    // a real cross-check, not an identity.
    if (has_counter(metrics, "evaluator.evaluations") ||
        has_counter(metrics, "evaluator.sat_cache_hits") ||
        has_counter(metrics, "evaluator.sat_cache_misses")) {
      const long long hits = counter_value(metrics, "evaluator.sat_cache_hits");
      const long long misses =
          counter_value(metrics, "evaluator.sat_cache_misses");
      const long long evals = counter_value(metrics, "evaluator.evaluations");
      if (hits + misses != evals) {
        std::cerr << "FAIL: sat_cache_hits (" << hits << ") + sat_cache_misses ("
                  << misses << ") != evaluations (" << evals << ")\n";
        return 1;
      }
      std::cout << "ok: " << hits << " hits + " << misses
                << " misses == " << evals << " evaluations\n";
    }

    // Warm-repair accounting: an attempt either repairs the surviving
    // suffix (a win) or declines and runs a full replan (a fallback).
    if (has_counter(metrics, "replan.warm_attempts") ||
        has_counter(metrics, "replan.warm_wins") ||
        has_counter(metrics, "replan.fallback_full")) {
      const long long attempts =
          counter_value(metrics, "replan.warm_attempts");
      const long long wins = counter_value(metrics, "replan.warm_wins");
      const long long fallbacks =
          counter_value(metrics, "replan.fallback_full");
      if (wins + fallbacks != attempts) {
        std::cerr << "FAIL: warm_wins (" << wins << ") + fallback_full ("
                  << fallbacks << ") != warm_attempts (" << attempts << ")\n";
        return 1;
      }
      std::cout << "ok: " << wins << " warm wins + " << fallbacks
                << " full fallbacks == " << attempts << " warm attempts\n";
    }

    // Search-scope accounting: where every scoped demand check went.
    if (has_counter(metrics, "quotient.scoped_checks") ||
        has_counter(metrics, "quotient.checks") ||
        has_counter(metrics, "quotient.fallback_not_applicable")) {
      const long long scoped = counter_value(metrics, "quotient.scoped_checks");
      const long long quotient = counter_value(metrics, "quotient.checks");
      const long long not_applicable =
          counter_value(metrics, "quotient.fallback_not_applicable");
      if (quotient + not_applicable != scoped) {
        std::cerr << "FAIL: quotient.checks (" << quotient
                  << ") + fallback_not_applicable (" << not_applicable
                  << ") != scoped_checks (" << scoped << ")\n";
        return 1;
      }
      std::cout << "ok: " << quotient << " quotient checks + "
                << not_applicable << " fabric fallbacks == " << scoped
                << " scoped checks\n";
    }

    const std::string trace_path = flags.get_string("trace", "");
    if (!trace_path.empty()) {
      const Value trace = json::parse(util::read_file(trace_path));
      std::size_t spans = 0;
      for (const Value& event : trace.at("traceEvents").as_array()) {
        if (event.get_string("ph", "") != "X") {
          std::cerr << "FAIL: trace event with ph != \"X\" in " << trace_path
                    << "\n";
          return 1;
        }
        event.at("name").as_string();
        event.at("ts").as_int();
        event.at("dur").as_int();
        ++spans;
      }
      // A full trace ring overwrites its oldest spans; such a trace is
      // missing its start.
      const long long dropped = counter_value(metrics, "trace.dropped");
      if (dropped != 0) {
        std::cerr << "FAIL: the tracer dropped " << dropped << " spans; "
                  << trace_path << " is incomplete\n";
        return 1;
      }
      std::cout << "ok: " << trace_path << " holds " << spans
                << " well-formed trace events, none dropped\n";
    }

    return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_metrics_check", run,
      {"metrics", "trace"});
}
