// klotski_chaos — seeded chaos sweeps over the replan driver.
//
//   klotski_chaos --seeds=100 --threads=4 --preset=a
//   klotski_chaos --seed-range=500:600 --preset=b --max-replans=6
//   klotski_chaos --seed=42 --trajectory        # one seed, verbose
//
// Each seed builds the preset migration, generates a deterministic fault
// script (circuit degradations/failures, unplanned switch drains, demand
// surges, forecast-error windows, injected step failures with partial block
// application), executes it through the hardened replan driver with the
// invariant checker observing every phase, then kills and resumes the run
// from a JSON-round-tripped mid-run checkpoint and requires a byte-identical
// continuation.
//
// Flags:
//   --seeds        number of seeds to run              (default 25)
//   --first-seed   first seed of the sweep             (default 0)
//   --seed-range   LO:HI (HI exclusive), overrides --seeds/--first-seed
//   --seed         run exactly one seed, verbosely
//   --threads      worker threads; verdicts are identical at any value
//                  (default 1)
//   --family       clos | flat | reconf                (default clos)
//   --preset       a | b | c | d | e                   (default a)
//   --scale        reduced | full                      (default reduced)
//   --planner      astar | dp | mrc | janus | brute    (default astar)
//   --fallback     fallback planner after --max-replans (default mrc)
//   --max-replans  planning rounds before degrading, 0 = never (default 0)
//   --retries      per-phase retry budget              (default 6)
//   --theta        utilization bound in (0, 1]         (default 0.75)
//   --growth       organic demand growth per step, >= -1 (default 0.002)
//   --degrades / --circuit-failures / --drains / --step-failures /
//   --surges / --forecast-errors    fault-script event counts
//   --no-resume-check   skip the checkpoint kill/resume self-test
//   --no-warm-repair    every re-plan is a cold search (warm-start
//                       ablation; DESIGN.md §11)
//   --repair-cost-slack accept a surviving plan suffix when its cost is
//                       within this factor of the from-scratch lower
//                       bound (default 1.25)
//   --trajectory   print per-phase trajectories (single seed only)
//   --connect      run the sweep remotely: submit one chaos job to a
//                  klotski_served daemon (unix:PATH | tcp:HOST:PORT) via
//                  the serve client library and report its verdicts; the
//                  daemon's admission control applies (an "overloaded"
//                  answer exits 3 so sweep drivers can back off)
//   --metrics-out  write the metrics registry JSON here
//   --trace-out    write Chrome trace_event JSON here
//
// Counts are integers in [0, INT_MAX] (--seeds and --threads >= 1), seeds
// in [0, INT64_MAX], and --repair-cost-slack finite and >= 0; a value out
// of its range is a usage error naming the flag.
//
// Exit status: 0 all seeds passed; 1 failures (every failing seed is
// listed); 2 usage error; 3 daemon rejected the job (--connect only).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "klotski/serve/client.h"
#include "klotski/sim/chaos.h"
#include "klotski/util/flags.h"
#include "common/tool_runner.h"

namespace {

using namespace klotski;

bool parse_preset(const std::string& text, topo::PresetId& out) {
  if (text == "a") out = topo::PresetId::kA;
  else if (text == "b") out = topo::PresetId::kB;
  else if (text == "c") out = topo::PresetId::kC;
  else if (text == "d") out = topo::PresetId::kD;
  else if (text == "e") out = topo::PresetId::kE;
  else return false;
  return true;
}

/// An integer flag in [min, INT_MAX]; throws std::invalid_argument naming
/// the flag otherwise, so 4294967297 is refused rather than narrowed to 1.
int count_flag(const util::Flags& flags, const std::string& name,
               int fallback, int min) {
  constexpr int kMax = std::numeric_limits<int>::max();
  const long long value = flags.get_int(name, fallback);
  if (value < min || value > kMax) {
    throw std::invalid_argument("--" + name + " must be an integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(kMax) + "]");
  }
  return static_cast<int>(value);
}

/// A seed flag: any integer in [0, INT64_MAX].
std::uint64_t seed_flag(const util::Flags& flags, const std::string& name) {
  const long long value = flags.get_int(name, 0);
  if (value < 0) {
    throw std::invalid_argument("--" + name + " must be an integer >= 0");
  }
  return static_cast<std::uint64_t>(value);
}

/// Median planning-round latency (ms) across every round of a verdict set;
/// 0 when no rounds ran.
double median_replan_ms(const std::vector<sim::ChaosVerdict>& verdicts) {
  std::vector<double> seconds;
  for (const sim::ChaosVerdict& v : verdicts) {
    for (const pipeline::ReplanRound& round : v.rounds) {
      seconds.push_back(round.seconds);
    }
  }
  if (seconds.empty()) return 0.0;
  const std::size_t mid = seconds.size() / 2;
  std::nth_element(seconds.begin(),
                   seconds.begin() + static_cast<std::ptrdiff_t>(mid),
                   seconds.end());
  return seconds[mid] * 1e3;
}

void print_verdict(const sim::ChaosVerdict& v, bool verbose,
                   bool trajectory) {
  std::cout << "seed " << v.seed << ": "
            << (v.passed() ? "PASS" : "FAIL") << " phases=" << v.phases
            << " replans=" << v.replans << " retries=" << v.phase_retries
            << " fallback=" << v.fallback_plans << " warm=" << v.warm_wins
            << "/" << v.warm_attempts << " cost=" << v.executed_cost;
  if (!v.passed()) std::cout << " (" << v.failure << ")";
  std::cout << "\n";
  if (verbose) {
    for (const std::string& violation : v.violations) {
      std::cout << "  violation: " << violation << "\n";
    }
  }
  if (trajectory) std::cout << v.trajectory;
}

int run(const util::Flags& flags) {
  sim::ChaosParams params;
  try {
    params.family =
        topo::family_from_string(flags.get_string("family", "clos"));
  } catch (const std::invalid_argument&) {
    std::cerr << "klotski_chaos: unknown --family (want clos|flat|reconf)\n";
    return 2;
  }
  if (!parse_preset(flags.get_string("preset", "a"), params.preset)) {
    std::cerr << "klotski_chaos: unknown --preset (want a..e)\n";
    return 2;
  }
  const std::string scale = flags.get_string("scale", "reduced");
  if (scale == "full") {
    params.scale = topo::PresetScale::kFull;
  } else if (scale != "reduced") {
    std::cerr << "klotski_chaos: unknown --scale (want reduced|full)\n";
    return 2;
  }
  params.planner = flags.get_string("planner", "astar");
  params.fallback_planner = flags.get_string("fallback", "mrc");

  // Every numeric flag is range-checked here, before any seed runs, so a
  // bad value is one usage error (exit 2 through tool_main), not a failed
  // verdict per seed. The comparisons are written so that NaN fails them.
  params.max_replans = count_flag(flags, "max-replans", 0, 0);
  params.max_phase_retries = count_flag(flags, "retries", 6, 0);
  params.checker.demand.max_utilization = flags.get_double("theta", 0.75);
  pipeline::check_checker_config(params.checker);
  params.growth_per_step = flags.get_double("growth", 0.002);
  if (!(params.growth_per_step >= -1.0 &&
        std::isfinite(params.growth_per_step))) {
    throw std::invalid_argument("--growth must be finite and >= -1");
  }
  params.faults.circuit_degrades = count_flag(flags, "degrades", 2, 0);
  params.faults.circuit_failures =
      count_flag(flags, "circuit-failures", 1, 0);
  params.faults.switch_drains = count_flag(flags, "drains", 1, 0);
  params.faults.step_failures = count_flag(flags, "step-failures", 2, 0);
  params.faults.demand_events = count_flag(flags, "surges", 1, 0);
  params.faults.forecast_errors = count_flag(flags, "forecast-errors", 1, 0);
  params.checkpoint_self_test = !flags.get_bool("no-resume-check", false);
  params.warm_repair = !flags.get_bool("no-warm-repair", false);
  params.repair_cost_slack = flags.get_double("repair-cost-slack", 1.25);
  if (!(params.repair_cost_slack >= 0.0 &&
        std::isfinite(params.repair_cost_slack))) {
    throw std::invalid_argument("--repair-cost-slack must be finite and >= 0");
  }

  const int threads = count_flag(flags, "threads", 1, 1);
  std::uint64_t first_seed = seed_flag(flags, "first-seed");
  int num_seeds = count_flag(flags, "seeds", 25, 1);
  const std::string range = flags.get_string("seed-range", "");
  if (!range.empty()) {
    const std::size_t colon = range.find(':');
    if (colon == std::string::npos) {
      std::cerr << "klotski_chaos: --seed-range wants LO:HI\n";
      return 2;
    }
    try {
      const long long lo = std::stoll(range.substr(0, colon));
      const long long hi = std::stoll(range.substr(colon + 1));
      if (lo < 0 || hi <= lo || hi - lo > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("empty or oversized range");
      }
      first_seed = static_cast<std::uint64_t>(lo);
      num_seeds = static_cast<int>(hi - lo);
    } catch (const std::exception&) {
      std::cerr << "klotski_chaos: bad --seed-range '" << range << "'\n";
      return 2;
    }
  }
  if (flags.has("seed")) {
    first_seed = seed_flag(flags, "seed");
    num_seeds = 1;
  }

  const bool single = num_seeds == 1;
  const bool trajectory = flags.get_bool("trajectory", false) && single;

  // Remote mode: the sweep runs inside a klotski_served worker as one
  // cooperative-stop-aware job; this process only speaks the protocol.
  const std::string connect = flags.get_string("connect", "");
  if (!connect.empty()) {
    json::Object params_json;
    params_json["family"] = topo::to_string(params.family);
    params_json["preset"] = flags.get_string("preset", "a");
    params_json["scale"] = scale;
    params_json["planner"] = params.planner;
    params_json["theta"] = params.checker.demand.max_utilization;
    params_json["growth"] = params.growth_per_step;
    params_json["max_replans"] = params.max_replans;
    params_json["retries"] = params.max_phase_retries;
    params_json["resume_check"] = params.checkpoint_self_test;
    params_json["no_warm_repair"] = !params.warm_repair;
    params_json["repair_cost_slack"] = params.repair_cost_slack;
    params_json["degrades"] = params.faults.circuit_degrades;
    params_json["circuit_failures"] = params.faults.circuit_failures;
    params_json["drains"] = params.faults.switch_drains;
    params_json["step_failures"] = params.faults.step_failures;
    params_json["surges"] = params.faults.demand_events;
    params_json["forecast_errors"] = params.faults.forecast_errors;
    params_json["first_seed"] = static_cast<std::int64_t>(first_seed);
    params_json["seeds"] = num_seeds;

    serve::Client client = serve::Client::connect_with_retry(
        serve::Endpoint::parse(connect), /*attempts=*/5);
    const serve::Response resp = client.submit_and_wait(
        "chaos", json::Value(std::move(params_json)), "chaos-sweep");
    if (resp.status == "overloaded" || resp.status == "draining") {
      std::cerr << "klotski_chaos: daemon " << resp.status << "\n";
      return 3;
    }
    if (!resp.ok()) {
      std::cerr << "klotski_chaos: remote sweep failed: " << resp.error
                << "\n";
      return 2;
    }
    const long long seeds_run = resp.result.get_int("seeds_run", 0);
    const long long failures = resp.result.get_int("failures", 0);
    std::vector<std::int64_t> failing;
    if (const json::Value* verdicts =
            resp.result.as_object().find("verdicts")) {
      for (const json::Value& v : verdicts->as_array()) {
        if (!v.get_bool("passed", false)) {
          failing.push_back(v.get_int("seed", -1));
          std::cout << "seed " << v.get_int("seed", -1) << ": FAIL ("
                    << v.get_string("failure", "") << ")\n";
        }
      }
    }
    std::cout << "chaos sweep (remote via " << connect << "): "
              << (seeds_run - failures) << "/" << seeds_run
              << " seeds passed, warm "
              << resp.result.get_int("warm_wins", 0) << "/"
              << resp.result.get_int("warm_attempts", 0)
              << ", median replan "
              << resp.result.get_double("median_replan_ms", 0.0) << " ms";
    if (resp.result.get_bool("stopped", false)) {
      std::cout << " (stopped early by daemon drain)";
    }
    std::cout << "\n";
    if (failures > 0) {
      std::cout << "failing seeds:";
      for (const std::int64_t s : failing) std::cout << " " << s;
      std::cout << "\n";
      return 1;
    }
    return 0;
  }

  const sim::ChaosSweepResult sweep =
      sim::run_chaos_sweep(first_seed, num_seeds, threads, params);
  for (const sim::ChaosVerdict& v : sweep.verdicts) {
    if (single || !v.passed()) print_verdict(v, single, trajectory);
  }

  int warm_attempts = 0;
  int warm_wins = 0;
  for (const sim::ChaosVerdict& v : sweep.verdicts) {
    warm_attempts += v.warm_attempts;
    warm_wins += v.warm_wins;
  }
  std::cout << "chaos sweep: " << (num_seeds - sweep.failures) << "/"
            << num_seeds << " seeds passed, warm " << warm_wins << "/"
            << warm_attempts << ", median replan "
            << median_replan_ms(sweep.verdicts) << " ms\n";
  if (sweep.failures > 0) {
    std::cout << "failing seeds:";
    for (const std::uint64_t s : sweep.failing_seeds()) {
      std::cout << " " << s;
    }
    std::cout << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_chaos", run,
      {"family", "preset", "scale", "planner", "fallback", "max-replans",
       "retries", "theta", "growth", "degrades", "circuit-failures", "drains",
       "step-failures", "surges", "forecast-errors", "no-resume-check",
       "no-warm-repair", "repair-cost-slack", "threads", "first-seed", "seeds",
       "seed-range", "seed", "trajectory", "connect"});
}
