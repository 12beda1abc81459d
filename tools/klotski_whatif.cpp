// klotski_whatif — Monte Carlo robustness sweep over a finished plan.
//
//   klotski_whatif --npd=region.npd.json --plan=plan.json --trajectories=1000
//   klotski_whatif --npd=n.json --plan=plan.json --threads=8 --out=report.json
//   klotski_whatif --npd=n.json --plan=plan.json --connect=tcp:plan-svc:7077
//
// Samples N demand futures (per-trajectory organic growth, surge windows,
// forecast-error windows) and re-validates every plan phase against each,
// reporting the fraction of futures the plan survives, the first breaking
// phase, per-phase worst-case headroom, and the safe growth margin (the
// largest uniform demand multiplier the plan tolerates, theta over the
// plan's peak utilization under the base demands). The report is
// byte-identical for the same (inputs, seed, N) at any --threads, locally
// or through a daemon.
//
// Flags:
//   --npd           NPD JSON document (required)
//   --plan          plan JSON produced by klotski_plan (required)
//   --demands       demand-set JSON overriding the NPD demands
//   --out           write the klotski.whatif.v1 report here (default stdout)
//   --trajectories  sampled demand futures          (default 100)
//   --seed          sweep seed                      (default 0)
//   --threads       sweep workers; report is identical at any value
//                   (default 1)
//   --theta         utilization bound in (0, 1]     (default 0.75)
//   --routing       ecmp | wcmp                     (default ecmp)
//   --funneling     funneling margin                (default 0)
//   --growth-min / --growth-max    per-step organic growth range
//                                  (default 0 / 0.004)
//   --surges / --forecast-errors   demand windows per trajectory
//                                  (default 1 / 1)
//   --surge-factor-min / --surge-factor-max    (default 0.8 / 1.5)
//   --bias-factor-min / --bias-factor-max      (default 0.85 / 1.2)
//   --margin-max    cap of the safe growth margin   (default 4)
//   --connect       run the sweep remotely on a klotski_served daemon
//                   (unix:PATH | tcp:HOST:PORT); repeated identical
//                   requests hit the daemon's content-addressed cache.
//                   Also prints the request's round trip, submit to
//                   response, as "request_s=<seconds>" on stderr.
//   --metrics-out   write the metrics registry JSON here
//   --trace-out     write Chrome trace_event JSON here
//
// Exit status: 0 every trajectory stayed safe; 1 some future breaks the
// plan; 2 usage/input error, unknown flags included; 3 daemon rejected the
// job (--connect only).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/serve/client.h"
#include "klotski/traffic/demand_io.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "klotski/whatif/whatif.h"
#include "common/tool_runner.h"

namespace {

using namespace klotski;

whatif::WhatIfParams params_from_flags(const util::Flags& flags) {
  whatif::WhatIfParams params;
  params.trajectories =
      static_cast<int>(flags.get_int("trajectories", 100));
  params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  params.threads = static_cast<int>(flags.get_int("threads", 1));
  params.growth_min = flags.get_double("growth-min", 0.0);
  params.growth_max = flags.get_double("growth-max", 0.004);
  params.surges = static_cast<int>(flags.get_int("surges", 1));
  params.forecast_errors =
      static_cast<int>(flags.get_int("forecast-errors", 1));
  params.surge_factor_min = flags.get_double("surge-factor-min", 0.8);
  params.surge_factor_max = flags.get_double("surge-factor-max", 1.5);
  params.bias_factor_min = flags.get_double("bias-factor-min", 0.85);
  params.bias_factor_max = flags.get_double("bias-factor-max", 1.2);
  params.margin_max = flags.get_double("margin-max", 4.0);
  params.checker.demand.max_utilization = flags.get_double("theta", 0.75);
  params.checker.demand.funneling_margin = flags.get_double("funneling", 0.0);
  if (flags.get_string("routing", "ecmp") == "wcmp") {
    params.checker.routing = traffic::SplitMode::kCapacityWeighted;
  }
  return params;
}

void emit(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::cout << text;
  } else {
    util::write_file(out_path, text);
  }
}

/// Summary + exit code from the parsed report document (shared by the
/// local and remote paths — both hold the same klotski.whatif.v1 doc).
int finish(const json::Value& report, const std::string& origin) {
  const long long run = report.get_int("trajectories_run", 0);
  const long long unsafe = report.get_int("unsafe", 0);
  std::cerr << "whatif" << origin << ": " << (run - unsafe) << "/" << run
            << " futures safe, safe_growth_margin="
            << report.get_double("safe_growth_margin", 0.0);
  if (report.get_bool("margin_saturated", false)) std::cerr << "+";
  if (const json::Value* first_break =
          report.as_object().find("first_break")) {
    std::cerr << ", first break at phase "
              << first_break->get_int("phase", -1) << " (x"
              << first_break->get_double("multiplier", 0.0) << ")";
  }
  if (report.get_bool("stopped", false)) std::cerr << " (stopped early)";
  std::cerr << "\n";
  return unsafe > 0 ? 1 : 0;
}

int run(const util::Flags& flags) {
  const std::string npd_path = flags.get_string("npd", "");
  const std::string plan_path = flags.get_string("plan", "");
  if (npd_path.empty() || plan_path.empty()) {
    std::cerr << "klotski_whatif: --npd=FILE and --plan=FILE are required\n";
    return 2;
  }
  const std::string out_path = flags.get_string("out", "");
  const std::string demands_path = flags.get_string("demands", "");

  const json::Value npd_json = json::parse(util::read_file(npd_path));
  const json::Value plan_json = json::parse(util::read_file(plan_path));
  json::Value demands_json;
  if (!demands_path.empty()) {
    demands_json = json::parse(util::read_file(demands_path));
  }
  const whatif::WhatIfParams params = params_from_flags(flags);

  // Remote mode: the sweep runs inside a klotski_served worker as one
  // cooperative-stop-aware batch job; repeated identical requests are
  // answered from the daemon's content-addressed cache. Re-dumping the
  // returned report recovers the local mode's bytes exactly.
  const std::string connect = flags.get_string("connect", "");
  if (!connect.empty()) {
    json::Object params_json;
    params_json["npd"] = npd_json;
    params_json["plan"] = plan_json;
    if (!demands_path.empty()) params_json["demands"] = demands_json;
    params_json["trajectories"] = params.trajectories;
    params_json["seed"] = static_cast<std::int64_t>(params.seed);
    params_json["theta"] = params.checker.demand.max_utilization;
    params_json["routing"] = flags.get_string("routing", "ecmp");
    params_json["funneling"] = params.checker.demand.funneling_margin;
    params_json["growth_min"] = params.growth_min;
    params_json["growth_max"] = params.growth_max;
    params_json["surges"] = params.surges;
    params_json["forecast_errors"] = params.forecast_errors;
    params_json["surge_factor_min"] = params.surge_factor_min;
    params_json["surge_factor_max"] = params.surge_factor_max;
    params_json["bias_factor_min"] = params.bias_factor_min;
    params_json["bias_factor_max"] = params.bias_factor_max;
    params_json["margin_max"] = params.margin_max;

    serve::Client client = serve::Client::connect_with_retry(
        serve::Endpoint::parse(connect), /*attempts=*/5);
    const auto sent = std::chrono::steady_clock::now();
    const serve::Response resp = client.submit_and_wait(
        "whatif", json::Value(std::move(params_json)), "whatif-sweep");
    const std::chrono::duration<double> round_trip =
        std::chrono::steady_clock::now() - sent;
    std::fprintf(stderr, "request_s=%.6f\n", round_trip.count());
    if (resp.status == "overloaded" || resp.status == "draining") {
      std::cerr << "klotski_whatif: daemon " << resp.status << "\n";
      return 3;
    }
    if (!resp.ok()) {
      std::cerr << "klotski_whatif: remote sweep failed: " << resp.error
                << "\n";
      return 2;
    }
    const json::Value* report = resp.result.as_object().find("report");
    if (report == nullptr) {
      std::cerr << "klotski_whatif: malformed daemon response\n";
      return 2;
    }
    emit(out_path, json::dump(*report, 2) + "\n");
    return finish(*report, " (remote via " + connect + ")");
  }

  // Each sweep worker gets its own private case (trajectories mutate
  // topology state), rebuilt from the parsed documents.
  const npd::NpdDocument doc = npd::from_json(npd_json);
  const whatif::CaseFactory factory = [&doc, &demands_path, &demands_json] {
    migration::MigrationCase mig = npd::build_case(doc);
    if (!demands_path.empty()) {
      mig.task.demands =
          traffic::demands_from_json(*mig.task.topo, demands_json);
    }
    return mig;
  };
  migration::MigrationCase reference = factory();
  const core::Plan plan =
      pipeline::plan_from_json(reference.task, plan_json);

  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);
  const std::string text = whatif::report_text(report, params);
  emit(out_path, text);
  return finish(json::parse(text), "");
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_whatif", run,
      {"npd", "plan", "demands", "out", "trajectories", "seed", "threads",
       "theta", "routing", "funneling", "growth-min", "growth-max", "surges",
       "forecast-errors", "surge-factor-min", "surge-factor-max",
       "bias-factor-min", "bias-factor-max", "margin-max", "connect"});
}
