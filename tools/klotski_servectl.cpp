// klotski_servectl — command-line control client for a klotski_served daemon.
//
// The operator's front door to the serve protocol over either transport,
// built on the serve client library (no hand-rolled wire format):
//
//   klotski_servectl --connect=/tmp/k.sock ping
//   klotski_servectl --connect=tcp:10.0.0.7:7077 stats
//   klotski_servectl --connect=/tmp/k.sock metrics   # live registry JSON
//   klotski_servectl --connect=tcp:plan-svc:7077 call --method=plan
//       --params-file=plan-params.json
//   klotski_servectl --connect=/tmp/k.sock submit --method=replan
//       --params-file=replan-params.json          # prints the job id
//   klotski_servectl --connect=/tmp/k.sock poll --job=j-7
//   klotski_servectl --connect=/tmp/k.sock wait --job=j-7 --timeout-ms=60000
//   klotski_servectl --connect=/tmp/k.sock cancel --job=j-7
//
// Commands (one positional argument):
//   ping | stats | metrics control methods, result printed as JSON;
//                          metrics is the live klotski.metrics.v1 document
//                          --metrics-out writes at drain
//   call                   run --method sync (plan | audit | chaos |
//                          replan | whatif); the connection blocks until done
//   submit                 enqueue --method async; prints {"job_id": ...}
//   whatif                 sugar for submit --method=whatif + wait: enqueue
//                          the robustness sweep as a batch job and block
//                          until its report comes back
//   poll | wait | cancel   job lifecycle for a --job id
//
// Params come from --params-file=FILE or inline --params=JSON (default {}).
// Results print to stdout as indented JSON. Exit status: 0 ok; 1 the
// daemon answered error/overloaded/draining (the response still prints);
// 2 usage or transport error.
#include <iostream>
#include <string>

#include "klotski/json/json.h"
#include "klotski/serve/client.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "common/tool_runner.h"

namespace {

using namespace klotski;

json::Value params_from_flags(const util::Flags& flags) {
  const std::string file = flags.get_string("params-file", "");
  const std::string inline_text = flags.get_string("params", "");
  if (!file.empty() && !inline_text.empty()) {
    throw std::invalid_argument(
        "--params and --params-file are mutually exclusive");
  }
  if (!file.empty()) return json::parse(util::read_file(file));
  if (!inline_text.empty()) return json::parse(inline_text);
  return json::Value(json::Object{});
}

json::Value job_params(const util::Flags& flags) {
  const std::string job = flags.get_string("job", "");
  if (job.empty()) throw std::invalid_argument("--job=ID is required");
  json::Object params;
  params["job_id"] = job;
  if (flags.has("timeout-ms")) {
    params["timeout_ms"] =
        static_cast<std::int64_t>(flags.get_int("timeout-ms", 0));
  }
  return json::Value(std::move(params));
}

int print_response(const serve::Response& resp) {
  std::cout << json::dump(resp.to_json(), 2) << "\n";
  return resp.ok() ? 0 : 1;
}

int run(const util::Flags& flags) {
  const std::string connect = flags.get_string("connect", "");
  if (connect.empty()) {
    std::cerr << "klotski_servectl: --connect=ENDPOINT is required\n";
    return 2;
  }
  if (flags.positional().size() != 1) {
    std::cerr << "klotski_servectl: exactly one command (ping|stats|metrics|"
                 "call|submit|whatif|poll|wait|cancel)\n";
    return 2;
  }
  const std::string command = flags.positional().front();

  serve::Client client = serve::Client::connect_with_retry(
      serve::Endpoint::parse(connect),
      static_cast<int>(flags.get_int("retries", 3)));

  if (command == "ping" || command == "stats" || command == "metrics") {
    return print_response(
        client.call(command, json::Value(json::Object{})));
  }
  if (command == "whatif") {
    return print_response(client.submit_and_wait(
        "whatif", params_from_flags(flags), "whatif"));
  }
  if (command == "call" || command == "submit") {
    const std::string method = flags.get_string("method", "");
    if (method.empty()) {
      std::cerr << "klotski_servectl: --method=plan|audit|chaos|replan|"
                   "whatif is required\n";
      return 2;
    }
    if (command == "call") {
      return print_response(client.call(method, params_from_flags(flags)));
    }
    json::Object submit;
    submit["method"] = method;
    submit["params"] = params_from_flags(flags);
    return print_response(
        client.call("submit", json::Value(std::move(submit))));
  }
  if (command == "poll" || command == "wait" || command == "cancel") {
    return print_response(client.call(command, job_params(flags)));
  }
  std::cerr << "klotski_servectl: unknown command '" << command << "'\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_servectl", run,
      {"connect", "timeout-ms", "retries", "method", "params", "params-file",
       "job"});
}
