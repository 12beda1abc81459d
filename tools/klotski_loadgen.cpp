// klotski_loadgen — workload driver + latency reporter for klotski_served.
//
// Two modes:
//
//   # one plan request, plan text to a file (byte-identity smoke checks)
//   klotski_loadgen --connect=/tmp/k.sock --once --npd=region.npd.json
//                   --result-out=plan.json
//
//   # mixed workload at a target rate over TCP, many connections
//   klotski_loadgen --connect=tcp:127.0.0.1:7077 --npd=region.npd.json
//                   --requests=5000 --qps=0 --connections=32
//                   --report=BENCH_serve.json
//
// Flags:
//   --connect      daemon endpoint: unix:PATH | tcp:HOST:PORT | /path |
//                  HOST:PORT (required; --socket is an alias kept for
//                  unix-path callers)
//   --npd          NPD JSON document for plan requests (required)
//   --once         single synchronous plan request; exit 0 iff status ok
//   --result-out   (--once) write the returned plan text here; the bytes
//                  match what `klotski_plan --npd=... --out=...` writes
//   --planner / --theta / --alpha / --routing / --funneling  plan knobs
//                  forwarded in the request params
//   --requests     total requests in mix mode            (default 100)
//   --qps          target request rate; 0 = as fast as the connections
//                  allow                                 (default 50)
//   --connections  concurrent client connections         (default 4)
//   --mix          weighted request mix, "method=weight" comma-separated
//                  over plan|ping|stats                  (default
//                  "plan=6,ping=3,stats=1")
//   --plan-variants  distinct plan cache keys cycled through, so the mix
//                  exercises both cold planner runs and cache hits
//                  (default 4)
//   --report       write the JSON report here            (default: stdout)
//
// The report ("klotski.loadgen-report.v1") carries request/latency totals,
// per-status counts (ok / cached / overloaded / draining / error) and
// latency percentiles in milliseconds. Overloaded responses are the
// admission-control contract working, so they are tallied, not fatal;
// transport errors are.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "klotski/json/json.h"
#include "klotski/serve/client.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "klotski/util/string_util.h"
#include "common/tool_runner.h"

namespace {

using namespace klotski;
using Clock = std::chrono::steady_clock;

json::Value plan_params(const util::Flags& flags, const json::Value& npd,
                        int variant) {
  json::Object params;
  params["npd"] = npd;
  params["planner"] = flags.get_string("planner", "astar");
  params["theta"] = flags.get_double("theta", 0.75);
  params["alpha"] = flags.get_double("alpha", 0.0);
  params["routing"] = flags.get_string("routing", "ecmp");
  params["funneling"] = flags.get_double("funneling", 0.0);
  if (variant > 0) {
    // Distinct cache keys with identical planner work: a generous deadline
    // never fires, but participates in the content hash.
    params["deadline"] = 3600.0 + variant;
  }
  return json::Value(std::move(params));
}

struct MixEntry {
  std::string method;
  int weight = 1;
};

std::vector<MixEntry> parse_mix(const std::string& text) {
  std::vector<MixEntry> mix;
  for (const std::string& part : util::split(text, ',')) {
    const std::size_t eq = part.find('=');
    MixEntry entry;
    entry.method = eq == std::string::npos ? part : part.substr(0, eq);
    entry.weight =
        eq == std::string::npos ? 1 : std::stoi(part.substr(eq + 1));
    if (entry.method != "plan" && entry.method != "ping" &&
        entry.method != "stats") {
      throw std::invalid_argument("--mix: unknown method '" + entry.method +
                                  "' (want plan|ping|stats)");
    }
    if (entry.weight < 1) {
      throw std::invalid_argument("--mix: weight must be >= 1");
    }
    mix.push_back(entry);
  }
  if (mix.empty()) throw std::invalid_argument("--mix: empty");
  return mix;
}

/// Deterministic weighted round-robin: request i's method.
const std::string& method_for(const std::vector<MixEntry>& mix,
                              long long index) {
  int total = 0;
  for (const MixEntry& entry : mix) total += entry.weight;
  int slot = static_cast<int>(index % total);
  for (const MixEntry& entry : mix) {
    slot -= entry.weight;
    if (slot < 0) return entry.method;
  }
  return mix.back().method;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string endpoint_spec(const util::Flags& flags) {
  const std::string spec = flags.get_string("connect", "");
  if (!spec.empty()) return spec;
  return flags.get_string("socket", "");
}

int run_once(const util::Flags& flags, const json::Value& npd) {
  serve::Client client(endpoint_spec(flags));
  const serve::Response resp =
      client.call("plan", plan_params(flags, npd, 0), "once");
  if (!resp.ok()) {
    std::cerr << "klotski_loadgen: " << resp.status
              << (resp.error.empty() ? "" : ": " + resp.error) << "\n";
    return 1;
  }
  // Re-dumping the returned plan document recovers the exact bytes
  // klotski_plan writes (the service caches the pretty text; dump∘parse∘
  // dump is stable).
  const std::string text =
      json::dump(resp.result.at("plan"), 2) + "\n";
  const std::string out = flags.get_string("result-out", "");
  if (out.empty()) {
    std::cout << text;
  } else {
    util::write_file(out, text);
  }
  std::cerr << "klotski_loadgen: plan "
            << (resp.cached ? "(cached)" : "(cold)") << ", "
            << text.size() << " bytes\n";
  return 0;
}

struct Tally {
  std::vector<double> latencies_ms;
  long long ok = 0;
  long long cached = 0;
  long long overloaded = 0;
  long long draining = 0;
  long long errors = 0;
  long long transport_errors = 0;
};

int run_mix(const util::Flags& flags, const json::Value& npd) {
  const serve::Endpoint endpoint =
      serve::Endpoint::parse(endpoint_spec(flags));
  const long long requests = flags.get_int("requests", 100);
  const double qps = flags.get_double("qps", 50.0);
  const int connections =
      static_cast<int>(flags.get_int("connections", 4));
  const int variants =
      std::max(1, static_cast<int>(flags.get_int("plan-variants", 4)));
  const std::vector<MixEntry> mix =
      parse_mix(flags.get_string("mix", "plan=6,ping=3,stats=1"));
  if (requests < 1 || connections < 1) {
    std::cerr << "klotski_loadgen: --requests and --connections must be "
                 ">= 1\n";
    return 2;
  }

  std::atomic<long long> next_index{0};
  std::mutex tally_mu;
  Tally tally;
  const Clock::time_point start = Clock::now();

  auto worker = [&] {
    serve::Client client =
        serve::Client::connect_with_retry(endpoint, /*attempts=*/5);
    for (;;) {
      const long long i = next_index.fetch_add(1);
      if (i >= requests) return;
      if (qps > 0.0) {
        const auto scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / qps));
        std::this_thread::sleep_until(scheduled);
      }
      const std::string& method = method_for(mix, i);
      json::Value params{json::Object{}};
      if (method == "plan") {
        params = plan_params(flags, npd,
                             static_cast<int>(i % variants) + 1);
      }
      const Clock::time_point sent = Clock::now();
      try {
        const serve::Response resp =
            client.call(method, std::move(params));
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count();
        std::lock_guard<std::mutex> lock(tally_mu);
        tally.latencies_ms.push_back(ms);
        if (resp.ok()) {
          ++tally.ok;
          if (resp.cached) ++tally.cached;
        } else if (resp.status == "overloaded") {
          ++tally.overloaded;
        } else if (resp.status == "draining") {
          ++tally.draining;
        } else {
          ++tally.errors;
        }
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lock(tally_mu);
        ++tally.transport_errors;
        return;  // connection is gone; stop this worker
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) workers.emplace_back(worker);
  for (std::thread& thread : workers) thread.join();

  const double duration_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(tally.latencies_ms.begin(), tally.latencies_ms.end());
  double mean = 0.0;
  for (const double ms : tally.latencies_ms) mean += ms;
  if (!tally.latencies_ms.empty()) {
    mean /= static_cast<double>(tally.latencies_ms.size());
  }

  json::Object latency;
  latency["p50_ms"] = percentile(tally.latencies_ms, 0.50);
  latency["p90_ms"] = percentile(tally.latencies_ms, 0.90);
  latency["p99_ms"] = percentile(tally.latencies_ms, 0.99);
  latency["max_ms"] =
      tally.latencies_ms.empty() ? 0.0 : tally.latencies_ms.back();
  latency["mean_ms"] = mean;

  json::Object report;
  report["schema"] = "klotski.loadgen-report.v1";
  report["endpoint"] = endpoint.describe();
  report["transport"] = endpoint.is_tcp() ? "tcp" : "unix";
  report["requests"] = static_cast<std::int64_t>(requests);
  report["completed"] =
      static_cast<std::int64_t>(tally.latencies_ms.size());
  report["ok"] = static_cast<std::int64_t>(tally.ok);
  report["cached"] = static_cast<std::int64_t>(tally.cached);
  report["overloaded"] = static_cast<std::int64_t>(tally.overloaded);
  report["draining"] = static_cast<std::int64_t>(tally.draining);
  report["errors"] = static_cast<std::int64_t>(tally.errors);
  report["transport_errors"] =
      static_cast<std::int64_t>(tally.transport_errors);
  report["duration_s"] = duration_s;
  report["achieved_qps"] =
      duration_s > 0.0
          ? static_cast<double>(tally.latencies_ms.size()) / duration_s
          : 0.0;
  report["target_qps"] = qps;
  report["connections"] = connections;
  report["latency"] = json::Value(std::move(latency));

  const std::string text = json::dump(json::Value(std::move(report)), 2) +
                           "\n";
  const std::string out = flags.get_string("report", "");
  if (out.empty()) {
    std::cout << text;
  } else {
    util::write_file(out, text);
    std::cerr << "klotski_loadgen: wrote " << out << "\n";
  }
  std::cerr << "klotski_loadgen: " << tally.latencies_ms.size() << "/"
            << requests << " completed in " << duration_s << "s (ok "
            << tally.ok << ", cached " << tally.cached << ", overloaded "
            << tally.overloaded << ", errors "
            << tally.errors + tally.transport_errors << ")\n";
  return tally.errors + tally.transport_errors > 0 ? 1 : 0;
}

int run(const util::Flags& flags) {
  if (endpoint_spec(flags).empty()) {
    std::cerr << "klotski_loadgen: --connect=ENDPOINT is required\n";
    return 2;
  }
  const std::string npd_path = flags.get_string("npd", "");
  if (npd_path.empty()) {
    std::cerr << "klotski_loadgen: --npd=FILE is required\n";
    return 2;
  }
  const json::Value npd = json::parse(util::read_file(npd_path));
  if (flags.get_bool("once", false)) return run_once(flags, npd);
  return run_mix(flags, npd);
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_loadgen", run,
      {"connect", "socket", "npd", "once", "result-out", "planner", "theta",
       "alpha", "routing", "funneling", "requests", "qps", "connections",
       "plan-variants", "mix", "report"});
}
