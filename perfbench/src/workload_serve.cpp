// serve-mixed: klotski_served with 2 workers on TCP loopback, driven by an
// open-loop schedule drawn from the workload seed. Two Poisson streams share
// the daemon:
//
//   hits    kHitRate/s plan requests over a pre-warmed set of kHitKeys
//           reduced preset A keys (distinct `deadline` salts, which join
//           the content hash without changing the planner's work);
//   misses  plan requests for the full-scale preset C region, each with a
//           fresh salt, so every one is a cold planner run. They come in
//           pairs, one pair every kMissPairPeriod seconds from a seeded
//           phase (4 misses/s), so each pair occupies both workers at once:
//           a hit due then waits for a worker, which is the head-of-line
//           blocking a cache-hit fast path removes. Pairs on a fixed period
//           keep the busy share of the workers the same from seed to seed;
//           Poisson misses make the hit tail swing with each seed's bursts.
//
// Each stream is sent by kConnectionsPerStream blocking connections that
// take the next due request; latency runs from the request's due time to
// its response, so time a request spends waiting for a free connection
// counts, and the send delay is reported as the generator lag. Requests due
// in the first kWarmupSeconds after the daemon starts are sent and checked
// but not measured.
#include "common.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "klotski/json/canonical.h"
#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/serve/client.h"
#include "klotski/serve/service.h"

extern char** environ;

namespace perfbench {

namespace {

using namespace klotski;

constexpr int kSetupRepeats = 25;
constexpr int kHitKeys = 8;
constexpr double kHitRate = 200.0;
constexpr double kMissPairPeriod = 0.5;
constexpr int kConnectionsPerStream = 2;
constexpr double kWarmupSeconds = 2.0;
constexpr double kBlockSeconds = 5.0;
constexpr int kReplayHits = 2000;

/// One klotski_served process on an ephemeral loopback port. The destructor
/// stops a daemon that stop() was not called on.
class Daemon {
 public:
  Daemon(const Options& options, int index, bool metrics) {
    const std::string base = options.out_dir + "/served-" + std::to_string(index);
    endpoint_path_ = base + ".endpoint";
    metrics_path_ = metrics ? base + ".metrics.json" : "";
    std::filesystem::remove(endpoint_path_);
    // The daemon writes one byte to fd 3 (the pipe's write end) once it is
    // listening and has written the endpoint file.
    int ready[2];
    if (pipe2(ready, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
    }
    std::vector<std::string> args = {
        options.served, "--listen=127.0.0.1:0",
        "--endpoint-out=" + endpoint_path_, "--ready-fd=3", "--workers=2",
        "--threads=2", "--idle-timeout-ms=0"};
    if (metrics) args.push_back("--metrics-out=" + metrics_path_);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const std::string log = base + ".log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    posix_spawn_file_actions_adddup2(&actions, ready[1], 3);
    const int rc = posix_spawn(&pid_, options.served.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(ready[1]);
    if (rc != 0) {
      close(ready[0]);
      pid_ = -1;
      throw std::runtime_error("cannot start " + options.served + ": " +
                               std::strerror(rc));
    }
    const bool up = wait_ready(ready[0]);
    close(ready[0]);
    if (!up) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
      throw std::runtime_error("klotski_served did not start");
    }
    std::ifstream in(endpoint_path_);
    std::getline(in, endpoint_);
    pinned_ = pin_workers();
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }
  const std::string& metrics_path() const { return metrics_path_; }
  bool workers_pinned() const { return pinned_; }

  /// CPU time (user + system) the daemon has used so far, in seconds.
  double cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    const std::string stat((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Graceful drain (SIGTERM); returns the daemon's peak RSS in MB. Throws
  /// when the daemon does not exit 0.
  double stop() {
    kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("klotski_served did not drain cleanly");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  /// True once the ready byte arrives; false on EOF (the daemon exited) or
  /// after 30 s.
  static bool wait_ready(int fd) {
    pollfd p{fd, POLLIN, 0};
    char byte = 0;
    return poll(&p, 1, 30'000) == 1 && read(fd, &byte, 1) == 1;
  }

  /// Pins the two job workers to the last two CPUs, one each. Left alone,
  /// the scheduler often stacks both workers on one CPU when a miss pair
  /// wakes them, so a pair takes twice as long in some runs and not in
  /// others. Once ready, before any connection, the daemon runs exactly its
  /// main thread and the workers (in creation order); with any other
  /// thread count nothing is pinned and false is returned.
  bool pin_workers() const {
    std::vector<pid_t> tids;
    for (const auto& entry : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid_) + "/task")) {
      tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
    }
    std::sort(tids.begin(), tids.end());
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    if (tids.size() != 3 || tids.front() != pid_ || cpus < 3) return false;
    for (int w = 0; w < 2; ++w) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(cpus) - 2 + w, &set);
      if (sched_setaffinity(tids[1 + w], sizeof(set), &set) != 0) return false;
    }
    return true;
  }

  pid_t pid_ = -1;
  bool pinned_ = false;
  std::string endpoint_;
  std::string endpoint_path_;
  std::string metrics_path_;
};

json::Value plan_params(const json::Value& npd, double deadline) {
  json::Object params;
  params["npd"] = npd;
  params["planner"] = "astar";
  params["theta"] = kTheta;
  params["alpha"] = 0.0;
  params["routing"] = "ecmp";
  params["funneling"] = 0.0;
  params["deadline"] = deadline;
  return json::Value(std::move(params));
}

json::Value region_npd(topo::PresetId preset, topo::PresetScale scale) {
  return npd::to_json(pipeline::synth_document(
      topo::TopologyFamily::kClos, preset, scale,
      npd::default_migration(topo::TopologyFamily::kClos)));
}

/// Plan text with stats.wall_seconds removed (the one field a replay of
/// the same key may legitimately change).
std::string without_wall(json::Value plan) {
  if (json::Value* stats = plan.as_object().find("stats")) {
    stats->as_object()["wall_seconds"] = 0.0;
  }
  return json::dump(plan, 2) + "\n";
}

struct Due {
  double at_s = 0.0;  // offset from the schedule start
  int key = 0;        // hit key index, or miss serial
};

std::vector<Due> poisson_hits(std::mt19937_64& rng, double horizon) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Due> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - unit(rng)) / kHitRate;
    if (t >= horizon) return out;
    out.push_back(Due{t, static_cast<int>(unit(rng) * kHitKeys) % kHitKeys});
  }
}

std::vector<Due> paired_misses(std::mt19937_64& rng, double horizon) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Due> out;
  for (double t = unit(rng) * kMissPairPeriod; t < horizon;
       t += kMissPairPeriod) {
    for (int i = 0; i < 2; ++i) {
      out.push_back(Due{t, static_cast<int>(out.size())});
    }
  }
  return out;
}

struct Sample {
  double latency_ms = 0.0;  // response time minus due time
  double lag_ms = 0.0;      // send time minus due time
  bool ok = false;
  bool cached = false;
  json::Value plan;
  std::string error;
};

/// One request stream of the open loop: its schedule, how to build a due
/// request, and the samples its connections fill in.
struct Stream {
  const std::vector<Due>& schedule;
  std::function<serve::Request(const Due&)> make;
  const char* span_name;
  std::vector<Sample> samples = std::vector<Sample>(schedule.size());
  std::atomic<std::size_t> next{0};
};

/// Sends every stream on kConnectionsPerStream connections of its own; each
/// connection takes its stream's next due request, waits for the due time
/// and blocks for the response. Requests due at or after `traced_from_s`
/// are recorded as spans.
void drive(const std::string& endpoint, std::vector<Stream*> streams,
           Clock::time_point t0, double traced_from_s, Recorder* rec) {
  const auto sender = [&](Stream& stream) {
    std::unique_ptr<serve::Client> client;
    for (;;) {
      const std::size_t i = stream.next.fetch_add(1);
      if (i >= stream.schedule.size()) return;
      const Due& due = stream.schedule[i];
      const Clock::time_point due_at =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due.at_s));
      std::this_thread::sleep_until(due_at);
      Sample& s = stream.samples[i];
      const Clock::time_point sent = Clock::now();
      try {
        ScopedSpan span(due.at_s >= traced_from_s ? rec : nullptr,
                        stream.span_name, static_cast<long long>(i));
        const serve::Request request = stream.make(due);
        if (!client) client = std::make_unique<serve::Client>(endpoint);
        serve::Response response = client->call(request);
        s.ok = response.ok();
        s.cached = response.cached;
        s.error = response.error;
        if (s.ok) s.plan = std::move(response.result.as_object()["plan"]);
      } catch (const std::exception& e) {
        s.error = e.what();
        client.reset();
      }
      const Clock::time_point done = Clock::now();
      s.latency_ms = ms_between(due_at, done);
      s.lag_ms = ms_between(due_at, sent);
    }
  };
  std::vector<std::thread> threads;
  for (Stream* stream : streams) {
    for (int c = 0; c < kConnectionsPerStream; ++c) {
      threads.emplace_back(sender, std::ref(*stream));
    }
  }
  for (std::thread& t : threads) t.join();
}

struct CacheCounters {
  long long hits = 0, misses = 0, coalesced = 0, rejected = 0;
};

CacheCounters read_stats(const std::string& endpoint) {
  serve::Client client(endpoint);
  const serve::Response r = client.call("stats", json::Value(json::Object{}));
  if (!r.ok()) throw std::runtime_error("stats failed: " + r.error);
  const json::Value& cache = r.result.at("cache");
  return CacheCounters{cache.at("hits").as_int(), cache.at("misses").as_int(),
                       cache.at("coalesced").as_int(),
                       r.result.at("jobs").at("rejected_overloaded").as_int()};
}

/// In-process replay of the hit path: parse_request, cache key, execute,
/// serialize, each timed separately (median microseconds).
void replay_hit_path(const json::Value& params, Result& result) {
  serve::PlanService service{serve::PlanService::Options{}};
  const std::atomic<bool> stop{false};
  serve::Request request{"replay", "plan", params};
  const std::string line = json::dump(request.to_json());
  result.check(service.execute(serve::parse_request(line), stop).ok(),
               "in-process cold plan for the replay key failed");
  std::vector<double> parse_us, key_us, execute_us, serialize_us;
  for (int i = 0; i < kReplayHits; ++i) {
    const Clock::time_point a = Clock::now();
    const serve::Request parsed = serve::parse_request(line);
    const Clock::time_point b = Clock::now();
    const std::string key = json::content_hash(serve::plan_cache_key_doc(parsed.params));
    const Clock::time_point c = Clock::now();
    const serve::Response response = service.execute(parsed, stop);
    const Clock::time_point d = Clock::now();
    const std::string out = response.to_line();
    const Clock::time_point e = Clock::now();
    if (!response.cached || key.empty() || out.empty()) {
      result.check(false, "in-process replay was not a cache hit");
      return;
    }
    parse_us.push_back(ms_between(a, b) * 1e3);
    key_us.push_back(ms_between(b, c) * 1e3);
    execute_us.push_back(ms_between(c, d) * 1e3);
    serialize_us.push_back(ms_between(d, e) * 1e3);
  }
  result.set("serve.parse_us", median(parse_us));
  result.set("serve.key_us", median(key_us));
  result.set("serve.execute_hit_us", median(execute_us));
  result.set("serve.serialize_us", median(serialize_us));
}

}  // namespace

Result run_serve_mixed(const Options& options) {
  Result result;
  init_metrics(result, options.trace);
  if (options.served.empty()) {
    throw std::invalid_argument("serve-mixed needs --served=PATH");
  }

  const json::Value npd_a = region_npd(topo::PresetId::kA, topo::PresetScale::kReduced);
  const json::Value npd_c = region_npd(topo::PresetId::kC, topo::PresetScale::kFull);
  // Salts come from the seed so each run warms its own key set.
  const double salt_base = 3600.0 + static_cast<double>(options.seed % 100000) * 64.0;
  std::vector<serve::Request> hit_requests;
  for (int k = 0; k < kHitKeys; ++k) {
    hit_requests.push_back(serve::Request{
        "hit-" + std::to_string(k), "plan", plan_params(npd_a, salt_base + k)});
  }

  // Set-up: start the daemon and warm the hit keys with cold plans, whose
  // bytes become the reference every hit must return. Repeated; the last
  // daemon serves the measured schedule.
  std::vector<double> setup_s;
  std::vector<std::string> cold;
  std::unique_ptr<Daemon> daemon;
  // The first set-up runs on cold caches and is not timed.
  for (int i = 0; i <= kSetupRepeats; ++i) {
    if (daemon) daemon->stop();
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<Daemon>(options, i,
                                      options.trace && i == kSetupRepeats);
    serve::Client client = serve::Client::connect_with_retry(
        serve::Endpoint::parse(daemon->endpoint()));
    cold.clear();
    for (const serve::Request& request : hit_requests) {
      serve::Response r = client.call(request);
      if (!r.ok() || r.cached) {
        throw std::runtime_error("warm-up plan failed: " + r.error);
      }
      cold.push_back(without_wall(std::move(r.result.as_object()["plan"])));
    }
    if (i > 0) setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  std::mt19937_64 rng(options.seed);
  const double horizon = kWarmupSeconds + options.seconds;
  const std::vector<Due> hits = poisson_hits(rng, horizon);
  const std::vector<Due> misses = paired_misses(rng, horizon);
  const double traced_from =
      options.trace ? kWarmupSeconds + options.seconds / 2 : horizon;

  // The measured schedule is cut into blocks of about kBlockSeconds.
  const int blocks = std::max(1, static_cast<int>(options.seconds / kBlockSeconds));
  const double block_s = options.seconds / blocks;
  const auto block_from = [&](int b) { return kWarmupSeconds + b * block_s; };

  const CacheCounters before = read_stats(daemon->endpoint());
  Stream hit_stream{hits,
                    [&](const Due& due) {
                      return hit_requests[static_cast<std::size_t>(due.key)];
                    },
                    "serve.hit"};
  Stream miss_stream{misses,
                     [&](const Due& due) {
                       return serve::Request{
                           "miss-" + std::to_string(due.key), "plan",
                           plan_params(npd_c, salt_base - 1.0 - due.key)};
                     },
                     "serve.miss"};
  Recorder rec;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  // Daemon CPU seconds at every block boundary.
  std::vector<double> cpu_at(static_cast<std::size_t>(blocks) + 1);
  std::string sampler_error;
  {
    std::jthread sampler([&] {
      try {
        for (int b = 0; b <= blocks; ++b) {
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(block_from(b))));
          cpu_at[static_cast<std::size_t>(b)] = daemon->cpu_seconds();
        }
      } catch (const std::exception& e) {
        sampler_error = e.what();
      }
    });
    drive(daemon->endpoint(), {&hit_stream, &miss_stream}, t0, traced_from, &rec);
  }
  if (!sampler_error.empty()) {
    throw std::runtime_error("reading the daemon's CPU time: " + sampler_error);
  }
  const CacheCounters after = read_stats(daemon->endpoint());
  const double daemon_rss_mb = daemon->stop();
  const std::vector<Sample>& hit_samples = hit_stream.samples;
  const std::vector<Sample>& miss_samples = miss_stream.samples;

  // Oracles. Hits: served from the cache with the cold bytes of their key.
  // Misses: cold plans equal to an in-process plan of the same region.
  for (std::size_t i = 0; i < hit_samples.size(); ++i) {
    const Sample& s = hit_samples[i];
    const auto key = static_cast<std::size_t>(hits[i].key);
    result.check(s.ok && s.cached && without_wall(s.plan) == cold[key],
                 "hit " + std::to_string(i) + ": " +
                     (s.ok ? "not cached or bytes differ" : s.error));
  }
  {
    migration::MigrationCase mig = npd::build_case(npd::from_json(npd_c));
    pipeline::CheckerConfig config;
    config.demand.max_utilization = kTheta;
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(mig.task, config);
    const core::Plan plan = pipeline::make_planner("astar")->plan(
        mig.task, *bundle.checker, core::PlannerOptions{});
    const json::Value expected = pipeline::plan_to_json(mig.task, plan);
    for (std::size_t i = 0; i < miss_samples.size(); ++i) {
      const Sample& s = miss_samples[i];
      result.check(s.ok && !s.cached && s.plan.is_object() &&
                       s.plan.at("phases") == expected.at("phases") &&
                       s.plan.at("cost") == expected.at("cost"),
                   "miss " + std::to_string(i) + ": " +
                       (s.ok ? "plan differs from the in-process plan" : s.error));
    }
  }
  result.check(after.misses - before.misses ==
                       static_cast<long long>(misses.size()) &&
                   after.hits - before.hits == static_cast<long long>(hits.size()),
               "daemon cache counters disagree with the requests sent");

  // Measured window: requests due after the warm-up (and, in a traced run,
  // split into the untraced and traced halves).
  const auto window = [&](const std::vector<Sample>& samples,
                          const std::vector<Due>& schedule, double from,
                          double to, bool lag) {
    std::vector<double> out;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (schedule[i].at_s >= from && schedule[i].at_s < to) {
        out.push_back(lag ? samples[i].lag_ms : samples[i].latency_ms);
      }
    }
    return out;
  };
  const std::vector<double> hit_ms =
      window(hit_samples, hits, kWarmupSeconds, traced_from, false);
  const std::vector<double> miss_ms =
      window(miss_samples, misses, kWarmupSeconds, traced_from, false);
  std::vector<double> lag_ms =
      window(hit_samples, hits, kWarmupSeconds, horizon, true);
  const std::vector<double> miss_lag =
      window(miss_samples, misses, kWarmupSeconds, horizon, true);
  lag_ms.insert(lag_ms.end(), miss_lag.begin(), miss_lag.end());

  if (!daemon->workers_pinned()) {
    result.notes.push_back("daemon workers not pinned: unexpected thread count");
  }
  result.notes.push_back(
      "open loop " + std::to_string(kHitRate) + " hits/s + 2 misses every " +
      std::to_string(kMissPairPeriod) + " s over " +
      std::to_string(options.seconds) + " s after a " +
      std::to_string(kWarmupSeconds) + " s warm-up; measured " +
      std::to_string(hit_ms.size()) + " hits, " + std::to_string(miss_ms.size()) +
      " misses");
  result.notes.push_back(
      "hit_p50_ms = " + std::to_string(median(hit_ms)) +
      ", hit_p95_ms = " + std::to_string(quantile(hit_ms, 0.95)) +
      ", hit_p99_ms = " + std::to_string(quantile(hit_ms, 0.99)) +
      ", miss_p50_ms = " + std::to_string(median(miss_ms)) +
      ", miss_p90_ms = " + std::to_string(quantile(miss_ms, 0.9)) +
      ", gen_lag_p99_ms = " + std::to_string(quantile(lag_ms, 0.99)));

  // Ok responses that completed between two times (offsets from t0).
  const auto completed_ok = [&](double from, double to) {
    long long n = 0;
    for (const auto* stream : {&hit_stream, &miss_stream}) {
      for (std::size_t i = 0; i < stream->samples.size(); ++i) {
        const Sample& s = stream->samples[i];
        const double done_s = stream->schedule[i].at_s + s.latency_ms / 1e3;
        n += s.ok && done_s >= from && done_s < to ? 1 : 0;
      }
    }
    return static_cast<double>(n);
  };
  result.notes.push_back(
      "daemon CPU over the measured schedule " +
      std::to_string(cpu_at.back() - cpu_at.front()) + " s for " +
      std::to_string(static_cast<long long>(completed_ok(block_from(0), block_from(blocks)))) +
      " ok responses");

  if (!options.trace) {
    // Hit p50 and p95 are each the lowest block value (by due time), for the
    // same reason as the closed loops' fastest walls. work_per_s is the
    // highest block rate of ok responses (by completion time) per daemon CPU
    // second: in an open loop the response rate is the offered rate, so the
    // CPU the daemon spends on it is what moves.
    double p50 = 0.0, tail = 0.0, rate = 0.0, p99 = 0.0;
    for (int b = 0; b < blocks; ++b) {
      const std::vector<double> block =
          window(hit_samples, hits, block_from(b), block_from(b + 1), false);
      const double cpu_s = cpu_at[static_cast<std::size_t>(b) + 1] -
                           cpu_at[static_cast<std::size_t>(b)];
      const double block_rate =
          cpu_s > 0.0 ? completed_ok(block_from(b), block_from(b + 1)) / cpu_s : 0.0;
      if (b == 0 || median(block) < p50) p50 = median(block);
      if (b == 0 || quantile(block, 0.95) < tail) tail = quantile(block, 0.95);
      if (b == 0 || quantile(block, 0.99) < p99) p99 = quantile(block, 0.99);
      rate = std::max(rate, block_rate);
    }
    result.notes.push_back("fastest of " + std::to_string(blocks) + " blocks of " +
                           std::to_string(block_s) + " s: hit p50 " +
                           std::to_string(p50) + " ms, hit p95 " +
                           std::to_string(tail) + " ms, hit p99 " +
                           std::to_string(p99) + " ms, " + std::to_string(rate) +
                           " ok responses per daemon CPU second");
    result.set("setup_s", median(setup_s));
    result.set("p50_ms", p50);
    result.set("tail_ms", tail);
    result.set("work_per_s", rate);
    result.set("peak_rss_mb", daemon_rss_mb);
    return result;
  }

  rec.write_jsonl(options.out_dir + "/spans-serve-mixed-" +
                  std::to_string(options.seed) + ".jsonl");
  const std::vector<double> traced_hits =
      window(hit_samples, hits, traced_from, horizon, false);
  const std::vector<double> traced_misses =
      window(miss_samples, misses, traced_from, horizon, false);
  result.set("serve.cache_hits", static_cast<double>(after.hits - before.hits));
  result.set("serve.cache_misses", static_cast<double>(after.misses - before.misses));
  result.set("serve.coalesced", static_cast<double>(after.coalesced - before.coalesced));
  result.set("serve.rejected", static_cast<double>(after.rejected - before.rejected));
  const json::Value metrics = json::parse([&] {
    std::ifstream in(daemon->metrics_path());
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }());
  result.set("serve.queue_peak",
             metrics.at("gauges").get_double("serve.queue_depth_max", 0.0));
  result.set("serve.miss_p50_ms", median(traced_misses));
  result.set("serve.miss_p90_ms", quantile(traced_misses, 0.9));
  result.set("bench.gen_lag_ms", quantile(lag_ms, 0.99));
  double traced_latency_ms = 0.0;
  for (const double ms : traced_hits) traced_latency_ms += ms;
  for (const double ms : traced_misses) traced_latency_ms += ms;
  // Request spans open at the send, so the uncovered rest is generator lag.
  result.set("bench.span_coverage_frac",
             (rec.total_ms("serve.hit") + rec.total_ms("serve.miss")) /
                 traced_latency_ms);
  report_trace_overhead(result, hit_ms, traced_hits);
  replay_hit_path(hit_requests.front().params, result);
  return result;
}

}  // namespace perfbench
