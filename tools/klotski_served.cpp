// klotski_served — the Klotski plan service daemon.
//
//   # one box: unix socket only, evicted plans spilled to disk
//   klotski_served --socket=/tmp/k.sock --workers=4 --spill-dir=/var/cache/k
//
//   # fleet front door: TCP beside (or instead of) the unix socket
//   klotski_served --socket=/tmp/k.sock --listen=0.0.0.0:7077 --workers=8
//
// Serves the klotski.serve.v1 protocol (newline-delimited JSON over a unix
// socket and/or TCP; see src/klotski/serve/protocol.h and README "Plan
// service"): plan / audit / chaos / replan / whatif work methods, sync or
// submitted as async jobs, behind a bounded worker pool with explicit
// admission control and a content-addressed single-flight plan cache,
// sharded so concurrent cache hits on different keys never contend on one
// lock. A sync plan whose key is already cached in memory is answered on
// its connection thread without taking a worker.
//
// Flags:
//   --socket        unix socket path (kept short — sun_path caps at ~100
//                   bytes); optional when --listen is given
//   --listen        TCP listen spec HOST:PORT; port 0 binds an ephemeral
//                   port (see --endpoint-out)        (default: none)
//   --endpoint-out  write the bound TCP endpoint ("tcp:host:port" with the
//                   real port) to this file once listening — scripts wait
//                   for the file instead of parsing logs
//   --workers       worker threads executing jobs       (default 2)
//   --max-queue     queued jobs before new work is rejected with
//                   {"status":"overloaded"}             (default 64)
//   --cache-capacity  completed plans held in memory    (default 128)
//   --cache-shards  cache lock shards                   (default 8)
//   --spill-dir     directory for evicted plans; doubles as a warm cache
//                   across daemon restarts              (default: none)
//   --max-request-bytes  request-line cap; longer lines are answered with
//                   status:"error" and the connection is closed
//                                                       (default 1 MiB)
//   --idle-timeout-ms  close connections idle this long; 0 disables
//                                                       (default 60000)
//   --threads       total what-if thread budget, split across the workers
//                   by the shared oversubscription rule: each whatif job
//                   runs its share of trajectory workers; every other
//                   method runs on its worker alone  (default: one per worker)
//   --max-connections  concurrent client connections    (default 64)
//   --ready-fd      write one byte to this fd once the sockets are
//                   listening (scripts: open a pipe, wait for the byte
//                   instead of polling)
//   --metrics-out   write the metrics registry JSON here on drain
//   --trace-out     write Chrome trace_event JSON here on drain (the
//                   newest 2^18 spans; older ones count in trace.dropped)
//
// Any other flag is a usage error (exit 2).
//
// Shutdown: SIGTERM or SIGINT triggers the graceful drain — admission
// stops, queued and running jobs finish (replan jobs checkpoint via their
// cooperative stop flag), connections close, metrics are flushed, and the
// daemon exits 0.
#include <csignal>
#include <iostream>
#include <memory>

#include <unistd.h>

#include "klotski/serve/server.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "klotski/util/thread_budget.h"
#include "common/tool_runner.h"

namespace {

using namespace klotski;

// Signal handlers may only poke the server's self-pipe.
int g_drain_fd = -1;

void on_signal(int) {
  if (g_drain_fd >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(g_drain_fd, &byte, 1);
  }
}

int run(const util::Flags& flags) {
  serve::Server::Options options;
  options.socket_path = flags.get_string("socket", "");
  options.listen = flags.get_string("listen", "");
  if (options.socket_path.empty() && options.listen.empty()) {
    std::cerr << "klotski_served: --socket=PATH and/or --listen=HOST:PORT "
                 "is required\n";
    return 2;
  }
  options.jobs.workers = static_cast<int>(flags.get_int("workers", 2));
  options.jobs.max_queue = static_cast<int>(flags.get_int("max-queue", 64));
  if (options.jobs.workers < 1 || options.jobs.max_queue < 1) {
    std::cerr << "klotski_served: --workers and --max-queue must be >= 1\n";
    return 2;
  }
  options.max_connections =
      static_cast<int>(flags.get_int("max-connections", 64));
  options.service.cache.capacity =
      static_cast<std::size_t>(flags.get_int("cache-capacity", 128));
  options.service.cache.shards =
      static_cast<int>(flags.get_int("cache-shards", 8));
  if (options.service.cache.shards < 1) {
    std::cerr << "klotski_served: --cache-shards must be >= 1\n";
    return 2;
  }
  options.service.cache.spill_dir = flags.get_string("spill-dir", "");
  const long long max_request_bytes =
      flags.get_int("max-request-bytes", 1 << 20);
  if (max_request_bytes < 1024) {
    std::cerr << "klotski_served: --max-request-bytes must be >= 1024\n";
    return 2;
  }
  options.max_request_bytes =
      static_cast<std::size_t>(max_request_bytes);
  options.idle_timeout_ms = flags.get_int("idle-timeout-ms", 60'000);

  // The what-if budget is split across the workers so a pool busy with
  // whatif jobs keeps ~--threads sweep threads running, not
  // workers * --threads.
  const int budget = static_cast<int>(
      flags.get_int("threads", options.jobs.workers));
  options.service.threads =
      util::split_thread_budget(options.jobs.workers, budget).inner;

  serve::Server server(options);

  g_drain_fd = server.drain_fd();
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // dead clients surface as write errors

  const std::string endpoint_out = flags.get_string("endpoint-out", "");
  if (!endpoint_out.empty()) {
    if (server.tcp_endpoint().empty()) {
      std::cerr << "klotski_served: --endpoint-out needs --listen\n";
      return 2;
    }
    util::write_file(endpoint_out, server.tcp_endpoint() + "\n");
  }
  const long long ready_fd = flags.get_int("ready-fd", -1);
  if (ready_fd >= 0) {
    const char byte = 'r';
    [[maybe_unused]] const ssize_t n =
        ::write(static_cast<int>(ready_fd), &byte, 1);
    ::close(static_cast<int>(ready_fd));
  }
  std::cerr << "klotski_served: listening on ";
  if (!server.socket_path().empty()) {
    std::cerr << "unix:" << server.socket_path();
    if (!server.tcp_endpoint().empty()) std::cerr << " + ";
  }
  if (!server.tcp_endpoint().empty()) std::cerr << server.tcp_endpoint();
  std::cerr << " (" << options.jobs.workers << " workers, queue "
            << options.jobs.max_queue << ", "
            << options.service.cache.shards << " cache shards)\n";

  server.run();  // returns after the graceful drain

  const serve::PlanCache::Stats cache = server.service().cache().stats();
  const serve::JobManager::Stats jobs = server.jobs().stats();
  std::cerr << "klotski_served: drained (jobs " << jobs.completed
            << " completed, " << jobs.rejected_overloaded
            << " rejected; cache " << cache.hits << " hits, "
            << cache.misses << " misses, " << cache.coalesced
            << " coalesced)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_served", run,
      {"socket", "listen", "endpoint-out", "workers", "max-queue",
       "cache-capacity", "cache-shards", "spill-dir", "max-request-bytes",
       "idle-timeout-ms", "threads", "max-connections", "ready-fd"});
}
