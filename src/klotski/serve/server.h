// Stream-socket server for the klotski.serve.v1 protocol, over one or both
// transports:
//
//   AF_UNIX (Options::socket_path)  — one box, filesystem permissions as
//       access control, short deterministic paths for tests
//   TCP (Options::listen, "host:port") — the fleet front door; port 0 binds
//       an ephemeral port, reported by tcp_endpoint()
//
// Both listeners feed the same accept loop and speak the same NDJSON
// protocol. Each accepted connection gets one handler thread; requests may
// be pipelined (the server answers buffered lines in order), and
// concurrency across connections is bounded by max_connections while
// planner concurrency is bounded by the JobManager's worker pool — every
// work request that needs a worker, sync or async, goes through the same
// admission-controlled queue.
//
// The read loop is hardened for untrusted remote peers:
//   - a request line longer than max_request_bytes is answered with one
//     status:"error" response and the connection is closed (a peer cannot
//     grow the buffer without bound by never sending '\n');
//   - a connection idle longer than idle_timeout_ms (no request bytes, no
//     in-flight request) is closed;
//   - finished connection threads are reaped on a periodic poll tick, not
//     only on the next accept, so an idle server still joins threads and
//     closes fds after clients disconnect;
//   - a sync work request whose peer vanishes mid-wait (POLLERR/POLLHUP —
//     a full close, not a half-close) cancels its job, so dead clients
//     cannot pin worker slots. A half-close (shutdown(SHUT_WR)) still
//     receives its responses.
//
// Control methods (ping / stats / metrics / poll / wait / cancel / submit)
// are answered inline by the connection thread; work methods (plan / audit /
// chaos / replan / whatif) are submitted as jobs. A sync work request is
// submit + wait + forget, so it occupies only its connection thread while
// queued; when the queue is full the client sees {"status":"overloaded"}
// immediately. The one exception is a sync plan request whose cache key is
// completed in the in-memory PlanCache: the connection thread answers it
// before admission (PlanService::cached_plan), so a hit never waits for a
// worker and is never refused as overloaded. Its key goes into the job on a
// miss, so the worker does not hash the request again.
//
// Any error raised after a line parses as a request carries that request's
// id.
//
// Graceful drain: request_drain() (async-signal-safe: one write to a
// self-pipe) makes run() stop accepting, rejects new work (cache hits
// included) with {"status":"draining"}, sets every job's stop flag (replan
// jobs checkpoint, chaos jobs stop between seeds), waits for admitted work
// to finish, unblocks and joins the connection threads, then returns — the
// daemon flushes metrics and exits 0.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "klotski/serve/endpoint.h"
#include "klotski/serve/job_manager.h"
#include "klotski/serve/protocol.h"
#include "klotski/serve/service.h"

namespace klotski::serve {

class Server {
 public:
  struct Options {
    /// AF_UNIX path; kept short (sun_path is ~100 bytes). An existing
    /// socket file at the path is replaced. Empty = no unix listener
    /// (then `listen` is required).
    std::string socket_path;
    /// TCP listen spec "host:port" (port 0 = ephemeral, see
    /// tcp_endpoint()). Empty = no TCP listener.
    std::string listen;
    PlanService::Options service;
    JobManager::Options jobs;
    int max_connections = 64;
    /// Per-wait cap for the `wait` method so one client cannot pin a
    /// connection thread forever; clients re-issue to keep waiting.
    long long max_wait_ms = 60'000;
    /// Hard cap on one request line; beyond it the server answers
    /// status:"error" and closes the connection.
    std::size_t max_request_bytes = 1 << 20;
    /// Close connections idle (no request bytes) this long; 0 disables.
    long long idle_timeout_ms = 0;
  };

  /// Binds and listens on the configured transports; throws
  /// std::runtime_error on socket errors.
  explicit Server(const Options& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop; blocks until request_drain(), then drains and returns.
  void run();

  /// Triggers the drain sequence. Async-signal-safe (one write() to the
  /// self-pipe); callable from any thread or a signal handler via
  /// drain_fd().
  void request_drain();

  /// Write end of the self-pipe, for signal handlers:
  /// write(drain_fd(), "x", 1).
  int drain_fd() const { return drain_pipe_[1]; }

  const std::string& socket_path() const { return options_.socket_path; }
  /// The bound TCP endpoint ("tcp:host:port" with the real port, even when
  /// Options::listen asked for port 0); empty when TCP is not enabled.
  std::string tcp_endpoint() const;
  std::uint16_t tcp_port() const { return tcp_port_; }

  PlanService& service() { return service_; }
  JobManager& jobs() { return jobs_; }
  /// Connections whose handler thread has not finished.
  std::size_t active_connections() const;
  /// Connections still tracked (including finished-but-unreaped ones);
  /// the periodic reap drives this back to active_connections().
  std::size_t tracked_connections() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_one(int listen_fd);
  void handle_connection(const std::shared_ptr<Connection>& conn);
  Response dispatch(const std::shared_ptr<Connection>& conn,
                    const Request& request);
  bool draining() const;
  Response handle_plan(const std::shared_ptr<Connection>& conn,
                       const Request& request);
  Response run_sync_work(const std::shared_ptr<Connection>& conn,
                         const Request& request, JobManager::Work work);
  Response handle_submit(const Request& request);
  Response handle_poll(const Request& request);
  Response handle_wait(const Request& request);
  Response handle_cancel(const Request& request);
  Response handle_ping(const Request& request) const;
  Response handle_stats(const Request& request);
  Response handle_metrics(const Request& request) const;
  void reap_finished_locked();

  Options options_;
  PlanService service_;
  JobManager jobs_;

  int listen_fd_ = -1;      // AF_UNIX, -1 when disabled
  int tcp_listen_fd_ = -1;  // TCP, -1 when disabled
  std::string tcp_host_;
  std::uint16_t tcp_port_ = 0;
  int drain_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};

  mutable std::mutex conns_mu_;
  std::list<std::shared_ptr<Connection>> conns_;
};

}  // namespace klotski::serve
