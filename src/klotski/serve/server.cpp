#include "klotski/serve/server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "klotski/obs/metrics.h"

namespace klotski::serve {

namespace {

/// Poll tick of the accept loop: finished connection threads are reaped at
/// this cadence even when no new client ever connects.
constexpr int kReapIntervalMs = 250;

/// Poll tick of a sync work request's wait loop: how quickly a vanished
/// peer is noticed and its job cancelled.
constexpr long long kSyncWaitTickMs = 50;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Writes the whole buffer, retrying on EINTR / short writes. Returns
/// false when the peer went away.
bool write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool is_work_method(const std::string& method) {
  return method == "plan" || method == "audit" || method == "chaos" ||
         method == "replan" || method == "whatif";
}

/// True when the peer is fully gone (close()/RST — POLLERR or POLLHUP), as
/// opposed to a half-close (shutdown(SHUT_WR)), which only reads as EOF and
/// still expects its responses. Reliable for AF_UNIX; for TCP a plain FIN
/// is indistinguishable from a half-close until a write elicits an RST.
bool peer_vanished(int fd) {
  pollfd probe{fd, 0, 0};
  if (::poll(&probe, 1, 0) < 0) return false;
  return (probe.revents & (POLLERR | POLLHUP)) != 0;
}

int listen_tcp(const std::string& spec, std::string& host_out,
               std::uint16_t& port_out) {
  const Endpoint endpoint = Endpoint::parse(
      spec.find(':') == std::string::npos ? spec : "tcp:" + spec);
  if (!endpoint.is_tcp()) {
    throw std::runtime_error("serve: --listen wants HOST:PORT, got '" +
                             spec + "'");
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* found = nullptr;
  const std::string port_text = std::to_string(endpoint.port);
  const int rc = ::getaddrinfo(endpoint.host.c_str(), port_text.c_str(),
                               &hints, &found);
  if (rc != 0) {
    throw std::runtime_error("serve: resolve " + spec + ": " +
                             ::gai_strerror(rc));
  }
  int fd = -1;
  int last_errno = EADDRNOTAVAIL;
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    throw std::runtime_error("serve: bind " + spec + ": " +
                             std::strerror(last_errno));
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("serve: listen " + spec + ": " +
                             std::strerror(err));
  }
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    if (bound.ss_family == AF_INET) {
      port_out = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      port_out = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  host_out = endpoint.host;
  return fd;
}

}  // namespace

Server::Server(const Options& options)
    : options_(options),
      service_(options.service),
      jobs_(options.jobs) {
  if (options_.socket_path.empty() && options_.listen.empty()) {
    throw std::runtime_error(
        "serve: a unix socket_path or a tcp listen spec is required");
  }
  if (::pipe(drain_pipe_) != 0) throw_errno("serve: pipe");

  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("serve: socket path too long: " +
                               options_.socket_path);
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("serve: socket");
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("serve: bind " + options_.socket_path);
    }
    if (::listen(listen_fd_, 64) != 0) throw_errno("serve: listen");
  }
  if (!options_.listen.empty()) {
    tcp_listen_fd_ = listen_tcp(options_.listen, tcp_host_, tcp_port_);
  }
}

Server::~Server() {
  // run() normally performs the full drain; this is the abnormal path
  // (constructor succeeded, run() never called / threw).
  request_drain();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns_.clear();
  }
  ::close(drain_pipe_[0]);
  ::close(drain_pipe_[1]);
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

void Server::request_drain() {
  const char byte = 'x';
  // Best effort: the pipe only ever holds a handful of bytes and the read
  // side drains it; a failed write here means drain was already requested.
  [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &byte, 1);
}

std::size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t active = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load(std::memory_order_relaxed)) ++active;
  }
  return active;
}

std::size_t Server::tracked_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

std::string Server::tcp_endpoint() const {
  if (tcp_listen_fd_ < 0) return std::string();
  return "tcp:" + tcp_host_ + ":" + std::to_string(tcp_port_);
}

void Server::accept_one(int listen_fd) {
  sockaddr_storage peer{};
  socklen_t peer_len = sizeof(peer);
  const int fd =
      ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &peer_len);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return;
    throw_errno("serve: accept");
  }
  set_tcp_nodelay(fd);

  std::lock_guard<std::mutex> lock(conns_mu_);
  reap_finished_locked();
  if (conns_.size() >=
      static_cast<std::size_t>(std::max(1, options_.max_connections))) {
    write_all(fd, Response::make_status("", "overloaded").to_line());
    ::close(fd);
    obs::Registry::global().counter("serve.rejected_connections").inc();
    return;
  }
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  conns_.push_back(conn);
  conn->thread = std::thread([this, conn] { handle_connection(conn); });
  obs::Registry::global().counter("serve.connections").inc();
}

void Server::run() {
  for (;;) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {drain_pipe_[0], POLLIN, 0};
    const int unix_slot = listen_fd_ >= 0 ? static_cast<int>(nfds) : -1;
    if (listen_fd_ >= 0) fds[nfds++] = {listen_fd_, POLLIN, 0};
    const int tcp_slot = tcp_listen_fd_ >= 0 ? static_cast<int>(nfds) : -1;
    if (tcp_listen_fd_ >= 0) fds[nfds++] = {tcp_listen_fd_, POLLIN, 0};

    // Finite timeout: the reap below runs even when no client ever
    // connects again, so finished handler threads are joined and their
    // fds closed without waiting for the next accept.
    const int ready = ::poll(fds, nfds, kReapIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("serve: poll");
    }
    if (fds[0].revents != 0) break;  // drain requested
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      reap_finished_locked();
    }
    if (ready == 0) continue;  // reap tick only
    if (unix_slot >= 0 && (fds[unix_slot].revents & POLLIN) != 0) {
      accept_one(listen_fd_);
    }
    if (tcp_slot >= 0 && (fds[tcp_slot].revents & POLLIN) != 0) {
      accept_one(tcp_listen_fd_);
    }
  }

  // --- drain sequence ---
  draining_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }

  // Finish (or checkpoint) every admitted job. Connection threads keep
  // serving during this: in-flight sync requests harvest their results,
  // new work is answered with {"status":"draining"}.
  jobs_.drain();

  // Unblock readers and join.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
      if (conn->fd >= 0) ::close(conn->fd);
      conn->fd = -1;
    }
    conns_.clear();
  }
}

void Server::handle_connection(const std::shared_ptr<Connection>& conn) {
  using Clock = std::chrono::steady_clock;
  std::string buffer;
  char chunk[4096];
  Clock::time_point last_activity = Clock::now();
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos && newline > options_.max_request_bytes) {
      // The whole oversized line arrived in one read; same verdict as the
      // never-sends-'\n' case below.
      obs::Registry::global().counter("serve.oversized_requests").inc();
      write_all(conn->fd,
                Response::make_error(
                    "", "request line exceeds " +
                            std::to_string(options_.max_request_bytes) +
                            " bytes")
                    .to_line());
      break;
    }
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;

      Response resp;
      // Set once the line parses as a request: every later error echoes it.
      std::string id;
      try {
        const Request req = parse_request(line);
        id = req.id;
        resp = dispatch(conn, req);
      } catch (const std::exception& e) {
        resp = Response::make_error(id, e.what());
      }
      if (!write_all(conn->fd, resp.to_line())) break;
      last_activity = Clock::now();
      continue;
    }

    // A peer that streams bytes without ever sending '\n' would otherwise
    // grow the buffer without bound; answer once, loudly, and hang up.
    if (buffer.size() > options_.max_request_bytes) {
      obs::Registry::global().counter("serve.oversized_requests").inc();
      write_all(conn->fd,
                Response::make_error(
                    "", "request line exceeds " +
                            std::to_string(options_.max_request_bytes) +
                            " bytes")
                    .to_line());
      break;
    }

    pollfd probe{conn->fd, POLLIN, 0};
    const int ready = ::poll(&probe, 1, kReapIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (options_.idle_timeout_ms > 0 &&
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - last_activity)
                  .count() >= options_.idle_timeout_ms) {
        obs::Registry::global().counter("serve.idle_timeouts").inc();
        break;
      }
      continue;
    }
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      // EOF. A half-closed peer may still have a buffered request without
      // its newline — nothing more can complete it, so hang up; complete
      // buffered lines were already answered above.
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    last_activity = Clock::now();
  }
  conn->done.store(true, std::memory_order_relaxed);
}

Response Server::dispatch(const std::shared_ptr<Connection>& conn,
                          const Request& request) {
  if (request.method == "ping") return handle_ping(request);
  if (request.method == "stats") return handle_stats(request);
  if (request.method == "metrics") return handle_metrics(request);
  if (request.method == "submit") return handle_submit(request);
  if (request.method == "poll") return handle_poll(request);
  if (request.method == "wait") return handle_wait(request);
  if (request.method == "cancel") return handle_cancel(request);
  if (request.method == "plan") return handle_plan(conn, request);
  if (is_work_method(request.method)) {
    return run_sync_work(conn, request,
                         [this, request](const std::atomic<bool>& stop) {
                           return service_.execute(request, stop);
                         });
  }
  return Response::make_error(request.id,
                              "unknown method '" + request.method + "'");
}

bool Server::draining() const {
  return draining_.load(std::memory_order_relaxed) || jobs_.draining();
}

Response Server::handle_plan(const std::shared_ptr<Connection>& conn,
                             const Request& request) {
  // A draining daemon refuses every work request, cache hits included.
  if (draining()) return Response::make_status(request.id, "draining");
  // Params that fail normalization throw here; handle_connection answers
  // with the request's id and the message a worker would have given.
  const std::string key = plan_cache_key(request.params);
  // A key completed in memory needs no worker: answer it now, so it never
  // queues behind cold plans and a full queue never refuses it.
  if (std::optional<Response> hit = service_.cached_plan(request, key)) {
    return std::move(*hit);
  }
  return run_sync_work(
      conn, request, [this, request, key](const std::atomic<bool>&) {
        return service_.run_plan(request, key);
      });
}

Response Server::run_sync_work(const std::shared_ptr<Connection>& conn,
                               const Request& request, JobManager::Work work) {
  // Sync = submit + wait + forget: the planner only ever runs on worker
  // threads, so concurrency is bounded by --workers and a full queue is an
  // immediate, explicit rejection.
  JobManager::Submitted submitted =
      jobs_.submit(request.method, std::move(work));
  if (!submitted.ok()) {
    return Response::make_status(request.id, submitted.rejected);
  }
  // Wait in short ticks and watch the peer: a client that fully closed its
  // connection can no longer receive the result, so its job is cancelled
  // (queued jobs outright, running jobs via the cooperative stop flag)
  // instead of pinning a worker slot. Draining overrides the probe — the
  // drain sequence shuts down every connection fd, which reads as
  // POLLHUP, yet admitted jobs must still be harvested.
  std::optional<JobManager::JobView> view;
  for (;;) {
    view = jobs_.wait(submitted.job_id, kSyncWaitTickMs);
    if (view) break;
    if (!draining_.load(std::memory_order_relaxed) &&
        peer_vanished(conn->fd)) {
      jobs_.cancel(submitted.job_id);
      jobs_.forget(submitted.job_id);
      obs::Registry::global().counter("serve.sync_disconnect_cancels").inc();
      // The peer is gone; this response is never written.
      return Response::make_error(request.id,
                                  "client disconnected; job cancelled");
    }
  }
  jobs_.forget(submitted.job_id);
  Response resp = view->result;
  resp.id = request.id;
  return resp;
}

Response Server::handle_submit(const Request& request) {
  const std::string method = request.params.get_string("method", "");
  if (!is_work_method(method)) {
    return Response::make_error(
        request.id, "submit: params.method must be a work method");
  }
  Request work;
  work.method = method;
  if (const json::Value* params = request.params.as_object().find("params")) {
    if (!params->is_object()) {
      return Response::make_error(request.id,
                                  "submit: params.params must be an object");
    }
    work.params = *params;
  } else {
    work.params = json::Value(json::Object{});
  }

  JobManager::Submitted submitted = jobs_.submit(
      method, [this, work](const std::atomic<bool>& stop) {
        return service_.execute(work, stop);
      });
  if (!submitted.ok()) {
    return Response::make_status(request.id, submitted.rejected);
  }
  json::Object result;
  result["job_id"] = submitted.job_id;
  return Response::make_ok(request.id, json::Value(std::move(result)));
}

namespace {

json::Value job_view_to_json(const JobManager::JobView& view) {
  json::Object out;
  out["job_id"] = view.id;
  out["method"] = view.method;
  out["priority"] = JobManager::priority_name(view.priority);
  out["state"] = JobManager::state_name(view.state);
  if (view.state == JobManager::State::kQueued) {
    // Jobs currently ordered ahead (a batch job counts queued interactive
    // work, which dispatch prefers) — progress indicator, not a promise.
    out["queued_behind"] = static_cast<std::int64_t>(view.queued_behind);
  }
  if (view.state == JobManager::State::kDone ||
      view.state == JobManager::State::kError ||
      view.state == JobManager::State::kCancelled) {
    out["response"] = view.result.to_json();
  }
  return json::Value(std::move(out));
}

}  // namespace

Response Server::handle_poll(const Request& request) {
  const std::string job_id = request.params.get_string("job_id", "");
  const std::optional<JobManager::JobView> view = jobs_.poll(job_id);
  if (!view) {
    return Response::make_error(request.id, "unknown job '" + job_id + "'");
  }
  return Response::make_ok(request.id, job_view_to_json(*view));
}

Response Server::handle_wait(const Request& request) {
  const std::string job_id = request.params.get_string("job_id", "");
  long long timeout_ms = request.params.get_int("timeout_ms", 0);
  if (timeout_ms <= 0 || timeout_ms > options_.max_wait_ms) {
    timeout_ms = options_.max_wait_ms;
  }
  const std::optional<JobManager::JobView> view =
      jobs_.wait(job_id, timeout_ms);
  if (!view) {
    if (!jobs_.poll(job_id)) {
      return Response::make_error(request.id,
                                  "unknown job '" + job_id + "'");
    }
    json::Object result;
    result["job_id"] = job_id;
    result["timed_out"] = true;
    return Response::make_ok(request.id, json::Value(std::move(result)));
  }
  return Response::make_ok(request.id, job_view_to_json(*view));
}

Response Server::handle_cancel(const Request& request) {
  const std::string job_id = request.params.get_string("job_id", "");
  const std::optional<JobManager::State> state = jobs_.cancel(job_id);
  if (!state) {
    return Response::make_error(request.id, "unknown job '" + job_id + "'");
  }
  json::Object result;
  result["job_id"] = job_id;
  result["state_at_cancel"] = JobManager::state_name(*state);
  return Response::make_ok(request.id, json::Value(std::move(result)));
}

Response Server::handle_ping(const Request& request) const {
  json::Object result;
  result["schema"] = std::string(kProtocolSchema);
  result["draining"] = draining();
  return Response::make_ok(request.id, json::Value(std::move(result)));
}

Response Server::handle_metrics(const Request& request) const {
  return Response::make_ok(request.id, obs::Registry::global().to_json());
}

Response Server::handle_stats(const Request& request) {
  const PlanCache::Stats cache = service_.cache().stats();
  const JobManager::Stats jobs = jobs_.stats();

  json::Object cache_out;
  cache_out["hits"] = static_cast<std::int64_t>(cache.hits);
  cache_out["misses"] = static_cast<std::int64_t>(cache.misses);
  cache_out["coalesced"] = static_cast<std::int64_t>(cache.coalesced);
  cache_out["evictions"] = static_cast<std::int64_t>(cache.evictions);
  cache_out["spill_hits"] = static_cast<std::int64_t>(cache.spill_hits);
  cache_out["spill_writes"] = static_cast<std::int64_t>(cache.spill_writes);
  cache_out["spill_corrupt"] =
      static_cast<std::int64_t>(cache.spill_corrupt);
  cache_out["shards"] = static_cast<std::int64_t>(cache.shards);
  cache_out["entries"] = cache.entries;
  cache_out["in_flight"] = cache.in_flight;

  json::Object jobs_out;
  jobs_out["submitted"] = static_cast<std::int64_t>(jobs.submitted);
  jobs_out["rejected_overloaded"] = static_cast<std::int64_t>(jobs.rejected_overloaded);
  jobs_out["completed"] = static_cast<std::int64_t>(jobs.completed);
  jobs_out["queued"] = jobs.queued;
  jobs_out["queued_interactive"] = jobs.queued_interactive;
  jobs_out["queued_batch"] = jobs.queued_batch;
  jobs_out["starvation_promotions"] =
      static_cast<std::int64_t>(jobs.starvation_promotions);
  jobs_out["running"] = jobs.running;
  jobs_out["workers"] = jobs_.workers();

  json::Object result;
  result["cache"] = json::Value(std::move(cache_out));
  result["jobs"] = json::Value(std::move(jobs_out));
  result["connections"] =
      static_cast<std::int64_t>(active_connections());
  return Response::make_ok(request.id, json::Value(std::move(result)));
}

void Server::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_relaxed)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace klotski::serve
