// Protocol-level tests for the TCP transport and the hardened read loop:
// byte-identity across transports, single-flight coalescing across
// transports, oversized request lines (answered and closed, never an
// unbounded buffer), deeply nested request lines (answered, connection
// kept), errors that keep their request id, pipelined requests, half-close
// semantics, idle timeouts, periodic connection reaping, cancellation of
// sync work whose peer vanished, and the cache-hit fast path (hits
// answered on the connection thread while every worker is busy).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "klotski/json/canonical.h"
#include "klotski/json/json.h"
#include "klotski/npd/npd_io.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/serve/client.h"
#include "klotski/serve/endpoint.h"
#include "klotski/serve/server.h"
#include "klotski/serve/service.h"
#include "klotski/topo/presets.h"

namespace klotski::serve {
namespace {

json::Value preset_npd_json() {
  npd::NpdDocument doc;
  doc.name = "transport-test-a";
  doc.region = topo::preset_params(topo::PresetId::kA,
                                   topo::PresetScale::kReduced);
  doc.migration = npd::MigrationKind::kHgridV1ToV2;
  doc.hgrid = pipeline::hgrid_params_for(topo::PresetId::kA,
                                         topo::PresetScale::kReduced);
  doc.ssw = pipeline::ssw_params_for(topo::PresetScale::kReduced);
  doc.dmag = pipeline::dmag_params_for(topo::PresetScale::kReduced);
  return npd::to_json(doc);
}

json::Value plan_params() {
  json::Object params;
  params["npd"] = preset_npd_json();
  params["theta"] = 0.75;
  return json::Value(std::move(params));
}

/// plan_params with another theta: a different cache key, and still a
/// region the planner solves.
json::Value cold_plan_params() {
  json::Value params = plan_params();
  params.as_object()["theta"] = 0.7;
  return params;
}

json::Value chaos_params(int seeds) {
  json::Object params;
  params["preset"] = "a";
  params["seeds"] = seeds;
  return json::Value(std::move(params));
}

std::string request_line(const std::string& id, const std::string& method,
                         json::Value params) {
  Request req;
  req.id = id;
  req.method = method;
  req.params = std::move(params);
  return json::dump(req.to_json()) + "\n";
}

/// RAII metrics enable + reset, so counter assertions see only this test.
class MetricsOn {
 public:
  MetricsOn() {
    obs::set_metrics_enabled(true);
    obs::Registry::global().reset_values();
  }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

long long counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// --- raw-socket helpers (the untrusted-peer side of the tests) -----------

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line, carrying leftover bytes in `buffer`.
bool read_line(int fd, std::string& buffer, std::string& line_out,
               long long timeout_ms = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line_out = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd probe{fd, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now)
                          .count();
    if (::poll(&probe, 1, static_cast<int>(left)) <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;  // EOF or error before a full line
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// True when the peer closes the stream within the deadline.
bool read_eof(int fd, long long timeout_ms = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char chunk[4096];
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd probe{fd, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now)
                          .count();
    if (::poll(&probe, 1, static_cast<int>(left)) <= 0) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return true;
    if (n < 0) return true;  // reset also counts as closed
  }
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

template <typename Pred>
bool eventually(Pred pred, long long timeout_ms = 15'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

// --- fixture -------------------------------------------------------------

class TransportTest : public ::testing::Test {
 protected:
  Server::Options base_options() {
    Server::Options options;
    options.socket_path =
        "/tmp/ktrans-" + std::to_string(::getpid()) + ".sock";
    options.listen = "127.0.0.1:0";  // ephemeral: tests read tcp_endpoint()
    options.jobs.workers = 2;
    options.jobs.max_queue = 8;
    options.service.cache.capacity = 8;
    return options;
  }

  void start(const Server::Options& options) {
    std::signal(SIGPIPE, SIG_IGN);  // raw peers close mid-conversation
    options_ = options;
    server_ = std::make_unique<Server>(options);
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_) {
      server_->request_drain();
      if (thread_.joinable()) thread_.join();
      server_.reset();
    }
    if (!options_.socket_path.empty()) {
      std::remove(options_.socket_path.c_str());
    }
  }

  int raw_tcp_fd() {
    return connect_endpoint(Endpoint::parse(server_->tcp_endpoint()));
  }
  int raw_unix_fd() {
    return connect_endpoint(Endpoint::parse("unix:" + options_.socket_path));
  }

  Server::Options options_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

// --- byte identity and single flight across transports -------------------

TEST_F(TransportTest, TcpServesTheSameBytesAsUnix) {
  MetricsOn metrics;
  start(base_options());

  Client tcp(server_->tcp_endpoint());
  const Response pong = tcp.call("ping", json::Value(json::Object{}));
  ASSERT_TRUE(pong.ok()) << pong.error;
  EXPECT_EQ(pong.result.get_string("schema", ""), kProtocolSchema);

  Client unix_client("unix:" + options_.socket_path);
  const Response cold = unix_client.call("plan", plan_params(), "u");
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cached);

  const Response warm = tcp.call("plan", plan_params(), "t");
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_TRUE(warm.cached);

  // The transport never touches the payload: same bytes, same content hash.
  EXPECT_EQ(json::dump(cold.result.at("plan"), 2),
            json::dump(warm.result.at("plan"), 2));
  EXPECT_EQ(json::content_hash(cold.result.at("plan")),
            json::content_hash(warm.result.at("plan")));
  EXPECT_EQ(counter("serve.plan_runs"), 1);

  const Response stats = tcp.call("stats", json::Value(json::Object{}));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.result.at("cache").get_int("shards", 0),
            options_.service.cache.shards);
}

TEST_F(TransportTest, SingleFlightCoalescesAcrossTransports) {
  MetricsOn metrics;
  start(base_options());

  // Open all connections first so the requests genuinely overlap.
  constexpr int kPerTransport = 3;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kPerTransport; ++i) {
    clients.push_back(
        std::make_unique<Client>("unix:" + options_.socket_path));
    clients.push_back(std::make_unique<Client>(server_->tcp_endpoint()));
  }

  std::vector<Response> responses(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      responses[i] = clients[i]->call("plan", plan_params());
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<std::string> distinct;
  int cold = 0;
  for (const Response& resp : responses) {
    ASSERT_TRUE(resp.ok()) << resp.error;
    if (!resp.cached) ++cold;
    distinct.insert(json::dump(resp.result.at("plan"), 2));
  }
  // One planner run served every client on both transports.
  EXPECT_EQ(counter("serve.plan_runs"), 1);
  EXPECT_EQ(cold, 1);
  EXPECT_EQ(distinct.size(), 1u);
}

// --- hardened read loop --------------------------------------------------

// Regression: the read loop used to append to the connection buffer without
// any cap, so a peer that never sent '\n' could grow it without bound.
TEST_F(TransportTest, OversizedUnterminatedLineIsAnsweredAndClosed) {
  MetricsOn metrics;
  Server::Options options = base_options();
  options.max_request_bytes = 4096;
  start(options);

  const int fd = raw_tcp_fd();
  // 64 KiB, no newline. The server must cut in after the cap, not buffer
  // it all; the send may fail part-way once the server closes — fine.
  send_all(fd, std::string(64 * 1024, 'x'));
  std::string buffer, line;
  ASSERT_TRUE(read_line(fd, buffer, line));
  const Response resp = Response::parse(line);
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("exceeds"), std::string::npos) << resp.error;
  EXPECT_TRUE(read_eof(fd));
  ::close(fd);
  EXPECT_GE(counter("serve.oversized_requests"), 1);
}

TEST_F(TransportTest, OversizedCompleteLineIsAnsweredAndClosed) {
  MetricsOn metrics;
  Server::Options options = base_options();
  options.max_request_bytes = 4096;
  start(options);

  const int fd = raw_tcp_fd();
  // A syntactically valid request whose one line blows the cap.
  json::Object params;
  params["pad"] = std::string(8192, 'p');
  send_all(fd, request_line("big", "ping", json::Value(std::move(params))));
  std::string buffer, line;
  ASSERT_TRUE(read_line(fd, buffer, line));
  EXPECT_EQ(Response::parse(line).status, "error");
  EXPECT_TRUE(read_eof(fd));
  ::close(fd);
  EXPECT_GE(counter("serve.oversized_requests"), 1);
}

// Regression: json::parse recursed once per nesting level with no limit, so
// one ~100 KB request line of '[' (well under the request cap) crashed the
// daemon with a stack overflow.
TEST_F(TransportTest, DeeplyNestedRequestIsAnsweredAndServingContinues) {
  start(base_options());
  for (const int fd : {raw_tcp_fd(), raw_unix_fd()}) {
    ASSERT_TRUE(send_all(fd, R"({"id":"x","method":"ping","params":)" +
                                 std::string(100'000, '[') + "\n"));
    std::string buffer, line;
    ASSERT_TRUE(read_line(fd, buffer, line));
    const Response resp = Response::parse(line);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("nesting"), std::string::npos) << resp.error;

    // The same connection serves its next request.
    ASSERT_TRUE(send_all(
        fd, request_line("after", "ping", json::Value(json::Object{}))));
    ASSERT_TRUE(read_line(fd, buffer, line));
    const Response pong = Response::parse(line);
    EXPECT_TRUE(pong.ok()) << pong.error;
    EXPECT_EQ(pong.id, "after");
    ::close(fd);
  }
}

// Regression: an exception escaping dispatch (a JsonError from a typed
// param accessor) was answered with an empty id.
TEST_F(TransportTest, DispatchErrorsKeepTheRequestId) {
  start(base_options());
  const int fd = raw_tcp_fd();
  ASSERT_TRUE(send_all(
      fd, std::string(R"({"id":"q1","method":"poll","params":{"job_id":7}})") +
              "\n" +
              R"({"id":"q2","method":"wait","params":{"job_id":"j-1",)" +
              R"("timeout_ms":"soon"}})" + "\n" +
              request_line("q3", "ping", json::Value(json::Object{}))));
  std::string buffer, line;
  for (const char* id : {"q1", "q2"}) {
    ASSERT_TRUE(read_line(fd, buffer, line));
    const Response resp = Response::parse(line);
    EXPECT_EQ(resp.status, "error") << line;
    EXPECT_EQ(resp.id, id) << line;
    EXPECT_FALSE(resp.error.empty());
  }
  // The connection keeps serving.
  ASSERT_TRUE(read_line(fd, buffer, line));
  const Response pong = Response::parse(line);
  EXPECT_TRUE(pong.ok()) << pong.error;
  EXPECT_EQ(pong.id, "q3");
  ::close(fd);
}

TEST_F(TransportTest, PipelinedRequestsAnswerInOrder) {
  start(base_options());
  const int fd = raw_tcp_fd();
  // Both requests in one segment; responses must come back in order.
  ASSERT_TRUE(
      send_all(fd, request_line("p1", "ping", json::Value(json::Object{})) +
                       request_line("p2", "ping",
                                    json::Value(json::Object{}))));
  std::string buffer, line;
  ASSERT_TRUE(read_line(fd, buffer, line));
  EXPECT_EQ(Response::parse(line).id, "p1");
  ASSERT_TRUE(read_line(fd, buffer, line));
  EXPECT_EQ(Response::parse(line).id, "p2");
  ::close(fd);
}

TEST_F(TransportTest, HalfCloseStillReceivesItsResponses) {
  MetricsOn metrics;
  start(base_options());
  const int fd = raw_tcp_fd();
  // Send sync work, then shut down the write side: "no more requests" must
  // not read as "client gone" — the response still has a way back.
  ASSERT_TRUE(send_all(fd, request_line("hc", "chaos", chaos_params(8))));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  std::string buffer, line;
  ASSERT_TRUE(read_line(fd, buffer, line, 60'000));
  const Response resp = Response::parse(line);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.id, "hc");
  EXPECT_EQ(resp.result.get_int("seeds_run", 0), 8);
  EXPECT_EQ(counter("serve.sync_disconnect_cancels"), 0);
  EXPECT_TRUE(read_eof(fd));
  ::close(fd);
}

// A chaos sweep checks its knobs before the first seed runs: each bad one
// is answered with one error that names the field and echoes the request
// id, not a failed verdict per seed, and the connection goes on serving.
TEST_F(TransportTest, OutOfRangeChaosKnobsAreOneErrorAndServingContinues) {
  start(base_options());
  const int fd = raw_tcp_fd();
  std::string buffer, line;
  const std::pair<const char*, double> bad[] = {
      {"theta", 0.0}, {"growth", -2.0}, {"repair_cost_slack", -1.0}};
  for (const auto& [field, value] : bad) {
    json::Value params = chaos_params(2);
    params.as_object()[field] = json::Value(value);
    const std::string id = std::string("bad-") + field;
    ASSERT_TRUE(send_all(fd, request_line(id, "chaos", std::move(params))));
    ASSERT_TRUE(read_line(fd, buffer, line, 60'000));
    const Response resp = Response::parse(line);
    EXPECT_EQ(resp.status, "error") << field;
    EXPECT_EQ(resp.id, id);
    EXPECT_NE(resp.error.find(field), std::string::npos) << resp.error;
  }
  ASSERT_TRUE(send_all(fd, request_line("good", "chaos", chaos_params(1))));
  ASSERT_TRUE(read_line(fd, buffer, line, 60'000));
  const Response resp = Response::parse(line);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(resp.id, "good");
  EXPECT_EQ(resp.result.get_int("seeds_run", 0), 1);
  EXPECT_EQ(resp.result.get_int("failures", -1), 0);
  ::close(fd);
}

TEST_F(TransportTest, IdleConnectionsAreClosedAfterTimeout) {
  MetricsOn metrics;
  Server::Options options = base_options();
  options.idle_timeout_ms = 100;
  start(options);

  const int fd = raw_tcp_fd();
  EXPECT_TRUE(read_eof(fd)) << "idle connection was never closed";
  ::close(fd);
  EXPECT_GE(counter("serve.idle_timeouts"), 1);

  // An active connection with sub-timeout gaps stays open.
  Client client(server_->tcp_endpoint());
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_TRUE(client.call("ping", json::Value(json::Object{})).ok());
  }
}

// Regression: finished connection threads were only reaped when the next
// client connected, so a connect/disconnect storm left fds and threads
// behind on an otherwise idle server.
TEST_F(TransportTest, DisconnectStormIsReapedWithoutNewAccepts) {
  start(base_options());
  {
    // Warm-up, so lazily-created fds don't skew the baseline count.
    Client warm(server_->tcp_endpoint());
    ASSERT_TRUE(warm.call("ping", json::Value(json::Object{})).ok());
  }
  ASSERT_TRUE(eventually([&] { return server_->tracked_connections() == 0; }));
  const std::size_t fds_before = open_fd_count();

  for (int i = 0; i < 40; ++i) {
    Client client(i % 2 == 0 ? server_->tcp_endpoint()
                             : "unix:" + options_.socket_path);
    ASSERT_TRUE(client.call("ping", json::Value(json::Object{})).ok());
  }
  // No new accepts from here on: the periodic reap alone must drive the
  // tracked set — and the fd table — back to the baseline.
  EXPECT_TRUE(
      eventually([&] { return server_->tracked_connections() == 0; }))
      << "tracked: " << server_->tracked_connections();
  EXPECT_TRUE(eventually([&] { return open_fd_count() <= fds_before; }))
      << "fds before " << fds_before << ", after " << open_fd_count();
}

// Regression: a sync work request whose client vanished kept its job
// running (and its worker slot busy) until completion; now the server
// cancels the job when the peer's socket reports POLLHUP.
TEST_F(TransportTest, VanishedPeerCancelsItsSyncJob) {
  MetricsOn metrics;
  Server::Options options = base_options();
  options.jobs.workers = 1;  // the doomed job owns the only worker
  start(options);

  // AF_UNIX reports a full close as POLLHUP deterministically (on TCP a
  // silent peer death is only detected at the next write).
  const int fd = raw_unix_fd();
  ASSERT_TRUE(send_all(fd, request_line("doomed", "chaos",
                                        chaos_params(100'000))));
  ASSERT_TRUE(eventually([&] { return server_->jobs().stats().running > 0; }))
      << "chaos job never started";
  ::close(fd);  // full close: both directions gone

  EXPECT_TRUE(eventually(
      [&] { return counter("serve.sync_disconnect_cancels") >= 1; }, 30'000))
      << "disconnect never cancelled the sync job";
  // The cooperative stop lands between seeds; the worker frees promptly
  // instead of grinding through the remaining ~100k seeds.
  EXPECT_TRUE(eventually(
      [&] { return server_->jobs().stats().running == 0; }, 30'000))
      << "cancelled job still running";

  // The daemon is healthy afterwards: the freed worker serves new clients.
  Client client(server_->tcp_endpoint());
  EXPECT_TRUE(client.call("ping", json::Value(json::Object{})).ok());
}

// --- cache-hit fast path -------------------------------------------------

/// Submits a chaos sweep long enough to hold a worker until cancelled.
std::string submit_long_chaos(Client& client) {
  json::Object submit;
  submit["method"] = "chaos";
  submit["params"] = chaos_params(100'000);
  const Response submitted =
      client.call("submit", json::Value(std::move(submit)));
  EXPECT_TRUE(submitted.ok()) << submitted.error;
  return submitted.result.get_string("job_id", "");
}

void cancel_job(Client& client, const std::string& job_id) {
  json::Object params;
  params["job_id"] = job_id;
  EXPECT_TRUE(client.call("cancel", json::Value(std::move(params))).ok());
}

TEST_F(TransportTest, CacheHitIsAnsweredWhileTheOnlyWorkerIsBusy) {
  Server::Options options = base_options();
  options.jobs.workers = 1;
  start(options);
  Client client(server_->tcp_endpoint());
  ASSERT_TRUE(client.call("plan", plan_params(), "warm").ok());

  const std::string chaos = submit_long_chaos(client);
  ASSERT_TRUE(eventually([&] { return server_->jobs().stats().running == 1; }))
      << "chaos job never started";
  // A raw read with a deadline: a hit stuck behind the chaos job fails the
  // test instead of hanging it.
  const int fd = raw_tcp_fd();
  ASSERT_TRUE(send_all(fd, request_line("hit", "plan", plan_params())));
  std::string buffer, line;
  const bool answered = read_line(fd, buffer, line, 5'000);
  ::close(fd);
  // The chaos job still holds the one worker: the hit never needed it.
  EXPECT_EQ(server_->jobs().stats().running, 1u);
  cancel_job(client, chaos);
  ASSERT_TRUE(answered) << "the hit waited for the busy worker";
  const Response hit = Response::parse(line);
  ASSERT_TRUE(hit.ok()) << hit.error;
  EXPECT_EQ(hit.id, "hit");
  EXPECT_TRUE(hit.cached);
}

TEST_F(TransportTest, FullQueueRefusesMissesButNotHits) {
  Server::Options options = base_options();
  options.jobs.workers = 1;
  options.jobs.max_queue = 1;
  start(options);
  Client client(server_->tcp_endpoint());
  ASSERT_TRUE(client.call("plan", plan_params(), "warm").ok());

  const std::string running = submit_long_chaos(client);
  ASSERT_TRUE(eventually([&] { return server_->jobs().stats().running == 1; }))
      << "chaos job never started";
  const std::string queued = submit_long_chaos(client);
  ASSERT_EQ(server_->jobs().stats().queued, 1u);

  const Response hit = client.call("plan", plan_params(), "hit");
  ASSERT_TRUE(hit.ok()) << hit.status << " " << hit.error;
  EXPECT_TRUE(hit.cached);
  const Response miss = client.call("plan", cold_plan_params(), "miss");
  EXPECT_EQ(miss.status, "overloaded");
  EXPECT_EQ(miss.id, "miss");

  cancel_job(client, queued);
  cancel_job(client, running);
}

TEST_F(TransportTest, FastPathHitLineEqualsTheInProcessHit) {
  start(base_options());
  Client client(server_->tcp_endpoint());
  ASSERT_TRUE(client.call("plan", plan_params(), "warm").ok());

  const std::string line = request_line("same", "plan", plan_params());
  const int fd = raw_tcp_fd();
  ASSERT_TRUE(send_all(fd, line));
  std::string buffer, served;
  ASSERT_TRUE(read_line(fd, buffer, served));
  ::close(fd);

  const std::atomic<bool> stop{false};
  const Response in_process =
      server_->service().execute(parse_request(line), stop);
  ASSERT_TRUE(in_process.cached);
  EXPECT_EQ(served + "\n", in_process.to_line());
  EXPECT_EQ(server_->service().cache().stats().hits, 2);
}

TEST_F(TransportTest, MalformedPlanParamsAreAnsweredWithoutAJob) {
  start(base_options());
  Client client(server_->tcp_endpoint());
  json::Object params;
  params["npd"] = 5;  // not an object
  Request bad;
  bad.id = "bad";
  bad.method = "plan";
  bad.params = json::Value(std::move(params));

  const Response resp = client.call(bad);
  EXPECT_EQ(resp.status, "error");
  EXPECT_EQ(resp.id, "bad");
  // Same message the worker path gives for these params.
  const std::atomic<bool> stop{false};
  EXPECT_EQ(resp.error, server_->service().execute(bad, stop).error);
  EXPECT_EQ(server_->jobs().stats().submitted, 0);

  // Params that normalize but cannot be planned still take a job, and its
  // error line is the in-process one.
  Request unplannable;
  unplannable.id = "unplannable";
  unplannable.method = "plan";
  unplannable.params = plan_params();
  unplannable.params.as_object()["planner"] = "no-such-planner";
  const Response failed = client.call(unplannable);
  EXPECT_EQ(server_->jobs().stats().submitted, 1);
  EXPECT_EQ(failed.to_line(),
            server_->service().execute(unplannable, stop).to_line());
}

}  // namespace
}  // namespace klotski::serve
