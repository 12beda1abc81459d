// Tests for the plan service: single-flight cache semantics, LRU eviction
// and spill, admission control, the async job manager, and a full
// socket-server round trip including the served-vs-pipeline byte-identity
// contract and graceful drain.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "klotski/json/canonical.h"
#include "klotski/json/json.h"
#include "klotski/npd/npd.h"
#include "klotski/npd/npd_io.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/pipeline/replan.h"
#include "klotski/serve/client.h"
#include "klotski/serve/job_manager.h"
#include "klotski/serve/plan_cache.h"
#include "klotski/serve/server.h"
#include "klotski/serve/service.h"
#include "klotski/topo/presets.h"
#include "klotski/traffic/demand_io.h"

namespace klotski::serve {
namespace {

json::Value preset_npd_json() {
  npd::NpdDocument doc;
  doc.name = "serve-test-a";
  doc.region = topo::preset_params(topo::PresetId::kA,
                                   topo::PresetScale::kReduced);
  doc.migration = npd::MigrationKind::kHgridV1ToV2;
  doc.hgrid = pipeline::hgrid_params_for(topo::PresetId::kA,
                                         topo::PresetScale::kReduced);
  doc.ssw = pipeline::ssw_params_for(topo::PresetScale::kReduced);
  doc.dmag = pipeline::dmag_params_for(topo::PresetScale::kReduced);
  return npd::to_json(doc);
}

Request plan_request(double theta = 0.75, const std::string& id = "") {
  Request req;
  req.id = id;
  req.method = "plan";
  json::Object params;
  params["npd"] = preset_npd_json();
  params["theta"] = theta;
  req.params = json::Value(std::move(params));
  return req;
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

PlanService::Options service_options() {
  PlanService::Options options;
  options.cache.capacity = 8;
  return options;
}

// --- single-flight -------------------------------------------------------

TEST(PlanServiceSingleFlight, NConcurrentIdenticalRequestsOnePlannerRun) {
  MetricsOn metrics;
  PlanService service(service_options());
  std::atomic<bool> stop{false};

  constexpr int kThreads = 8;
  std::vector<Response> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      responses[static_cast<std::size_t>(i)] =
          service.execute(plan_request(), stop);
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one planner invocation regardless of interleaving: one caller
  // owned the flight, the rest either waited on it or hit the completed
  // cache.
  EXPECT_EQ(obs::Registry::global().counter("serve.plan_runs").value(), 1);

  int cold = 0;
  std::set<std::string> distinct_texts;
  for (const Response& resp : responses) {
    ASSERT_TRUE(resp.ok()) << resp.error;
    if (!resp.cached) ++cold;
    distinct_texts.insert(json::dump(resp.result.at("plan"), 2));
  }
  EXPECT_EQ(cold, 1);
  // All N responses carry byte-identical plan documents.
  EXPECT_EQ(distinct_texts.size(), 1u);
}

TEST(PlanServiceSingleFlight, ServedBytesMatchThePipeline) {
  PlanService service(service_options());
  std::atomic<bool> stop{false};
  const Response resp = service.execute(plan_request(), stop);
  ASSERT_TRUE(resp.ok()) << resp.error;

  // The reference run, exactly as klotski_plan performs it.
  migration::MigrationCase mig =
      npd::build_case(npd::from_json(preset_npd_json()));
  pipeline::CheckerConfig config;
  config.demand.max_utilization = 0.75;
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, config);
  auto planner = pipeline::make_planner("astar");
  const core::Plan plan =
      planner->plan(mig.task, *bundle.checker, core::PlannerOptions{});
  ASSERT_TRUE(plan.found);

  json::Value expected = pipeline::plan_to_json(mig.task, plan);
  json::Value served = resp.result.at("plan");
  // wall_seconds is the one genuinely nondeterministic field (real wall
  // clock); zero it on both sides, then require byte equality.
  expected.as_object().find("stats")->as_object()["wall_seconds"] = 0.0;
  served.as_object().find("stats")->as_object()["wall_seconds"] = 0.0;
  EXPECT_EQ(json::dump(served, 2), json::dump(expected, 2));
}

TEST(PlanServiceSingleFlight, ErrorsAreNotCached) {
  PlanService service(service_options());
  std::atomic<bool> stop{false};
  Request req = plan_request();
  req.params.as_object()["planner"] = "no-such-planner";
  const Response first = service.execute(req, stop);
  EXPECT_EQ(first.status, "error");
  const Response second = service.execute(req, stop);
  EXPECT_EQ(second.status, "error");
  // Two misses, no hits: the failure never entered the cache.
  EXPECT_EQ(service.cache().stats().misses, 2);
  EXPECT_EQ(service.cache().stats().hits, 0);
}

TEST(PlanServiceSingleFlight, CacheKeyIgnoresNpdSpelling) {
  // Same region, different document spelling (key order): same cache key.
  json::Object a;
  a["npd"] = preset_npd_json();
  a["theta"] = 0.75;
  json::Object b;
  b["theta"] = 0.75;
  b["npd"] = preset_npd_json();
  EXPECT_EQ(json::content_hash(plan_cache_key_doc(json::Value(std::move(a)))),
            json::content_hash(plan_cache_key_doc(json::Value(std::move(b)))));

  // A knob change is a different key.
  json::Object c;
  c["npd"] = preset_npd_json();
  c["theta"] = 0.7;
  EXPECT_NE(
      json::content_hash(plan_cache_key_doc(plan_request().params)),
      json::content_hash(plan_cache_key_doc(json::Value(std::move(c)))));
}

// --- plan cache ----------------------------------------------------------

TEST(PlanCacheTest, WaiterReceivesOwnersBytes) {
  PlanCache cache(PlanCache::Options{4, ""});
  PlanCache::Lookup owner = cache.acquire("k");
  ASSERT_EQ(owner.outcome, PlanCache::Outcome::kOwner);

  std::vector<std::thread> waiters;
  std::vector<std::string> received(3);
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      PlanCache::Lookup lookup = cache.acquire("k");
      if (lookup.outcome == PlanCache::Outcome::kWait) {
        received[static_cast<std::size_t>(i)] = cache.wait(lookup.entry);
      } else {
        received[static_cast<std::size_t>(i)] = lookup.text;  // late: hit
      }
    });
  }
  // Wait until all three attached (coalesced) or resolved as hits.
  while (cache.stats().coalesced + cache.stats().hits < 3) {
    std::this_thread::yield();
  }
  cache.fulfill(owner.entry, "bytes");
  for (std::thread& t : waiters) t.join();
  for (const std::string& text : received) EXPECT_EQ(text, "bytes");
  EXPECT_EQ(cache.acquire("k").outcome, PlanCache::Outcome::kHit);
}

TEST(PlanCacheTest, FailedFlightPropagatesAndRecomputes) {
  PlanCache cache(PlanCache::Options{4, ""});
  PlanCache::Lookup owner = cache.acquire("k");
  ASSERT_EQ(owner.outcome, PlanCache::Outcome::kOwner);
  std::string error;
  std::thread waiter([&] {
    PlanCache::Lookup lookup = cache.acquire("k");
    if (lookup.outcome != PlanCache::Outcome::kWait) return;
    try {
      cache.wait(lookup.entry);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  while (cache.stats().coalesced < 1) std::this_thread::yield();
  cache.fail(owner.entry, "boom");
  waiter.join();
  EXPECT_EQ(error, "boom");
  // The failure was not cached; the next caller recomputes.
  EXPECT_EQ(cache.acquire("k").outcome, PlanCache::Outcome::kOwner);
}

TEST(PlanCacheTest, LruEvictionRespectsTouchOrder) {
  // shards = 1: global LRU order is only defined within one shard.
  PlanCache cache(PlanCache::Options{2, "", 1});
  auto put = [&](const std::string& key) {
    PlanCache::Lookup lookup = cache.acquire(key);
    ASSERT_EQ(lookup.outcome, PlanCache::Outcome::kOwner) << key;
    cache.fulfill(lookup.entry, "v:" + key);
  };
  put("a");
  put("b");
  EXPECT_EQ(cache.acquire("a").outcome, PlanCache::Outcome::kHit);  // touch a
  put("c");  // capacity 2: evicts b (least recently used), not a
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.acquire("a").outcome, PlanCache::Outcome::kHit);
  EXPECT_EQ(cache.acquire("c").outcome, PlanCache::Outcome::kHit);
  EXPECT_EQ(cache.acquire("b").outcome, PlanCache::Outcome::kOwner);
}

TEST(PlanCacheTest, EvictedEntriesServeFromSpill) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("klotski-spill-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    PlanCache cache(PlanCache::Options{1, dir, 1});
    auto put = [&](const std::string& key) {
      PlanCache::Lookup lookup = cache.acquire(key);
      ASSERT_EQ(lookup.outcome, PlanCache::Outcome::kOwner) << key;
      cache.fulfill(lookup.entry, "v:" + key);
    };
    put("a");
    put("b");  // evicts a from memory; a's bytes remain on disk
    EXPECT_EQ(cache.stats().evictions, 1);
    PlanCache::Lookup again = cache.acquire("a");
    EXPECT_EQ(again.outcome, PlanCache::Outcome::kHit);
    EXPECT_EQ(again.text, "v:a");
    EXPECT_EQ(cache.stats().spill_hits, 1);
  }
  {
    // A fresh cache over the same spill dir is warm: content-addressed
    // keys are stable across daemon generations.
    PlanCache cache(PlanCache::Options{4, dir});
    PlanCache::Lookup lookup = cache.acquire("b");
    EXPECT_EQ(lookup.outcome, PlanCache::Outcome::kHit);
    EXPECT_EQ(lookup.text, "v:b");
  }
  std::filesystem::remove_all(dir);
}

// --- job manager ---------------------------------------------------------

/// A job body that blocks until released, for queue-shape tests.
struct Blocker {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
  JobManager::Work work() {
    return [this](const std::atomic<bool>&) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return released; });
      return Response::make_ok("", json::Value(json::Object{}));
    };
  }
};

TEST(JobManagerTest, FullQueueRejectsWithOverloaded) {
  JobManager jobs(JobManager::Options{1, 1, 16});
  Blocker blocker;
  const JobManager::Submitted running =
      jobs.submit("plan", blocker.work());
  ASSERT_TRUE(running.ok());
  // Wait until the worker picked it up so the queue is truly empty.
  while (jobs.queue_depth() > 0) std::this_thread::yield();

  const JobManager::Submitted queued = jobs.submit("plan", blocker.work());
  ASSERT_TRUE(queued.ok());
  const JobManager::Submitted rejected =
      jobs.submit("plan", blocker.work());
  EXPECT_EQ(rejected.rejected, "overloaded");
  EXPECT_TRUE(rejected.job_id.empty());
  EXPECT_EQ(jobs.stats().rejected_overloaded, 1);

  blocker.release();
  EXPECT_EQ(jobs.wait(running.job_id)->state, JobManager::State::kDone);
  EXPECT_EQ(jobs.wait(queued.job_id)->state, JobManager::State::kDone);
}

TEST(JobManagerTest, PollWaitCancelLifecycle) {
  JobManager jobs(JobManager::Options{1, 8, 16});
  Blocker blocker;
  const JobManager::Submitted running =
      jobs.submit("plan", blocker.work());
  while (jobs.queue_depth() > 0) std::this_thread::yield();
  const JobManager::Submitted queued = jobs.submit("plan", blocker.work());

  EXPECT_FALSE(jobs.poll("j-999").has_value());
  EXPECT_EQ(jobs.poll(queued.job_id)->state, JobManager::State::kQueued);
  EXPECT_FALSE(jobs.wait(queued.job_id, 10).has_value());  // times out

  // A queued job cancels outright.
  EXPECT_EQ(jobs.cancel(queued.job_id), JobManager::State::kQueued);
  EXPECT_EQ(jobs.poll(queued.job_id)->state, JobManager::State::kCancelled);

  // A running job gets its stop flag; it finishes normally here.
  EXPECT_EQ(jobs.cancel(running.job_id), JobManager::State::kRunning);
  blocker.release();
  EXPECT_EQ(jobs.wait(running.job_id)->state, JobManager::State::kDone);

  jobs.forget(running.job_id);
  EXPECT_FALSE(jobs.poll(running.job_id).has_value());
}

TEST(JobManagerTest, ExceptionsBecomeErrorResponses) {
  JobManager jobs(JobManager::Options{1, 8, 16});
  const JobManager::Submitted submitted = jobs.submit(
      "plan", [](const std::atomic<bool>&) -> Response {
        throw std::runtime_error("kaput");
      });
  ASSERT_TRUE(submitted.ok());
  const JobManager::JobView view = *jobs.wait(submitted.job_id);
  EXPECT_EQ(view.state, JobManager::State::kError);
  EXPECT_EQ(view.result.status, "error");
  EXPECT_EQ(view.result.error, "kaput");
}

TEST(JobManagerTest, DrainFinishesAdmittedWorkThenRejects) {
  JobManager jobs(JobManager::Options{2, 8, 16});
  std::atomic<int> completed{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(jobs.submit("plan", [&](const std::atomic<bool>&) {
                      completed.fetch_add(1);
                      return Response::make_ok("",
                                               json::Value(json::Object{}));
                    })
                    .ok());
  }
  jobs.drain();
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(jobs.submit("plan",
                        [](const std::atomic<bool>&) {
                          return Response::make_ok(
                              "", json::Value(json::Object{}));
                        })
                .rejected,
            "draining");
}

// --- two-class priority dispatch -----------------------------------------

/// Appends each job's tag to a shared completion log as it runs; the log
/// order IS the dispatch order (single worker).
struct CompletionLog {
  std::mutex mu;
  std::vector<std::string> order;
  JobManager::Work work(const std::string& tag) {
    return [this, tag](const std::atomic<bool>&) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
      return Response::make_ok("", json::Value(json::Object{}));
    };
  }
};

TEST(JobManagerTest, MethodClassification) {
  EXPECT_EQ(JobManager::priority_for("plan"),
            JobManager::Priority::kInteractive);
  EXPECT_EQ(JobManager::priority_for("audit"),
            JobManager::Priority::kInteractive);
  EXPECT_EQ(JobManager::priority_for("whatif"),
            JobManager::Priority::kBatch);
  EXPECT_EQ(JobManager::priority_for("chaos"), JobManager::Priority::kBatch);
  EXPECT_EQ(JobManager::priority_for("replan"),
            JobManager::Priority::kBatch);
  // Unknown methods answer fast (their result is an error anyway).
  EXPECT_EQ(JobManager::priority_for("no-such-method"),
            JobManager::Priority::kInteractive);
}

TEST(JobManagerTest, InteractiveDispatchesAheadOfEarlierBatchWork) {
  // One worker, saturated: a blocker pins the worker while the queues
  // fill, so dispatch order is fully determined by the two-class policy.
  JobManager jobs(JobManager::Options{1, 32, 16});
  Blocker gate;
  CompletionLog log;
  ASSERT_TRUE(jobs.submit("plan", gate.work()).ok());
  while (jobs.queue_depth() > 0) std::this_thread::yield();

  std::vector<std::string> ids;
  ids.push_back(jobs.submit("whatif", log.work("b1")).job_id);
  ids.push_back(jobs.submit("chaos", log.work("b2")).job_id);
  ids.push_back(jobs.submit("plan", log.work("i1")).job_id);
  ids.push_back(jobs.submit("audit", log.work("i2")).job_id);

  const JobManager::Stats queued_stats = jobs.stats();
  EXPECT_EQ(queued_stats.queued_interactive, 2u);
  EXPECT_EQ(queued_stats.queued_batch, 2u);

  gate.release();
  for (const std::string& id : ids) {
    EXPECT_EQ(jobs.wait(id)->state, JobManager::State::kDone);
  }
  // Both interactive jobs ran before either batch job, despite the batch
  // jobs being submitted first.
  EXPECT_EQ(log.order,
            (std::vector<std::string>{"i1", "i2", "b1", "b2"}));
}

TEST(JobManagerTest, StarvationBoundGuaranteesBatchProgress) {
  // starvation_bound = 1: at most one consecutive interactive dispatch
  // while batch work waits, so the batch job runs second, not last.
  JobManager jobs(JobManager::Options{1, 32, 16, 1});
  Blocker gate;
  CompletionLog log;
  ASSERT_TRUE(jobs.submit("plan", gate.work()).ok());
  while (jobs.queue_depth() > 0) std::this_thread::yield();

  std::vector<std::string> ids;
  ids.push_back(jobs.submit("whatif", log.work("b")).job_id);
  for (int i = 1; i <= 4; ++i) {
    ids.push_back(
        jobs.submit("plan", log.work("i" + std::to_string(i))).job_id);
  }
  gate.release();
  for (const std::string& id : ids) {
    EXPECT_EQ(jobs.wait(id)->state, JobManager::State::kDone);
  }
  EXPECT_EQ(log.order,
            (std::vector<std::string>{"i1", "b", "i2", "i3", "i4"}));
  EXPECT_GE(jobs.stats().starvation_promotions, 1);
}

TEST(JobManagerTest, QueuedBatchJobsReportJobsOrderedAhead) {
  JobManager jobs(JobManager::Options{1, 32, 16});
  Blocker gate;
  ASSERT_TRUE(jobs.submit("plan", gate.work()).ok());
  while (jobs.queue_depth() > 0) std::this_thread::yield();

  const std::string b1 = jobs.submit("whatif", gate.work()).job_id;
  const std::string i1 = jobs.submit("plan", gate.work()).job_id;
  const std::string b2 = jobs.submit("replan", gate.work()).job_id;

  // The interactive job is next in line; each batch job counts every
  // queued interactive job plus earlier batch work.
  EXPECT_EQ(jobs.poll(i1)->queued_behind, 0u);
  EXPECT_EQ(jobs.poll(i1)->priority, JobManager::Priority::kInteractive);
  EXPECT_EQ(jobs.poll(b1)->queued_behind, 1u);
  EXPECT_EQ(jobs.poll(b1)->priority, JobManager::Priority::kBatch);
  EXPECT_EQ(jobs.poll(b2)->queued_behind, 2u);

  gate.release();
  for (const std::string& id : {b1, i1, b2}) {
    const JobManager::JobView view = *jobs.wait(id);
    EXPECT_EQ(view.state, JobManager::State::kDone);
    EXPECT_EQ(view.queued_behind, 0u);  // meaningful only while queued
  }
}

// --- whatif service method -----------------------------------------------

TEST(PlanServiceWhatIf, SecondIdenticalRequestIsServedFromCache) {
  MetricsOn metrics;
  PlanService service(service_options());
  std::atomic<bool> stop{false};

  const Response planned = service.execute(plan_request(), stop);
  ASSERT_TRUE(planned.ok()) << planned.error;

  Request req;
  req.method = "whatif";
  json::Object params;
  params["npd"] = preset_npd_json();
  params["plan"] = planned.result.at("plan");
  params["trajectories"] = 10;
  req.params = json::Value(std::move(params));

  const Response first = service.execute(req, stop);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.cached);
  const Response second = service.execute(req, stop);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.cached);

  // One sweep execution; the repeat was answered from the shared cache
  // with byte-identical report text, and no planner run was charged.
  EXPECT_EQ(obs::Registry::global().counter("serve.whatif_runs").value(), 1);
  EXPECT_EQ(obs::Registry::global().counter("serve.plan_runs").value(), 1);
  EXPECT_EQ(json::dump(first.result.at("report"), 2),
            json::dump(second.result.at("report"), 2));
  EXPECT_EQ(first.result.at("report").get_string("schema", ""),
            "klotski.whatif.v1");
  EXPECT_EQ(first.result.at("report").get_int("trajectories_run", -1), 10);
}

TEST(PlanServiceWhatIf, KeyNamespaceIsDisjointFromPlanKeys) {
  json::Object params;
  params["npd"] = preset_npd_json();
  params["plan"] = json::Value(json::Object{});
  const json::Value doc(std::move(params));
  // Same params document, different method → the schema field keeps the
  // content hashes apart even inside the shared PlanCache.
  EXPECT_NE(json::content_hash(whatif_cache_key_doc(doc)),
            json::content_hash(plan_cache_key_doc(doc)));
}

// The margin is closed-form now, so a bisection step count no longer
// names a different report: requests that differ only in the retired
// margin_iterations param share one key. The key schema is v3: v1 reports
// (bisected margins) and v2 reports (partial peaks on theta-break rows)
// are never served for a v3 request.
TEST(PlanServiceWhatIf, RetiredMarginIterationsDoNotSplitTheKey) {
  json::Object params;
  params["npd"] = preset_npd_json();
  params["plan"] = json::Value(json::Object{});
  json::Object tweaked = params;
  params["margin_iterations"] = 16;
  tweaked["margin_iterations"] = 4;
  const json::Value key = whatif_cache_key_doc(json::Value(params));
  EXPECT_EQ(key.get_string("schema", ""), "klotski.serve.whatif-key.v3");
  EXPECT_EQ(key.as_object().find("margin_iterations"), nullptr);
  EXPECT_EQ(json::content_hash(key), json::content_hash(whatif_cache_key_doc(
                                         json::Value(std::move(tweaked)))));
}

TEST(PlanServiceWhatIf, MalformedParamsBecomeErrorResponses) {
  PlanService service(service_options());
  std::atomic<bool> stop{false};
  Request req;
  req.method = "whatif";
  json::Object params;
  params["npd"] = preset_npd_json();
  // No plan document at all.
  req.params = json::Value(std::move(params));
  const Response resp = service.execute(req, stop);
  EXPECT_EQ(resp.status, "error");
}

/// A sweep whose growth leaves the routers' fixed-point range is answered
/// with an error naming the volume, from a two-worker sweep as from one.
TEST(PlanServiceWhatIf, GrowthPastTheFixedPointRangeIsAnError) {
  PlanService::Options options = service_options();
  options.threads = 2;
  PlanService service(options);
  std::atomic<bool> stop{false};
  const Response planned = service.execute(plan_request(), stop);
  ASSERT_TRUE(planned.ok()) << planned.error;

  Request req;
  req.method = "whatif";
  json::Object params;
  params["npd"] = preset_npd_json();
  params["plan"] = planned.result.at("plan");
  params["trajectories"] = 8;
  params["growth_min"] = 1e6;
  params["growth_max"] = 1e6;
  req.params = json::Value(std::move(params));
  const Response resp = service.execute(req, stop);
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("volume_tbps"), std::string::npos) << resp.error;
}

// --- request parameter ranges --------------------------------------------

/// Integer params narrow to int (counts) or uint64 (seeds). A value a bare
/// cast would wrap — 2^32 + 1 to 1, -1 to 2^64 - 1 — is an error naming
/// the field, never a request for something else.
TEST(PlanServiceParams, OutOfRangeIntegersAreRefusedNamingTheField) {
  PlanService service(service_options());
  std::atomic<bool> stop{false};
  const std::int64_t wraps_to_one = (std::int64_t{1} << 32) + 1;
  struct Case {
    const char* method;
    const char* field;
    bool seed;  // any non-negative int64 is a valid seed
  };
  const Case cases[] = {
      {"whatif", "trajectories", false},  {"whatif", "seed", true},
      {"whatif", "surges", false},        {"whatif", "forecast_errors", false},
      {"chaos", "max_replans", false},    {"chaos", "retries", false},
      {"chaos", "degrades", false},       {"chaos", "circuit_failures", false},
      {"chaos", "drains", false},         {"chaos", "step_failures", false},
      {"chaos", "surges", false},         {"chaos", "forecast_errors", false},
      {"chaos", "first_seed", true},      {"chaos", "seeds", false},
      {"replan", "max_phase_retries", false},
      {"replan", "max_replans", false},   {"replan", "failing_phases", false},
  };
  for (const Case& c : cases) {
    for (const std::int64_t value : {wraps_to_one, std::int64_t{-1}}) {
      if (c.seed && value > 0) continue;
      Request req;
      req.method = c.method;
      json::Object params;
      params["npd"] = preset_npd_json();
      if (std::string(c.field) == "failing_phases") {
        params[c.field] = json::Value(json::Array{json::Value(value)});
      } else {
        params[c.field] = json::Value(value);
      }
      req.params = json::Value(std::move(params));
      const Response resp = service.execute(req, stop);
      EXPECT_EQ(resp.status, "error") << c.method << " " << c.field << " = "
                                      << value;
      EXPECT_NE(resp.error.find(c.field), std::string::npos)
          << c.method << " " << c.field << " = " << value << ": "
          << resp.error;
    }
  }
}

/// Demand overrides are untrusted volumes: one the routers' fixed-point
/// range cannot hold is refused naming the demand and volume_tbps.
TEST(PlanServiceParams, OutOfRangeDemandVolumesAreRefused) {
  PlanService service(service_options());
  std::atomic<bool> stop{false};
  const json::Value npd = preset_npd_json();
  const migration::MigrationCase mig = npd::build_case(npd::from_json(npd));
  for (const double volume : {1e300, 32768.0, -1.0}) {
    json::Value demands =
        traffic::demands_to_json(*mig.task.topo, mig.task.demands);
    demands.as_object()["demands"].as_array()[0].as_object()["volume_tbps"] =
        json::Value(volume);
    Request req = plan_request();
    req.params.as_object()["demands"] = demands;
    const Response resp = service.execute(req, stop);
    EXPECT_EQ(resp.status, "error") << volume;
    EXPECT_NE(resp.error.find("volume_tbps"), std::string::npos)
        << resp.error;
  }
}

/// A negative planner budget used to mean "none": it is refused, naming
/// the field, on every method that takes the plan knobs.
TEST(PlanServiceParams, NegativeDeadlineIsRefusedNamingTheField) {
  PlanService service(service_options());
  std::atomic<bool> stop{false};
  for (const char* method : {"plan", "audit", "replan"}) {
    Request req = plan_request();
    req.method = method;
    req.params.as_object()["deadline"] = json::Value(-1.0);
    const Response resp = service.execute(req, stop);
    EXPECT_EQ(resp.status, "error") << method;
    EXPECT_NE(resp.error.find("deadline"), std::string::npos)
        << method << ": " << resp.error;
  }
}

// --- replan resume tokens ------------------------------------------------

/// A replan request resuming from a checkpoint whose stored plan names an
/// action type the task does not have. The checkpoint arrives from the
/// socket, so the driver must refuse it instead of indexing its per-type
/// counters with that type.
Request replan_with_bad_type_request(const std::string& id) {
  const json::Value npd = preset_npd_json();
  pipeline::ReplanCheckpoint cp;
  cp.done.assign(npd::build_case(npd::from_json(npd)).task.blocks.size(), 0);
  cp.plan_planner = "astar";
  cp.plan_cost = 1.0;
  cp.plan_actions = {core::PlannedAction{100000000, 0}};
  Request req;
  req.id = id;
  req.method = "replan";
  json::Object params;
  params["npd"] = npd;
  params["checkpoint"] = cp.to_json();
  req.params = json::Value(std::move(params));
  return req;
}

/// The same request carrying integers that a narrowing cast would wrap
/// into valid ones: step 2^32, done[0] 2^32 and action type 2^32 + 1 (they
/// used to load as 0, 0 and 1).
Request replan_with_wrapping_integers_request(const std::string& id) {
  Request req = replan_with_bad_type_request(id);
  json::Object& cp = req.params.as_object()["checkpoint"].as_object();
  const std::int64_t two32 = std::int64_t{1} << 32;
  cp["step"] = json::Value(two32);
  cp["done"].as_array()[0] = json::Value(two32);
  cp["plan"].as_object()["actions"].as_array()[0].as_array()[0] =
      json::Value(two32 + 1);
  return req;
}

TEST(PlanServiceReplan, CheckpointNamingAnUnknownActionTypeIsAnError) {
  PlanService service(service_options());
  std::atomic<bool> stop{false};
  const Response resp =
      service.execute(replan_with_bad_type_request("bad-cp"), stop);
  EXPECT_EQ(resp.status, "error");
  EXPECT_EQ(resp.id, "bad-cp");
  EXPECT_NE(resp.error.find("replan-checkpoint"), std::string::npos)
      << resp.error;
}

// --- server round trip ---------------------------------------------------

class ServerRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    // sun_path is tiny; keep the socket path short and unique.
    socket_path_ = "/tmp/kserve-" + std::to_string(::getpid()) + ".sock";
    Server::Options options;
    options.socket_path = socket_path_;
    options.jobs.workers = 2;
    options.jobs.max_queue = 8;
    options.service.cache.capacity = 8;
    server_ = std::make_unique<Server>(options);
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->request_drain();
    if (thread_.joinable()) thread_.join();
    server_.reset();
    std::remove(socket_path_.c_str());
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServerRoundTrip, PingStatsAndSyncPlan) {
  Client client(socket_path_);
  const Response pong = client.call("ping", json::Value(json::Object{}));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.result.get_string("schema", ""), "klotski.serve.v1");
  EXPECT_FALSE(pong.result.get_bool("draining", true));

  const Response cold = client.call(plan_request(0.75, "r1"));
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.id, "r1");
  EXPECT_FALSE(cold.cached);

  const Response hit = client.call(plan_request(0.75, "r2"));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cached);
  // Byte-identical across cold and cache hit by construction.
  EXPECT_EQ(json::dump(hit.result.at("plan"), 2),
            json::dump(cold.result.at("plan"), 2));

  const Response stats = client.call("stats", json::Value(json::Object{}));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.result.at("cache").get_int("hits", -1), 1);
  EXPECT_EQ(stats.result.at("cache").get_int("misses", -1), 1);
  // Only the cold plan was a job: the connection thread answered the hit.
  EXPECT_EQ(stats.result.at("jobs").get_int("completed", -1), 1);
}

TEST_F(ServerRoundTrip, MetricsMethodReportsTheLiveRegistry) {
  MetricsOn metrics;
  Client client(socket_path_);
  ASSERT_TRUE(client.call(plan_request(0.75, "cold")).ok());
  const Response hit = client.call(plan_request(0.75, "hit"));
  ASSERT_TRUE(hit.ok()) << hit.error;
  ASSERT_TRUE(hit.cached);

  const Response live =
      client.call("metrics", json::Value(json::Object{}), "m");
  ASSERT_TRUE(live.ok()) << live.error;
  EXPECT_EQ(live.id, "m");
  EXPECT_EQ(live.result.get_string("schema", ""), "klotski.metrics.v1");
  const json::Value& counters = live.result.at("counters");
  EXPECT_EQ(counters.get_int("serve.cache_hits", -1), 1);
  EXPECT_EQ(counters.get_int("serve.plan_runs", -1), 1);
}

TEST_F(ServerRoundTrip, DrainingRefusesCacheHitsToo) {
  Client client(socket_path_);
  ASSERT_TRUE(client.call(plan_request()).ok());  // warms the key

  // An admitted job holds the drain open while the connection still serves.
  Blocker blocker;
  ASSERT_TRUE(server_->jobs().submit("plan", blocker.work()).ok());
  server_->request_drain();
  for (;;) {
    const Response pong = client.call("ping", json::Value(json::Object{}));
    ASSERT_TRUE(pong.ok()) << pong.error;
    if (pong.result.get_bool("draining", false)) break;
    std::this_thread::yield();
  }
  const Response refused = client.call(plan_request(0.75, "late"));
  EXPECT_EQ(refused.status, "draining");
  EXPECT_EQ(refused.id, "late");
  EXPECT_EQ(server_->service().cache().stats().hits, 0);

  blocker.release();
  thread_.join();
}

TEST_F(ServerRoundTrip, ConcurrentClientsGetIdenticalBytes) {
  constexpr int kClients = 4;
  std::vector<std::string> texts(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(socket_path_);
      const Response resp = client.call(plan_request());
      if (resp.ok()) {
        texts[static_cast<std::size_t>(i)] =
            json::dump(resp.result.at("plan"), 2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kClients; ++i) {
    ASSERT_FALSE(texts[static_cast<std::size_t>(i)].empty());
    EXPECT_EQ(texts[static_cast<std::size_t>(i)], texts[0]);
  }
}

TEST_F(ServerRoundTrip, AsyncSubmitPollWait) {
  Client client(socket_path_);
  json::Object submit;
  submit["method"] = "plan";
  submit["params"] = plan_request(0.74).params;
  const Response submitted =
      client.call("submit", json::Value(std::move(submit)), "s1");
  ASSERT_TRUE(submitted.ok()) << submitted.error;
  const std::string job_id = submitted.result.get_string("job_id", "");
  ASSERT_FALSE(job_id.empty());

  json::Object wait;
  wait["job_id"] = job_id;
  wait["timeout_ms"] = 30'000;
  const Response done = client.call("wait", json::Value(std::move(wait)));
  ASSERT_TRUE(done.ok()) << done.error;
  EXPECT_EQ(done.result.get_string("state", ""), "done");
  const json::Value& inner = done.result.at("response");
  EXPECT_EQ(inner.get_string("status", ""), "ok");

  json::Object poll;
  poll["job_id"] = job_id;
  const Response polled = client.call("poll", json::Value(std::move(poll)));
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.result.get_string("state", ""), "done");
}

TEST_F(ServerRoundTrip, MalformedAndUnknownRequests) {
  Client client(socket_path_);
  Request bogus;
  bogus.method = "no-such-method";
  EXPECT_EQ(client.call(bogus).status, "error");

  json::Object submit;
  submit["method"] = "ping";  // not a work method
  EXPECT_EQ(client.call("submit", json::Value(std::move(submit))).status,
            "error");
  EXPECT_EQ(client.call("poll", json::Value(json::Object{})).status,
            "error");
}

TEST_F(ServerRoundTrip, MalformedCheckpointIsAnsweredAndServingGoesOn) {
  Client client(socket_path_);
  const Response bad = client.call(replan_with_bad_type_request("cp-1"));
  EXPECT_EQ(bad.status, "error");
  EXPECT_EQ(bad.id, "cp-1");
  const Response next = client.call(plan_request(0.75, "after"));
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.id, "after");
}

TEST_F(ServerRoundTrip, OutOfRangeCheckpointIntegersAreAnsweredWithTheId) {
  Client client(socket_path_);
  const Response bad =
      client.call(replan_with_wrapping_integers_request("cp-range"));
  EXPECT_EQ(bad.status, "error");
  EXPECT_EQ(bad.id, "cp-range");
  EXPECT_NE(bad.error.find("replan-checkpoint: json: step = 4294967296"),
            std::string::npos)
      << bad.error;
  const Response next = client.call(plan_request(0.75, "after"));
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.id, "after");
}

// An NPD asking for more pods than Location can index is refused before
// the case is built (it used to allocate until bad_alloc), so the daemon
// answers with the id and goes on serving.
TEST_F(ServerRoundTrip, OversizedRegionIsAnsweredAndServingGoesOn) {
  Client client(socket_path_);
  Request huge = plan_request(0.75, "huge");
  json::Value& fabric = huge.params.as_object()["npd"].as_object()["fabric"];
  fabric.as_object()["buildings"].as_array()[0].as_object()["pods"] =
      json::Value(std::int64_t{2147483647});
  const Response bad = client.call(huge);
  EXPECT_EQ(bad.status, "error");
  EXPECT_EQ(bad.id, "huge");
  EXPECT_NE(bad.error.find("pods"), std::string::npos) << bad.error;
  const Response next = client.call(plan_request(0.75, "after"));
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.id, "after");
}

// Theta and the funneling margin are checked where every checker stack is
// built, so a daemon refuses them on any method, with the request id, and
// goes on serving.
TEST_F(ServerRoundTrip, OutOfRangeCheckerKnobsAreAnsweredAndServingGoesOn) {
  Client client(socket_path_);
  const Response hot = client.call(plan_request(50.0, "theta-50"));
  EXPECT_EQ(hot.status, "error");
  EXPECT_EQ(hot.id, "theta-50");
  EXPECT_NE(hot.error.find("theta 50 is outside (0, 1]"), std::string::npos)
      << hot.error;
  Request negative = plan_request(0.75, "funneling-neg");
  negative.params.as_object()["funneling"] = json::Value(-5.0);
  const Response bad = client.call(negative);
  EXPECT_EQ(bad.status, "error");
  EXPECT_EQ(bad.id, "funneling-neg");
  EXPECT_NE(bad.error.find("funneling margin -5 is outside [0, inf)"),
            std::string::npos)
      << bad.error;
  const Response next = client.call(plan_request(0.75, "after"));
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.id, "after");
}

TEST_F(ServerRoundTrip, DrainStopsAdmissionAndCompletes) {
  Client client(socket_path_);
  ASSERT_TRUE(client.call(plan_request()).ok());
  server_->request_drain();
  if (thread_.joinable()) thread_.join();
  // After run() returns all admitted work finished and the socket is gone.
  EXPECT_EQ(server_->jobs().stats().queued, 0u);
  EXPECT_EQ(server_->jobs().stats().running, 0u);
  EXPECT_THROW(Client second(socket_path_), std::runtime_error);
}

}  // namespace
}  // namespace klotski::serve
