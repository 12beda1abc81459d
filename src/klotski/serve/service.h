// PlanService: the work methods of the serve protocol (plan / audit /
// chaos / replan / whatif), independent of any transport.
//
// The plan method is content-addressed: the request is normalized (NPD
// parsed and re-serialized so formatting and defaulted fields cannot change
// the identity, tuning knobs defaulted), hashed with json::content_hash, and
// looked up in the PlanCache with single-flight semantics. The cached value
// is the exact pretty-printed plan text klotski_plan would have written, so
// a cache hit — or a waiter coalesced onto another request's flight — is
// byte-identical to a cold run. The serve.plan_runs counter increments only
// when the planner actually executes, which is what the single-flight test
// asserts. The daemon splits a sync plan request in two: cached_plan()
// answers a key completed in memory on the connection thread, and
// run_plan() runs everything else on a worker with the key already
// computed; execute() does both in-process.
//
// whatif rides the same machinery in a distinct key namespace (the key
// document's schema field participates in the content hash, so a whatif key
// can never collide with a plan key): the cached value is the exact
// klotski.whatif.v1 report text klotski_whatif would write — reports are
// bit-identical at any thread count — and serve.whatif_runs increments only
// when a sweep actually executes.
//
// chaos and replan are long-running and honor the job's cooperative stop
// flag: chaos finishes the current seed and reports a partial sweep; replan
// checkpoints after the current phase (ReplanOptions::stop_requested) and
// returns the checkpoint as a resume token. whatif polls the flag between
// trajectories, but a stopped (partial) report is never cached.
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "klotski/serve/plan_cache.h"
#include "klotski/serve/protocol.h"

namespace klotski::serve {

class PlanService {
 public:
  struct Options {
    PlanCache::Options cache;
    /// Sweep workers of each whatif job. Reports are invariant to the
    /// count, so it never participates in a cache key; the daemon sets it
    /// to its per-worker share of --threads. The other methods run on one
    /// thread.
    int threads = 1;
  };

  explicit PlanService(const Options& options);

  /// Executes one work request (method plan | audit | chaos | replan |
  /// whatif). Never throws: malformed params and planner failures become
  /// status:"error" responses. `stop` is the owning job's cooperative stop
  /// flag.
  Response execute(const Request& request, const std::atomic<bool>& stop);

  /// The response to a plan request whose `key` (plan_cache_key of its
  /// params) is completed in the in-memory cache, counted as one hit;
  /// nullopt otherwise. Never blocks on a flight or reads the spill dir.
  std::optional<Response> cached_plan(const Request& request,
                                      const std::string& key);

  /// The plan method for a request whose cache key is already computed:
  /// hit, coalesced wait or owned planner run. Throws on failure (execute()
  /// and the daemon's job workers turn that into an error response).
  Response run_plan(const Request& request, const std::string& key);

  PlanCache& cache() { return cache_; }
  const Options& options() const { return options_; }

 private:
  Response run_audit(const Request& request);
  Response run_chaos(const Request& request, const std::atomic<bool>& stop);
  Response run_replan(const Request& request, const std::atomic<bool>& stop);
  Response run_whatif(const Request& request, const std::atomic<bool>& stop);

  /// The exact klotski.whatif.v1 report text klotski_whatif would write.
  /// Sets `stopped` when the sweep quit early on the stop flag (partial
  /// reports must not be cached). Throws on malformed params.
  std::string compute_whatif_text(const json::Value& params,
                                  const std::atomic<bool>& stop,
                                  bool& stopped);

  /// The exact plan text klotski_plan would write for these params, running
  /// the planner + pre-emit audit. Throws std::runtime_error on no-plan or
  /// audit failure.
  std::string compute_plan_text(const json::Value& params);

  Options options_;
  PlanCache cache_;
};

/// The plan request's cache identity: normalized params document whose
/// content_hash keys the PlanCache. Exposed for tests (key stability is an
/// on-disk format: spill files from one daemon generation must stay valid
/// for the next).
json::Value plan_cache_key_doc(const json::Value& params);

/// json::content_hash of plan_cache_key_doc: the PlanCache key of a plan
/// request. Throws on params that fail normalization.
std::string plan_cache_key(const json::Value& params);

/// The whatif request's cache identity ("klotski.serve.whatif-key.v3"):
/// normalized NPD + plan + every sampling knob, thread counts excluded
/// (reports are thread-invariant). Same PlanCache, disjoint namespace.
json::Value whatif_cache_key_doc(const json::Value& params);

}  // namespace klotski::serve
