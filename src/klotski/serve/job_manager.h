// Bounded worker pool + async job table with priority-aware admission.
//
// Every work request that needs a worker — synchronous or submitted —
// becomes a job in one of two admission classes drained by a fixed worker
// pool (a sync plan request whose key is completed in the cache is
// answered by the server before admission and never becomes one), so planner
// concurrency is bounded by --workers no matter how many connections are
// open. Interactive methods (plan, audit — an operator is waiting on the
// answer) queue ahead of batch methods (whatif, chaos, replan — long
// sweeps a scheduler submitted), so a robustness sweep that takes minutes
// cannot wedge a one-second plan request behind it. Strict priority would
// let a steady interactive stream starve batch work forever, so dispatch
// carries a starvation bound: after `starvation_bound` consecutive
// interactive dispatches while batch work waits, the next free worker
// takes the oldest batch job regardless. Queued batch jobs report how many
// jobs are ordered ahead of them (JobView::queued_behind) so a caller can
// tell "slow because big" from "slow because parked".
//
// Admission control is explicit backpressure: when the two queues together
// already hold max_queue jobs, submit() refuses with kOverloaded and the
// server answers {"status":"overloaded"} immediately instead of queueing
// silently — the client owns the retry policy, the daemon owns its memory.
//
// Jobs expose a cooperative stop flag. cancel() removes a queued job
// outright and sets the flag on a running one; drain() (graceful SIGTERM)
// stops admission, flags every job, and waits until the queues and workers
// are idle. Work that honors the flag (replan via
// ReplanOptions::stop_requested, chaos between seeds, whatif between
// trajectories) checkpoints and returns early; work that doesn't (a single
// planner run) simply finishes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "klotski/serve/protocol.h"

namespace klotski::serve {

class JobManager {
 public:
  struct Options {
    int workers = 2;
    int max_queue = 64;
    /// Finished async jobs kept for poll() after completion; the oldest
    /// finished jobs beyond this are forgotten.
    std::size_t completed_jobs_kept = 256;
    /// Starvation bound of the two-class dispatch: the most consecutive
    /// interactive dispatches allowed while a batch job waits. With the
    /// default, at least every 5th dispatch under sustained interactive
    /// load is a batch job.
    int starvation_bound = 4;
  };

  enum class State { kQueued, kRunning, kDone, kError, kCancelled };
  static const char* state_name(State state);

  /// Admission class of a work method. Interactive requests (someone is
  /// blocked on the answer) dispatch ahead of batch sweeps; unknown
  /// methods count as interactive so their error response comes back fast.
  enum class Priority { kInteractive, kBatch };
  static Priority priority_for(const std::string& method);
  static const char* priority_name(Priority priority);

  /// The work body. `stop` is the job's cooperative stop flag; long-running
  /// work should poll it. Exceptions become status:"error" responses.
  using Work = std::function<Response(const std::atomic<bool>& stop)>;

  struct JobView {
    std::string id;
    std::string method;
    Priority priority = Priority::kInteractive;
    State state = State::kQueued;
    /// While queued: jobs currently ordered ahead of this one (for a batch
    /// job that counts every queued interactive job, which dispatch
    /// prefers). A progress indicator, not a promise — the starvation
    /// bound and new arrivals reorder dispatch. 0 once running/finished.
    std::size_t queued_behind = 0;
    Response result;  // meaningful once state is kDone/kError/kCancelled
  };

  struct Submitted {
    std::string job_id;   // empty on rejection
    std::string rejected; // "" | "overloaded" | "draining"
    bool ok() const { return rejected.empty(); }
  };

  explicit JobManager(const Options& options);
  ~JobManager();

  /// Admission-controlled enqueue.
  Submitted submit(const std::string& method, Work work);

  /// Snapshot of one job; nullopt for unknown (or long-forgotten) ids.
  std::optional<JobView> poll(const std::string& job_id) const;

  /// Blocks until the job finishes (or `timeout_ms` elapses; 0 = forever).
  /// Returns nullopt on unknown id or timeout.
  std::optional<JobView> wait(const std::string& job_id,
                              long long timeout_ms = 0);

  /// Queued jobs are cancelled outright; running jobs get their stop flag
  /// set (state stays kRunning until the work returns). Returns the state
  /// observed at cancel time, nullopt for unknown ids.
  std::optional<State> cancel(const std::string& job_id);

  /// Drops a finished job's record (sync requests clean up after harvest).
  void forget(const std::string& job_id);

  /// Graceful drain: stop admission, set every job's stop flag, wait until
  /// all admitted work has finished. Idempotent.
  void drain();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  std::size_t queue_depth() const;
  int workers() const { return static_cast<int>(workers_.size()); }

  struct Stats {
    long long submitted = 0;
    long long rejected_overloaded = 0;
    long long completed = 0;
    /// Batch dispatches forced by the starvation bound.
    long long starvation_promotions = 0;
    std::size_t queued = 0;  // queued_interactive + queued_batch
    std::size_t queued_interactive = 0;
    std::size_t queued_batch = 0;
    std::size_t running = 0;
  };
  Stats stats() const;

 private:
  struct Job {
    std::string id;
    std::string method;
    Priority priority = Priority::kInteractive;
    State state = State::kQueued;
    std::atomic<bool> stop{false};
    Work work;
    Response result;
  };

  void worker_loop();
  std::shared_ptr<Job> pop_locked();
  JobView view_locked(const Job& job) const;
  std::size_t queued_behind_locked(const Job& job) const;
  void prune_finished_locked();

  Options options_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;     // workers: work available / exit
  std::condition_variable finished_cv_;  // waiters: some job finished
  std::deque<std::shared_ptr<Job>> interactive_;
  std::deque<std::shared_ptr<Job>> batch_;
  std::unordered_map<std::string, std::shared_ptr<Job>> jobs_;
  std::deque<std::string> finished_order_;  // for completed_jobs_kept pruning
  std::uint64_t next_id_ = 1;
  std::size_t running_ = 0;
  /// Consecutive interactive dispatches while batch work waited; reset by
  /// every batch dispatch.
  int interactive_streak_ = 0;
  long long starvation_promotions_ = 0;
  bool shutdown_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<long long> submitted_{0};
  std::atomic<long long> rejected_overloaded_{0};
  std::atomic<long long> completed_{0};

  std::vector<std::thread> workers_;
};

}  // namespace klotski::serve
