// The oversubscription-avoidance rule shared by every worker pool.
//
// Every pool sizes itself through split_thread_budget(): the chaos and
// what-if sweeps clamp their worker count to the available work (seeds,
// trajectories) so idle threads are never spawned, and the serve daemon
// splits its --threads budget across its N job workers, so each whatif job
// runs inner_budget / N sweep workers (never below 1). A satisfiability
// check runs on one thread.
#pragma once

namespace klotski::util {

struct ThreadBudget {
  int outer = 1;  // workers at the outer level
  int inner = 1;  // inner-threads budget handed to each outer worker
};

/// Splits `inner_budget` threads across `outer_requested` workers.
/// `max_outer` caps the outer pool at the number of independent work items
/// (seeds, queued jobs); pass 0 or negative for "no cap". Requests below 1
/// are treated as 1, so callers can pass raw flag values.
ThreadBudget split_thread_budget(int outer_requested, int inner_budget,
                                 int max_outer = 0);

/// Hardware concurrency with a sane floor: std::thread::hardware_concurrency
/// can return 0; this never returns less than 1.
int hardware_threads();

}  // namespace klotski::util
