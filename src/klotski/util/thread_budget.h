// The oversubscription-avoidance rule shared by every layered worker pool.
//
// Klotski nests worker pools: an outer pool (chaos or what-if sweep
// workers, or the serve daemon's job workers) whose members each own an
// inner budget (their ECMP router threads, or a whatif job's sweep
// workers). Every such split goes through split_thread_budget(): N outer
// workers each get inner_budget / N inner threads (never below 1), and the
// outer count is clamped to the available work so idle threads are never
// spawned.
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
