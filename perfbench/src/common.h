// Shared types of the benchmark workloads: run options, the result every
// workload fills in, and the sample statistics the metrics are made of.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string served;   // path of the klotski_served binary (serve-mixed)
  std::string data_dir;  // perfbench/data: checked-in reference inputs
  std::string out_dir;   // scratch space inside the build tree
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer ledger of a traced one.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few oracle mismatches
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // human-readable report lines

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value);
  bool correct() const { return failed == 0; }
};

/// End-to-end metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// Per-layer metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Pre-fills `result.metrics` with every metric of the run's kind at zero,
/// so a layer a workload never calls reads 0 rather than going missing.
void init_metrics(Result& result, bool trace);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

/// Peak resident set of this process so far, in MB.
double self_peak_rss_mb();

/// Runs `op`, which returns its own wall in ms, back to back for `seconds`
/// (at least once) and returns the walls.
std::vector<double> closed_loop(double seconds, const std::function<double()>& op);

/// What an untimed closed-loop run measured: the walls of its operations,
/// cut into consecutive blocks, and its timed set-ups.
struct BlockedRun {
  std::vector<std::vector<double>> blocks;  // op walls in ms, one vector per block
  std::vector<double> setup_s;
  // For each set-up, the block that ran next (the last block for set-ups
  // timed after it).
  std::vector<std::size_t> setup_block;
};

/// The end-to-end loop of plan-cold, whatif-sweep and replan-faults. Runs
/// `set_up` once untimed (cold caches), then blocks of `block_ops` calls of
/// `op` back to back until `seconds` of blocks have run (at least one
/// block). `setup_repeats` timed set-ups are spread evenly over the run,
/// between blocks, so they sample the whole run, not its first second.
BlockedRun blocked_loop(double seconds, int block_ops, int setup_repeats,
                        const std::function<void()>& set_up,
                        const std::function<double()>& op);

/// Composite checks and router group recomputes the program counted in its
/// obs registry while `body` ran with metrics enabled. For workloads whose
/// checker stacks are built inside the library, out of the decorators' reach.
struct CheckCounts {
  double checks = 0.0;
  double recomputes = 0.0;
};
CheckCounts count_checks(const std::function<void()>& body);

/// The end-to-end metrics of a blocked run. Every block runs the same
/// inputs in the same order, so the repeats of an operation differ only in
/// how much the shared host slowed them: p50_ms and tail_ms are the median
/// and p90 over a block's operations of each one's fastest wall in the run,
/// and work_per_s is the highest block rate of work units per busy second.
/// setup_s is the median of the set-ups timed just before the faster half of
/// the blocks (block median at or below the median block median), for the
/// same reason. peak_rss_mb as given.
void report_blocked_run(Result& result, const BlockedRun& run,
                        double work_per_op, double peak_rss_mb);

/// Splits a run into its untraced and traced halves: trace runs measure
/// seconds/2 without spans and seconds/2 with them, and report the relative
/// difference of the two medians as bench.trace_overhead_frac.
void report_trace_overhead(Result& result,
                           const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms);

/// Number of target-set demand groups of `task`'s demand set: the group
/// recomputes of one first check on a fresh standard checker stack.
long long demand_groups(klotski::migration::MigrationTask& task);

/// Sets the traffic.* ledger rows from per-operation totals: recomputes per
/// check, and the share of group evaluations (checks x groups) the router's
/// incremental cache avoided.
void report_traffic(Result& result, double ops, double checks,
                    double recomputes, long long groups);

/// Per-workload runners (workload_*.cpp).
Result run_plan_cold(const Options& options);
Result run_whatif_sweep(const Options& options);
Result run_serve_mixed(const Options& options);
Result run_replan_faults(const Options& options);

/// Runs the replan-faults fault seed pool through the chaos engine and
/// writes each seed's verdict to `path` (data/replan-b-verdicts.json).
/// Throws when a seed breaks an invariant.
void record_replan_verdicts(const std::string& path);

/// Shared by plan-cold and whatif-sweep: the full-scale Clos preset D
/// region (HGRID V1->V2) as NPD text named after the seed, and the
/// checked-in reference plan for it.
std::string region_d_npd_text(std::uint64_t seed);
std::string reference_plan_path(const Options& options);
inline constexpr double kTheta = 0.75;

}  // namespace perfbench
