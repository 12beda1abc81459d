#include "common.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include <sys/resource.h>

#include "klotski/npd/npd_io.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 5) failures.push_back(what);
}

void Result::set(const std::string& name, double value) {
  const auto it = metrics.find(name);
  if (it == metrics.end()) {
    throw std::logic_error("metric '" + name + "' is not declared");
  }
  it->second.value = value;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},     {"p50_ms", "ms"},        {"tail_ms", "ms"},
      {"work_per_s", "1/s"}, {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"npd.parse_ms", "ms"},
      {"npd.build_case_ms", "ms"},
      {"pipeline.checker_build_ms", "ms"},
      {"pipeline.audit_ms", "ms"},
      {"pipeline.emit_ms", "ms"},
      {"pipeline.replan_rounds", "count"},
      {"pipeline.warm_win_frac", "frac"},
      {"core.plan_ms", "ms"},
      {"core.self_ms", "ms"},
      {"core.visited", "count"},
      {"core.sat_checks", "count"},
      {"core.cache_hit_frac", "frac"},
      {"core.plan_calls", "count"},
      {"constraints.checks", "count"},
      {"constraints.port_ms", "ms"},
      {"constraints.demand_ms", "ms"},
      {"constraints.demand_us_per_check", "us"},
      {"constraints.pass_frac", "frac"},
      {"traffic.groups", "count"},
      {"traffic.group_recomputes", "count"},
      {"traffic.recomputes_per_check", "count"},
      {"traffic.group_reuse_frac", "frac"},
      {"whatif.factory_ms", "ms"},
      {"whatif.sweep_ms", "ms"},
      {"whatif.report_ms", "ms"},
      {"serve.cache_hits", "count"},
      {"serve.cache_misses", "count"},
      {"serve.coalesced", "count"},
      {"serve.rejected", "count"},
      {"serve.queue_peak", "count"},
      {"serve.miss_p50_ms", "ms"},
      {"serve.miss_p90_ms", "ms"},
      {"serve.parse_us", "us"},
      {"serve.key_us", "us"},
      {"serve.execute_hit_us", "us"},
      {"serve.serialize_us", "us"},
      {"bench.gen_lag_ms", "ms"},
      {"bench.span_coverage_frac", "frac"},
      {"bench.trace_overhead_frac", "frac"},
  };
  return kMetrics;
}

void init_metrics(Result& result, bool trace) {
  for (const auto& [name, unit] :
       trace ? per_layer_metrics() : end_to_end_metrics()) {
    result.metrics[name] = Metric{0.0, unit};
  }
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> closed_loop(double seconds,
                                const std::function<double()>& op) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  while (walls.empty() || ms_between(start, Clock::now()) < seconds * 1e3) {
    walls.push_back(op());
  }
  return walls;
}

BlockedRun blocked_loop(double seconds, int block_ops, int setup_repeats,
                        const std::function<void()>& set_up,
                        const std::function<double()>& op) {
  BlockedRun run;
  set_up();  // cold caches; not timed
  double measured_ms = 0.0;  // wall spent in blocks
  // Times the set-ups due by `measured_ms`: set-up i is due once
  // i / setup_repeats of the run's seconds have been measured.
  const auto due_setups = [&](double until_ms) {
    while (static_cast<int>(run.setup_s.size()) < setup_repeats &&
           until_ms >= static_cast<double>(run.setup_s.size()) * seconds * 1e3 /
                           setup_repeats) {
      const Clock::time_point start = Clock::now();
      set_up();
      run.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
      run.setup_block.push_back(run.blocks.size());
    }
  };
  while (run.blocks.empty() || measured_ms < seconds * 1e3) {
    due_setups(measured_ms);
    const Clock::time_point start = Clock::now();
    std::vector<double> block;
    for (int i = 0; i < block_ops; ++i) block.push_back(op());
    measured_ms += ms_between(start, Clock::now());
    run.blocks.push_back(std::move(block));
  }
  due_setups(measured_ms);
  for (std::size_t& b : run.setup_block) b = std::min(b, run.blocks.size() - 1);
  return run;
}

CheckCounts count_checks(const std::function<void()>& body) {
  klotski::obs::Registry& reg = klotski::obs::Registry::global();
  klotski::obs::Counter& checks = reg.counter("checker.composite.checks");
  klotski::obs::Counter& recomputes = reg.counter("router.group_recomputes");
  const long long checks0 = checks.value();
  const long long recomputes0 = recomputes.value();
  klotski::obs::set_metrics_enabled(true);
  body();
  klotski::obs::set_metrics_enabled(false);
  return CheckCounts{static_cast<double>(checks.value() - checks0),
                     static_cast<double>(recomputes.value() - recomputes0)};
}

void report_blocked_run(Result& result, const BlockedRun& run,
                        double work_per_op, double peak_rss_mb) {
  std::vector<double> all, block_p50s;
  // Operation i of every block runs the same input: its fastest wall.
  std::vector<double> fastest = run.blocks.front();
  double rate = 0.0;
  for (const std::vector<double>& block : run.blocks) {
    block_p50s.push_back(median(block));
    const double busy_s = std::accumulate(block.begin(), block.end(), 0.0) / 1e3;
    rate = std::max(rate, work_per_op * static_cast<double>(block.size()) / busy_s);
    for (std::size_t i = 0; i < block.size(); ++i) {
      fastest[i] = std::min(fastest[i], block[i]);
    }
    all.insert(all.end(), block.begin(), block.end());
  }
  const double faster_half = median(block_p50s);
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < run.setup_s.size(); ++i) {
    if (block_p50s[run.setup_block[i]] <= faster_half) {
      setup_s.push_back(run.setup_s[i]);
    }
  }
  result.set("setup_s", median(setup_s));
  result.set("p50_ms", median(fastest));
  result.set("tail_ms", quantile(fastest, 0.9));
  result.set("work_per_s", rate);
  result.set("peak_rss_mb", peak_rss_mb);
  result.notes.push_back(
      std::to_string(run.blocks.size()) + " blocks of " +
      std::to_string(run.blocks.front().size()) + " operations; over the " +
      "whole run p50 = " + std::to_string(median(all)) + " ms, p90 = " +
      std::to_string(quantile(all, 0.9)) + " ms; setup_s from " +
      std::to_string(setup_s.size()) + " of " +
      std::to_string(run.setup_s.size()) + " timed set-ups (median of all " +
      std::to_string(median(run.setup_s)) + " s)");
}

void report_trace_overhead(Result& result,
                           const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms) {
  const double base = median(untraced_ms);
  result.set("bench.trace_overhead_frac",
             base > 0.0 ? (median(traced_ms) - base) / base : 0.0);
}

long long demand_groups(klotski::migration::MigrationTask& task) {
  klotski::pipeline::CheckerConfig config;
  config.demand.max_utilization = kTheta;
  klotski::pipeline::CheckerBundle bundle =
      klotski::pipeline::make_standard_checker(task, config);
  bundle.checker->check(*task.topo);
  return bundle.router->group_recomputes();
}

void report_traffic(Result& result, double ops, double checks,
                    double recomputes, long long groups) {
  const auto g = static_cast<double>(groups);
  result.set("traffic.groups", g);
  result.set("traffic.group_recomputes", recomputes / ops);
  result.set("traffic.recomputes_per_check", recomputes / checks);
  result.set("traffic.group_reuse_frac", 1.0 - recomputes / (checks * g));
}

std::string region_d_npd_text(std::uint64_t seed) {
  using namespace klotski;
  npd::NpdDocument doc = pipeline::synth_document(
      topo::TopologyFamily::kClos, topo::PresetId::kD,
      topo::PresetScale::kFull, npd::default_migration(topo::TopologyFamily::kClos));
  // The seed only names the region: demands are not jittered, because this
  // instance sits at the theta boundary and small volume changes halve or
  // double its planning work.
  doc.name = "clos-preset-D/full/seed-" + std::to_string(seed);
  return npd::dump_npd(doc);
}

std::string reference_plan_path(const Options& options) {
  return options.data_dir + "/clos-d-full.plan.json";
}

}  // namespace perfbench
