// Klotski-A* (§4.4) over the struct-of-arrays search arena.
//
// Nodes are 32-bit indices into SearchArena columns; duplicate detection
// goes through DedupTable keyed on the incremental Zobrist state hash, so
// the per-expansion work is a handful of O(1) probes plus one |V|-int row
// copy per accepted successor — no per-node heap allocation anywhere.
//
// With PlannerOptions::mem_budget_mb set, the search tracks its exact
// footprint (arena + dedup table + open list + satisfiability cache). On
// exceeding the budget it evicts the worst half of the open list (keeping
// at least kMinBeamWidth entries — this is the degradation to beam search),
// compacts the arena to the surviving nodes plus their parent chains,
// rebuilds the dedup table from the survivors and clears the satisfiability
// cache. Closed ancestors keep their dedup entries through the rebuild,
// which caps re-expansion: a re-generated state is only re-opened on a
// strictly better g. Without a budget the search is bit-identical to the
// reference implementation (tests/core/soa_equivalence_test.cpp holds the
// old representation to that claim).
#include "klotski/core/astar_planner.h"

#include <algorithm>
#include <vector>

#include "klotski/core/cost_model.h"
#include "klotski/core/search_arena.h"
#include "klotski/core/search_scope.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/obs/trace.h"
#include "klotski/util/timer.h"

namespace klotski::core {

namespace {

struct QueueEntry {
  double f = 0.0;
  std::int32_t finished = 0;  // secondary priority: more finished first
  long long seq = 0;          // FIFO tie break for determinism
  std::uint32_t node = SearchArena::kNoNode;
};

struct QueueCompare {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.f != b.f) return a.f > b.f;                       // min f
    if (a.finished != b.finished) return a.finished < b.finished;  // max done
    return a.seq > b.seq;                                   // FIFO
  }
};

// The open list: an explicit binary heap (same push_heap/pop_heap protocol
// std::priority_queue uses, so the pop order is unchanged) whose storage is
// accessible for budget eviction.
class OpenList {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::size_t allocated_bytes() const {
    return heap_.capacity() * sizeof(QueueEntry);
  }

  void push(const QueueEntry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), QueueCompare{});
  }

  QueueEntry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), QueueCompare{});
    const QueueEntry e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// Keeps the `keep` best entries (by the queue order), drops the rest,
  /// and restores the heap property. Returns the number dropped.
  std::size_t evict_worst(std::size_t keep) {
    if (heap_.size() <= keep) return 0;
    // QueueCompare is a greater-than for the heap; best-first ascending
    // order is its negation.
    std::nth_element(heap_.begin(),
                     heap_.begin() + static_cast<std::ptrdiff_t>(keep),
                     heap_.end(), [](const QueueEntry& a, const QueueEntry& b) {
                       return QueueCompare{}(b, a);
                     });
    const std::size_t dropped = heap_.size() - keep;
    heap_.resize(keep);
    heap_.shrink_to_fit();
    std::make_heap(heap_.begin(), heap_.end(), QueueCompare{});
    return dropped;
  }

  std::vector<QueueEntry>& entries() { return heap_; }

 private:
  std::vector<QueueEntry> heap_;
};

// Smallest open list the budget may evict down to; below this the search
// would degenerate to near-greedy and eviction overhead would dominate.
constexpr std::size_t kMinBeamWidth = 1024;

}  // namespace

Plan AStarPlanner::plan(migration::MigrationTask& task,
                        constraints::CompositeChecker& checker,
                        const PlannerOptions& options) {
  util::Stopwatch stopwatch;
  obs::Span span("plan/astar");
  const util::Deadline deadline =
      options.deadline_seconds > 0.0
          ? util::Deadline::after_seconds(options.deadline_seconds)
          : util::Deadline::unlimited();

  Plan plan;
  plan.planner = name();

  StateEvaluator evaluator(task, checker, options.use_satisfiability_cache);
  const SearchScope scope(evaluator, checker);
  const CountVector& target = evaluator.target();
  const auto num_types = static_cast<std::int32_t>(target.size());
  const CostModel cost(options.alpha, options.type_weights);

  const auto budget_bytes = static_cast<std::size_t>(
      options.mem_budget_mb > 0.0 ? options.mem_budget_mb * 1024.0 * 1024.0
                                  : 0.0);
  plan.provenance.mem_budget_mb = options.mem_budget_mb;

  auto finish = [&](Plan&& p) {
    task.reset_to_original();
    p.stats.sat_checks = evaluator.sat_checks();
    p.stats.cache_hits = evaluator.cache_hits();
    p.stats.evaluations = evaluator.evaluations();
    p.stats.delta_applies = evaluator.delta_applies();
    p.stats.full_replays = evaluator.full_replays();
    p.stats.wall_seconds = stopwatch.elapsed_seconds();
    publish_planner_metrics(name(), p.stats, &p.provenance);
    return std::move(p);
  };

  // Demand/port constraints apply at action-type boundaries and at the end
  // of the plan (Eq. 4-6): a same-type run executes in parallel, so only
  // the topology at the end of the run must be safe. The original and
  // target topologies are always run boundaries.
  const CountVector origin(static_cast<std::size_t>(num_types), 0);
  if (!evaluator.feasible(origin)) {
    plan.failure = "original topology violates constraints";
    return finish(std::move(plan));
  }
  if (origin == target) {  // nothing to do
    plan.found = true;
    return finish(std::move(plan));
  }
  if (!evaluator.feasible(target)) {
    plan.failure = "target topology violates constraints";
    return finish(std::move(plan));
  }
  const std::int32_t target_total = total_actions(target);

  SearchArena arena(num_types);
  const std::uint32_t root =
      arena.push_root(origin.data(), StateHasher::hash(origin));

  DedupTable table(arena);
  table.upsert(arena.state_hash(root), root, 0.0);

  OpenList open;
  long long seq = 0;
  open.push(QueueEntry{cost.heuristic(origin, target, -1), 0, seq++, root});

  // Total nodes ever pushed; monotone even across compactions, so the
  // max_states guard keeps its pre-arena meaning and also bounds budget-
  // induced re-expansion.
  long long total_pushed = 1;

  // Warm start: replay the surviving suffix of the previous plan as an
  // arena chain so the old plan's corridor starts on the open list. Each
  // seed action must target the next block of its type; a type change
  // closes a run, so the boundary state is checked for feasibility and the
  // replay stops at the first violation. Seeded entries carry true g values
  // and the admissible heuristic, so A* keeps its optimality guarantee —
  // the corridor only saves re-discovery work when it is (near-)right.
  if (options.warm != nullptr && !options.warm->seed_actions.empty()) {
    plan.provenance.warm_start = true;
    std::uint32_t at = root;
    std::int32_t at_last = -1;
    CountVector cur(origin);
    for (const PlannedAction& action : options.warm->seed_actions) {
      const std::int32_t a = action.type;
      if (a < 0 || a >= num_types) break;
      const auto ia = static_cast<std::size_t>(a);
      if (cur[ia] >= target[ia] || action.block_index != cur[ia]) break;
      if (a != at_last && at != root &&
          !evaluator.feasible(arena.counts(at), arena.hash(at))) {
        break;
      }
      const double g = arena.g(at) + cost.transition_cost(at_last, a);
      const std::uint32_t index = arena.push_child(at, a, g);
      ++total_pushed;
      ++cur[ia];
      table.upsert(arena.state_hash(index), index, g);
      double h = 0.0;
      if (options.use_astar_heuristic) {
        h = options.use_paper_literal_heuristic
                ? cost.heuristic_paper_literal(cur.data(), target)
                : cost.heuristic(cur.data(), target, a);
      }
      open.push(QueueEntry{g + h, arena.finished(index), seq++, index});
      ++plan.provenance.warm_seeded_nodes;
      at = index;
      at_last = a;
    }
  }

  // Expansion trace (Figure 6 view); parallel vector of node ids so the
  // final-path flag can be set during reconstruction. Compaction remaps the
  // ids (kNoNode for nodes that were dropped — they cannot be on the final
  // path, which only ever walks live parent chains).
  std::vector<std::uint32_t> trace_nodes;

  // Budget bookkeeping. Compaction scratch lives outside the loop so the
  // enforcement passes reuse it.
  std::vector<std::uint8_t> live;
  std::vector<std::uint32_t> remap;
  std::size_t arena_size_at_compaction = 0;

  const auto tracked_bytes = [&] {
    return arena.allocated_bytes() + table.allocated_bytes() +
           open.allocated_bytes() + evaluator.cache_bytes();
  };

  const auto enforce_budget = [&] {
    const std::size_t keep =
        std::max(kMinBeamWidth, open.size() - open.size() / 2);
    const std::size_t dropped = open.evict_worst(keep);
    if (dropped > 0) {
      plan.provenance.beam_degraded = true;
      plan.provenance.evicted_states += static_cast<long long>(dropped);
    }
    live.assign(arena.size(), 0);
    for (const QueueEntry& e : open.entries()) live[e.node] = 1;
    arena.compact(live, remap);
    for (QueueEntry& e : open.entries()) e.node = remap[e.node];
    for (std::uint32_t& t : trace_nodes) {
      t = t == SearchArena::kNoNode ? t : remap[t];
    }
    table.rebuild();
    // The verdict table counts against the budget too; a state expanded
    // again after this is checked again.
    evaluator.clear_cache();
    ++plan.provenance.compactions;
    arena_size_at_compaction = arena.size();
  };

  CountVector child(static_cast<std::size_t>(num_types));

  while (!open.empty()) {
    if (plan.stats.visited_states % 64 == 0) {
      if (deadline.expired()) {
        plan.failure = "timeout";
        return finish(std::move(plan));
      }
      if (budget_bytes > 0) {
        const std::size_t bytes = tracked_bytes();
        if (static_cast<long long>(bytes) >
            plan.provenance.peak_tracked_bytes) {
          plan.provenance.peak_tracked_bytes = static_cast<long long>(bytes);
        }
        // Only enforce once the arena has grown meaningfully since the last
        // compaction; otherwise a budget just above the live-set size would
        // compact on every check.
        if (bytes > budget_bytes &&
            arena.size() > arena_size_at_compaction + kMinBeamWidth) {
          enforce_budget();
        }
      }
    }

    if (static_cast<long long>(open.size()) > plan.stats.frontier_peak) {
      plan.stats.frontier_peak = static_cast<long long>(open.size());
    }
    const QueueEntry entry = open.pop();
    const std::uint32_t node = entry.node;
    const std::int32_t* node_counts = arena.counts(node);
    const std::int32_t node_last = arena.last(node);
    const double node_g = arena.g(node);

    // Skip stale queue entries (a cheaper path to this state was found
    // after this entry was pushed).
    const DedupTable::View best =
        table.find(arena.state_hash(node), node_counts, node_last);
    if (!best.found || node_g > best.g) continue;

    ++plan.stats.visited_states;

    if (options.record_trace) {
      TraceEntry t;
      t.counts.assign(node_counts, node_counts + num_types);
      t.last_type = node_last;
      t.g = node_g;
      t.h = cost.heuristic(node_counts, target, node_last);
      plan.trace.push_back(std::move(t));
      trace_nodes.push_back(node);
    }

    if (arena.finished(node) == target_total) {
      plan.found = true;
      plan.cost = node_g;
      // Reconstruct by walking the parent chain.
      std::vector<PlannedAction> reversed;
      std::vector<std::uint32_t> on_path;
      for (std::uint32_t at = node; at != SearchArena::kNoNode;
           at = arena.parent(at)) {
        on_path.push_back(at);
        if (arena.parent(at) != SearchArena::kNoNode) {
          const std::int32_t last = arena.last(at);
          reversed.push_back(PlannedAction{
              last, arena.counts(at)[static_cast<std::size_t>(last)] - 1});
        }
      }
      plan.actions.assign(reversed.rbegin(), reversed.rend());
      if (options.record_trace) {
        std::sort(on_path.begin(), on_path.end());
        for (std::size_t i = 0; i < trace_nodes.size(); ++i) {
          plan.trace[i].on_final_path =
              trace_nodes[i] != SearchArena::kNoNode &&
              std::binary_search(on_path.begin(), on_path.end(),
                                 trace_nodes[i]);
        }
      }
      return finish(std::move(plan));
    }

    // Changing action type closes the current run, so the current topology
    // must satisfy the constraints before any cross-type expansion.
    // Evaluated lazily, and only once the successor is known to be
    // non-dominated: most cross-type candidates on a cost plateau are
    // duplicates of already-reached states and never need the check.
    bool boundary_known = false;
    bool boundary_ok = false;

    for (std::int32_t a = 0; a < num_types; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      if (node_counts[ia] >= target[ia]) continue;
      ++plan.stats.generated_states;

      std::copy(node_counts, node_counts + num_types, child.begin());
      ++child[ia];
      const double g = node_g + cost.transition_cost(node_last, a);
      const std::uint64_t child_hash =
          StateHasher::update(arena.hash(node), a, node_counts[ia],
                              node_counts[ia] + 1);
      const std::uint64_t child_state_hash =
          StateHasher::with_last(child_hash, a);

      const DedupTable::View found =
          table.find(child_state_hash, child.data(), a);
      if (found.found && found.g <= g) continue;

      if (a != node_last) {
        if (!boundary_known) {
          boundary_ok = evaluator.feasible(node_counts, arena.hash(node));
          boundary_known = true;
        }
        if (!boundary_ok) continue;
      }

      const std::uint32_t index = arena.push_child(node, a, g);
      ++total_pushed;
      table.upsert(child_state_hash, index, g);

      double h = 0.0;
      if (options.use_astar_heuristic) {
        h = options.use_paper_literal_heuristic
                ? cost.heuristic_paper_literal(child.data(), target)
                : cost.heuristic(child.data(), target, a);
      }
      open.push(QueueEntry{g + h, arena.finished(index), seq++, index});
    }

    if (total_pushed > options.max_states) {
      plan.failure = "state space too large";
      return finish(std::move(plan));
    }
  }

  plan.failure = "no feasible action sequence exists";
  return finish(std::move(plan));
}

}  // namespace klotski::core
