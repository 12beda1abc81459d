#include "klotski/pipeline/plan_export.h"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "klotski/util/string_util.h"

namespace klotski::pipeline {

using json::Array;
using json::Object;
using json::Value;

json::Value plan_to_json(const migration::MigrationTask& task,
                         const core::Plan& plan) {
  Object root;
  root["task"] = task.name;
  root["planner"] = plan.planner;
  root["found"] = plan.found;
  if (!plan.found) {
    root["failure"] = plan.failure;
    return Value(std::move(root));
  }
  root["cost"] = plan.cost;

  Object stats;
  stats["visited_states"] = static_cast<std::int64_t>(
      plan.stats.visited_states);
  stats["generated_states"] = static_cast<std::int64_t>(
      plan.stats.generated_states);
  stats["sat_checks"] = static_cast<std::int64_t>(plan.stats.sat_checks);
  stats["cache_hits"] = static_cast<std::int64_t>(plan.stats.cache_hits);
  stats["evaluations"] = static_cast<std::int64_t>(plan.stats.evaluations);
  stats["delta_applies"] = static_cast<std::int64_t>(plan.stats.delta_applies);
  stats["full_replays"] = static_cast<std::int64_t>(plan.stats.full_replays);
  stats["frontier_peak"] = static_cast<std::int64_t>(plan.stats.frontier_peak);
  stats["wall_seconds"] = plan.stats.wall_seconds;
  root["stats"] = Value(std::move(stats));

  // Search provenance is emitted only for budgeted or warm runs, keeping
  // the plain cold document (and the golden corpus) unchanged.
  // beam_degraded is the audit-relevant bit for budgeted runs: the plan is
  // safe but possibly suboptimal. warm_repair/warm_start record how much of
  // the previous epoch the planner reused (DESIGN.md §11).
  const bool warm =
      plan.provenance.warm_start || plan.provenance.warm_repair;
  if (plan.provenance.mem_budget_mb > 0.0 || warm) {
    Object prov;
    if (plan.provenance.mem_budget_mb > 0.0) {
      prov["mem_budget_mb"] = plan.provenance.mem_budget_mb;
      prov["beam_degraded"] = plan.provenance.beam_degraded;
      prov["evicted_states"] =
          static_cast<std::int64_t>(plan.provenance.evicted_states);
      prov["compactions"] =
          static_cast<std::int64_t>(plan.provenance.compactions);
      prov["peak_tracked_bytes"] =
          static_cast<std::int64_t>(plan.provenance.peak_tracked_bytes);
    }
    if (warm) {
      prov["warm_start"] = plan.provenance.warm_start;
      prov["warm_repair"] = plan.provenance.warm_repair;
      prov["warm_seeded_nodes"] =
          static_cast<std::int64_t>(plan.provenance.warm_seeded_nodes);
    }
    root["provenance"] = Value(std::move(prov));
  }

  Array phases;
  for (const core::Phase& phase : plan.phases()) {
    Object o;
    o["action_type"] =
        task.action_types[static_cast<std::size_t>(phase.type)].label;
    Array blocks;
    for (const std::int32_t b : phase.block_indices) {
      blocks.push_back(task.blocks[static_cast<std::size_t>(phase.type)]
                                  [static_cast<std::size_t>(b)]
                                      .label);
    }
    o["blocks"] = Value(std::move(blocks));
    phases.push_back(Value(std::move(o)));
  }
  root["phases"] = Value(std::move(phases));
  return Value(std::move(root));
}

std::string plan_to_text(const migration::MigrationTask& task,
                         const core::Plan& plan) {
  std::ostringstream os;
  os << "Plan for " << task.name << " (" << plan.planner << ")\n";
  if (!plan.found) {
    os << "  NOT FOUND: " << plan.failure << "\n";
    return os.str();
  }
  os << "  cost=" << util::format_double(plan.cost) << "  actions="
     << plan.actions.size() << "  visited=" << plan.stats.visited_states
     << "  sat_checks=" << plan.stats.sat_checks
     << "  cache_hits=" << plan.stats.cache_hits << "  time="
     << util::format_double(plan.stats.wall_seconds, 3) << "s\n";
  const std::vector<core::Phase> phases = plan.phases();
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const core::Phase& phase = phases[p];
    os << "  phase " << p + 1 << ": "
       << task.action_types[static_cast<std::size_t>(phase.type)].label
       << " x" << phase.block_indices.size() << " [";
    for (std::size_t i = 0; i < phase.block_indices.size(); ++i) {
      if (i != 0) os << ", ";
      if (i == 4 && phase.block_indices.size() > 5) {
        os << "... +" << phase.block_indices.size() - i << " more";
        break;
      }
      os << task.blocks[static_cast<std::size_t>(phase.type)]
                       [static_cast<std::size_t>(phase.block_indices[i])]
                           .label;
    }
    os << "]\n";
  }
  return os.str();
}


core::Plan plan_from_json(const migration::MigrationTask& task,
                          const json::Value& value) {
  core::Plan plan;
  plan.planner = value.get_string("planner", "unknown");
  plan.found = value.get_bool("found", false);
  if (!plan.found) {
    plan.failure = value.get_string("failure", "");
    return plan;
  }
  plan.cost = value.at("cost").as_double();
  if (value.as_object().contains("provenance")) {
    const json::Value& prov = value.at("provenance");
    plan.provenance.mem_budget_mb = prov.get_double("mem_budget_mb", 0.0);
    plan.provenance.beam_degraded = prov.get_bool("beam_degraded", false);
    plan.provenance.evicted_states =
        static_cast<long long>(prov.get_double("evicted_states", 0.0));
    plan.provenance.compactions =
        static_cast<long long>(prov.get_double("compactions", 0.0));
    plan.provenance.peak_tracked_bytes =
        static_cast<long long>(prov.get_double("peak_tracked_bytes", 0.0));
    plan.provenance.warm_start = prov.get_bool("warm_start", false);
    plan.provenance.warm_repair = prov.get_bool("warm_repair", false);
    plan.provenance.warm_seeded_nodes =
        static_cast<long long>(prov.get_double("warm_seeded_nodes", 0.0));
  }

  // Resolve labels: action-type label -> id, block label -> (type, index).
  std::unordered_map<std::string, std::int32_t> type_of;
  for (const migration::ActionType& type : task.action_types) {
    type_of[type.label] = type.id;
  }
  std::unordered_map<std::string, std::pair<std::int32_t, std::int32_t>>
      block_of;
  for (std::size_t t = 0; t < task.blocks.size(); ++t) {
    for (std::size_t b = 0; b < task.blocks[t].size(); ++b) {
      block_of[task.blocks[t][b].label] = {static_cast<std::int32_t>(t),
                                           static_cast<std::int32_t>(b)};
    }
  }

  for (const json::Value& phase : value.at("phases").as_array()) {
    const std::string type_label = phase.at("action_type").as_string();
    const auto type_it = type_of.find(type_label);
    if (type_it == type_of.end()) {
      throw std::invalid_argument("plan_from_json: unknown action type '" +
                                  type_label + "'");
    }
    for (const json::Value& block : phase.at("blocks").as_array()) {
      const auto block_it = block_of.find(block.as_string());
      if (block_it == block_of.end()) {
        throw std::invalid_argument("plan_from_json: unknown block '" +
                                    block.as_string() + "'");
      }
      if (block_it->second.first != type_it->second) {
        throw std::invalid_argument("plan_from_json: block '" +
                                    block.as_string() +
                                    "' filed under the wrong action type");
      }
      plan.actions.push_back(core::PlannedAction{block_it->second.first,
                                                 block_it->second.second});
    }
  }
  return plan;
}
}  // namespace klotski::pipeline
