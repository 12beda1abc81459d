#include "klotski/migration/task_builder.h"

#include <algorithm>
#include <map>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace klotski::migration {

using topo::CircuitId;
using topo::ElementState;
using topo::Generation;
using topo::Location;
using topo::Region;
using topo::SwitchId;
using topo::SwitchRole;
using topo::Topology;

void finalize_migration_case(MigrationCase& mig,
                             const topo::RegionParams& rp) {
  MigrationTask& task = mig.task;
  task.topo = &mig.region->topo;
  task.original_state = topo::TopologyState::capture(*task.topo);

  // Target = original + all blocks applied.
  for (const auto& type_blocks : task.blocks) {
    for (const OperationBlock& block : type_blocks) block.apply(*task.topo);
  }
  task.target_state = topo::TopologyState::capture(*task.topo);
  task.original_state.restore(*task.topo);

  tighten_port_budgets(task, rp);

  const std::string error = task.validate();
  if (!error.empty()) {
    throw std::logic_error("task builder produced invalid task: " + error);
  }
}

void tighten_port_budgets(MigrationTask& task,
                          const topo::RegionParams& rp) {
  Topology& topo = *task.topo;

  task.original_state.restore(topo);
  std::vector<int> original_ports(topo.num_switches());
  for (std::size_t i = 0; i < topo.num_switches(); ++i) {
    original_ports[i] = topo.occupied_ports(static_cast<SwitchId>(i));
  }
  task.target_state.restore(topo);
  std::vector<int> target_ports(topo.num_switches());
  for (std::size_t i = 0; i < topo.num_switches(); ++i) {
    target_ports[i] = topo.occupied_ports(static_cast<SwitchId>(i));
  }
  task.original_state.restore(topo);

  for (std::size_t i = 0; i < topo.num_switches(); ++i) {
    topo::Switch& s = topo.sw(static_cast<SwitchId>(i));
    int slack = rp.port_slack_agg;
    switch (s.role) {
      case SwitchRole::kRsw:
      case SwitchRole::kFsw:
        slack = rp.port_slack_fabric;
        break;
      case SwitchRole::kSsw:
        slack = rp.port_slack_ssw;
        break;
      case SwitchRole::kEb:
        slack = rp.port_slack_eb;
        break;
      case SwitchRole::kEbb:
        slack = rp.port_slack_ebb;
        break;
      default:
        break;
    }
    s.max_ports = std::max(original_ports[i], target_ports[i]) + slack;
    if (s.max_ports <= 0) s.max_ports = 1;
  }
}

// ---------------------------------------------------------------------------
// HGRID V1 -> V2

MigrationCase build_hgrid_migration(const topo::RegionParams& region_params,
                                    const HgridMigrationParams& params) {
  MigrationCase mig;
  mig.region = std::make_unique<Region>(topo::build_region(region_params));
  Region& region = *mig.region;
  Topology& topo = region.topo;
  MigrationTask& task = mig.task;
  task.name = "hgrid-v1-to-v2";

  // Demands are calibrated against the original (pre-staging) topology.
  task.demands = traffic::generate_demands(region, params.demand);

  const int v1_grids = region_params.grids;
  const int v2_grids =
      params.v2_grids > 0 ? params.v2_grids : (v1_grids * 3 + 1) / 2;
  const int v2_fadus = params.v2_fadus_per_grid_per_dc > 0
                           ? params.v2_fadus_per_grid_per_dc
                           : region_params.fadus_per_grid_per_dc;
  const int v2_fauus = params.v2_fauus_per_grid > 0
                           ? params.v2_fauus_per_grid
                           : region_params.fauus_per_grid;
  // The staged grids index Location::grid (int16) after the V1 grids, and
  // the staged hardware is bounded like a region.
  constexpr int kMaxGrids = std::numeric_limits<std::int16_t>::max();
  if (v2_grids > kMaxGrids - v1_grids) {
    throw std::invalid_argument(
        "build_hgrid_migration: v2_grids must be <= " +
        std::to_string(kMaxGrids - v1_grids) + " (grids + v2_grids <= " +
        std::to_string(kMaxGrids) + ")");
  }
  topo::RegionTotal staged_switches("build_hgrid_migration", "switches");
  staged_switches.add("v2_fadus_per_grid_per_dc",
                      {v2_grids, region_params.dcs, v2_fadus});
  staged_switches.add("v2_fauus_per_grid", {v2_grids, v2_fauus});
  topo::RegionTotal staged_circuits("build_hgrid_migration", "circuits");
  for (int dc = 0; dc < region_params.dcs; ++dc) {
    staged_circuits.add("v2_fadus_per_grid_per_dc",
                        {v2_grids, v2_fadus, region.fabric(dc).ssws_per_plane});
  }
  staged_circuits.add("v2_fauus_per_grid",
                      {v2_grids, v2_fauus, region_params.dcs, v2_fadus});
  staged_circuits.add("v2_fauus_per_grid",
                      {v2_grids, v2_fauus,
                       std::int64_t{region_params.ebs} + region_params.drs});

  // Stage the V2 grids as absent hardware wired to the same SSW planes and
  // the same EB/DR boundary.
  constexpr std::int32_t kUnsizedPorts = 1 << 20;
  std::vector<std::vector<std::vector<SwitchId>>> v2_fadus_by_grid(
      static_cast<std::size_t>(v2_grids));
  std::vector<std::vector<SwitchId>> v2_fauus_by_grid(
      static_cast<std::size_t>(v2_grids));

  for (int g = 0; g < v2_grids; ++g) {
    const std::string grid_prefix = "g" + std::to_string(g) + "v2/";
    const auto grid_loc = static_cast<std::int16_t>(v1_grids + g);
    v2_fadus_by_grid[g].resize(region_params.dcs);

    for (int dc = 0; dc < region_params.dcs; ++dc) {
      const topo::FabricParams& fab = region.fabric(dc);
      for (int k = 0; k < v2_fadus; ++k) {
        Location loc;
        loc.dc = static_cast<std::int16_t>(dc);
        loc.grid = grid_loc;
        const SwitchId fadu = topo.add_switch(
            SwitchRole::kFadu, Generation::kV2, loc, kUnsizedPorts,
            ElementState::kAbsent,
            grid_prefix + "d" + std::to_string(dc) + "/fadu" +
                std::to_string(k));
        v2_fadus_by_grid[g][dc].push_back(fadu);

        const int plane = (k + g * v2_fadus) % fab.planes;
        for (const SwitchId ssw : region.ssws[dc][plane]) {
          topo.add_circuit(ssw, fadu, region_params.cap_ssw_fadu,
                           ElementState::kAbsent);
        }
      }
    }
    for (int u = 0; u < v2_fauus; ++u) {
      Location loc;
      loc.grid = grid_loc;
      const SwitchId fauu = topo.add_switch(
          SwitchRole::kFauu, Generation::kV2, loc, kUnsizedPorts,
          ElementState::kAbsent, grid_prefix + "fauu" + std::to_string(u));
      v2_fauus_by_grid[g].push_back(fauu);

      for (int dc = 0; dc < region_params.dcs; ++dc) {
        for (const SwitchId fadu : v2_fadus_by_grid[g][dc]) {
          topo.add_circuit(fadu, fauu, region_params.cap_fadu_fauu,
                           ElementState::kAbsent);
        }
      }
      for (const SwitchId eb : region.ebs) {
        topo.add_circuit(fauu, eb, region_params.cap_fauu_eb,
                         ElementState::kAbsent);
      }
      for (const SwitchId dr : region.drs) {
        topo.add_circuit(fauu, dr, region_params.cap_fauu_dr,
                         ElementState::kAbsent);
      }
    }
  }

  // Action types.
  task.action_types = {
      ActionType{0, "drain-hgrid-v1", OpKind::kDrain, SwitchRole::kFadu,
                 Generation::kV1},
      ActionType{1, "undrain-hgrid-v2", OpKind::kUndrain, SwitchRole::kFadu,
                 Generation::kV2},
  };
  task.blocks.resize(2);

  // Operation blocks: grid-major; inside a grid, the per-DC FADU chunks then
  // the FAUU chunks (the §4.1 example merges FADU and FAUU symmetry blocks;
  // chunking reproduces the configured block granularity). A block_scale
  // below 1 (Figure 11's 0.25x / 0.5x settings) merges whole neighboring
  // grids into one operation-block neighborhood.
  const int grid_merge =
      (params.policy.use_operation_blocks && params.policy.block_scale < 1.0)
          ? std::max(1, static_cast<int>(
                            std::llround(1.0 / params.policy.block_scale)))
          : 1;

  int next_id = 0;
  auto emit_group_blocks =
      [&](ActionTypeId type, const std::string& tag, int group,
          const std::vector<std::vector<SwitchId>>& fadus_by_dc,
          const std::vector<SwitchId>& fauus, ElementState state) {
        for (int dc = 0; dc < static_cast<int>(fadus_by_dc.size()); ++dc) {
          const int chunks =
              policy_chunks(params.policy, params.fadu_chunks_per_grid_dc,
                            static_cast<int>(fadus_by_dc[dc].size()));
          int chunk_index = 0;
          for (const auto& chunk : chunk_switches(fadus_by_dc[dc], chunks)) {
            task.blocks[type].push_back(make_switch_block(
                topo, next_id++, type,
                tag + "/g" + std::to_string(group) + "/d" +
                    std::to_string(dc) + "/fadu-chunk" +
                    std::to_string(chunk_index++),
                chunk, state));
          }
        }
        const int chunks =
            policy_chunks(params.policy, params.fauu_chunks_per_grid,
                          static_cast<int>(fauus.size()));
        int chunk_index = 0;
        for (const auto& chunk : chunk_switches(fauus, chunks)) {
          task.blocks[type].push_back(make_switch_block(
              topo, next_id++, type,
              tag + "/g" + std::to_string(group) + "/fauu-chunk" +
                  std::to_string(chunk_index++),
              chunk, state));
        }
      };

  auto emit_all = [&](ActionTypeId type, const std::string& tag,
                      int grid_count,
                      const std::vector<std::vector<std::vector<SwitchId>>>&
                          fadus_by_grid,
                      const std::vector<std::vector<SwitchId>>& fauus_by_grid,
                      ElementState state) {
    for (int g0 = 0; g0 < grid_count; g0 += grid_merge) {
      std::vector<std::vector<SwitchId>> fadus(
          static_cast<std::size_t>(region_params.dcs));
      std::vector<SwitchId> fauus;
      for (int g = g0; g < std::min(grid_count, g0 + grid_merge); ++g) {
        for (int dc = 0; dc < region_params.dcs; ++dc) {
          fadus[static_cast<std::size_t>(dc)].insert(
              fadus[static_cast<std::size_t>(dc)].end(),
              fadus_by_grid[g][dc].begin(), fadus_by_grid[g][dc].end());
        }
        fauus.insert(fauus.end(), fauus_by_grid[g].begin(),
                     fauus_by_grid[g].end());
      }
      emit_group_blocks(type, tag, g0 / grid_merge, fadus, fauus, state);
    }
  };

  emit_all(0, "drain-v1", v1_grids, region.fadus, region.fauus,
           ElementState::kAbsent);
  emit_all(1, "undrain-v2", v2_grids, v2_fadus_by_grid, v2_fauus_by_grid,
           ElementState::kActive);

  // At symmetry-block granularity ("w/o OB") the planner conceptually picks
  // any individual switch next; the compact representation pins a canonical
  // per-type order, so make that order plane-balanced — grid-major sweeps
  // would concentrate consecutive drains on one spine plane and wedge the
  // search into states no completion can leave.
  if (!params.policy.use_operation_blocks) {
    auto bucket_of = [&](const OperationBlock& block) -> int {
      for (const ElementOp& op : block.ops) {
        if (op.kind != ElementOp::Kind::kSwitch) continue;
        for (const CircuitId cid : topo.incident(op.id)) {
          const topo::Switch& other =
              topo.sw(topo.circuit(cid).other(op.id));
          if (other.role == SwitchRole::kSsw) {
            return other.loc.dc * 64 + other.loc.plane;
          }
        }
      }
      return -1;  // FAUUs and other planeless switches
    };
    for (auto& type_blocks : task.blocks) {
      std::map<int, std::vector<OperationBlock>> buckets;
      for (OperationBlock& block : type_blocks) {
        buckets[bucket_of(block)].push_back(std::move(block));
      }
      type_blocks.clear();
      bool emitted = true;
      std::size_t round = 0;
      while (emitted) {
        emitted = false;
        for (auto& [bucket, blocks] : buckets) {
          if (round < blocks.size()) {
            type_blocks.push_back(blocks[round]);
            emitted = true;
          }
        }
        ++round;
      }
    }
  }

  finalize_migration_case(mig, region_params);
  return mig;
}

// ---------------------------------------------------------------------------
// SSW Forklift

MigrationCase build_ssw_forklift(const topo::RegionParams& region_params,
                                 const SswForkliftParams& params) {
  MigrationCase mig;
  mig.region = std::make_unique<Region>(topo::build_region(region_params));
  Region& region = *mig.region;
  Topology& topo = region.topo;
  MigrationTask& task = mig.task;
  task.name = "ssw-forklift";

  task.demands = traffic::generate_demands(region, params.demand);

  std::vector<int> dcs;
  if (params.dc < 0) {
    for (int dc = 0; dc < region_params.dcs; ++dc) dcs.push_back(dc);
  } else {
    if (params.dc >= region_params.dcs) {
      throw std::invalid_argument("build_ssw_forklift: dc out of range");
    }
    dcs.push_back(params.dc);
  }

  // Stage one V2 SSW per V1 SSW, mirroring its wiring at higher capacity.
  constexpr std::int32_t kUnsizedPorts = 1 << 20;
  // new_ssws[dc][plane] aligned with region.ssws.
  std::vector<std::vector<std::vector<SwitchId>>> new_ssws(
      static_cast<std::size_t>(region_params.dcs));

  for (const int dc : dcs) {
    const topo::FabricParams& fab = region.fabric(dc);
    new_ssws[dc].resize(fab.planes);
    for (int plane = 0; plane < fab.planes; ++plane) {
      for (std::size_t i = 0; i < region.ssws[dc][plane].size(); ++i) {
        const SwitchId old_ssw = region.ssws[dc][plane][i];
        Location loc = topo.sw(old_ssw).loc;
        const SwitchId v2 = topo.add_switch(
            SwitchRole::kSsw, Generation::kV2, loc, kUnsizedPorts,
            ElementState::kAbsent,
            topo.sw(old_ssw).name + "v2");
        new_ssws[dc][plane].push_back(v2);

        // Mirror the old SSW's circuits. Snapshot first: adding circuits
        // appends to the incident list we are iterating.
        const std::vector<CircuitId> old_circuits = topo.incident(old_ssw);
        for (const CircuitId cid : old_circuits) {
          const topo::Circuit& c = topo.circuit(cid);
          if (c.state == ElementState::kAbsent) continue;  // staged elsewhere
          topo.add_circuit(v2, c.other(old_ssw),
                           c.capacity_tbps * params.v2_capacity_factor,
                           ElementState::kAbsent);
        }
      }
    }
  }

  task.action_types = {
      ActionType{0, "drain-ssw-v1", OpKind::kDrain, SwitchRole::kSsw,
                 Generation::kV1},
      ActionType{1, "undrain-ssw-v2", OpKind::kUndrain, SwitchRole::kSsw,
                 Generation::kV2},
  };
  task.blocks.resize(2);

  // Plane-major blocks; the policy splits each plane into blocks_per_plane
  // chunks (§5: "We split SSWs on a plane into several operation blocks").
  int next_id = 0;
  for (const int dc : dcs) {
    const topo::FabricParams& fab = region.fabric(dc);
    for (int plane = 0; plane < fab.planes; ++plane) {
      const int chunks = policy_chunks(
          params.policy, params.blocks_per_plane,
          static_cast<int>(region.ssws[dc][plane].size()));
      int chunk_index = 0;
      for (const auto& chunk :
           chunk_switches(region.ssws[dc][plane], chunks)) {
        task.blocks[0].push_back(make_switch_block(
            topo, next_id++, 0,
            "drain-v1/d" + std::to_string(dc) + "/pl" +
                std::to_string(plane) + "/ssw-chunk" +
                std::to_string(chunk_index++),
            chunk, ElementState::kAbsent));
      }
      chunk_index = 0;
      for (const auto& chunk : chunk_switches(new_ssws[dc][plane], chunks)) {
        task.blocks[1].push_back(make_switch_block(
            topo, next_id++, 1,
            "undrain-v2/d" + std::to_string(dc) + "/pl" +
                std::to_string(plane) + "/ssw-chunk" +
                std::to_string(chunk_index++),
            chunk, ElementState::kActive));
      }
    }
  }

  finalize_migration_case(mig, region_params);
  return mig;
}

// ---------------------------------------------------------------------------
// DMAG

MigrationCase build_dmag_migration(const topo::RegionParams& region_params,
                                   const DmagMigrationParams& params) {
  if (params.ma_per_eb < 1) {
    throw std::invalid_argument("build_dmag_migration: ma_per_eb must be >=1");
  }
  MigrationCase mig;
  mig.region = std::make_unique<Region>(topo::build_region(region_params));
  Region& region = *mig.region;
  Topology& topo = region.topo;
  MigrationTask& task = mig.task;
  task.name = "dmag";

  task.demands = traffic::generate_demands(region, params.demand);

  const int grids = region_params.grids;
  const int ma_per_eb = std::min(params.ma_per_eb, grids);
  const double cap_fauu_ma =
      params.cap_fauu_ma > 0.0
          ? params.cap_fauu_ma
          : region_params.cap_fauu_eb + region_params.cap_fauu_dr;
  const double cap_ma_eb =
      params.cap_ma_eb > 0.0 ? params.cap_ma_eb : region_params.cap_eb_ebb;

  // Partition grids across the per-EB MA index: partition(g) = g % ma_per_eb.
  auto partition_of = [ma_per_eb](int grid) { return grid % ma_per_eb; };

  // Stage MA switches: MA (eb e, partition j) connects the FAUUs of the
  // grids in partition j to EB e. Creation (and hence canonical undrain)
  // order is partition-major so the MAs a migrating grid needs come up
  // before the next grid's — matching the grid-major drain order below.
  constexpr std::int32_t kUnsizedPorts = 1 << 20;
  std::vector<SwitchId> mas;
  for (int j = 0; j < ma_per_eb; ++j) {
    for (int e = 0; e < region_params.ebs; ++e) {
      Location loc;
      loc.grid = static_cast<std::int16_t>(j);
      const SwitchId ma = topo.add_switch(
          SwitchRole::kMa, Generation::kV2, loc, kUnsizedPorts,
          ElementState::kAbsent,
          "ma" + std::to_string(e) + "_" + std::to_string(j));
      mas.push_back(ma);

      int fauu_links = 0;
      for (int g = 0; g < grids; ++g) {
        if (partition_of(g) != j) continue;
        for (const SwitchId fauu : region.fauus[g]) {
          topo.add_circuit(fauu, ma, cap_fauu_ma, ElementState::kAbsent);
          ++fauu_links;
        }
      }
      // Size the MA->EB trunk so the MA is never the bottleneck.
      const int eb_links = std::max(
          1,
          static_cast<int>(std::ceil(fauu_links * cap_fauu_ma / cap_ma_eb)) /
              2);
      for (int l = 0; l < eb_links; ++l) {
        topo.add_circuit(ma, region.ebs[e], cap_ma_eb, ElementState::kAbsent);
      }
    }
  }

  task.action_types = {
      ActionType{0, "drain-fauu-eb", OpKind::kDrain, SwitchRole::kEb,
                 Generation::kV1},
      ActionType{1, "undrain-ma", OpKind::kUndrain, SwitchRole::kMa,
                 Generation::kV2},
      ActionType{2, "drain-fauu-dr", OpKind::kDrain, SwitchRole::kDr,
                 Generation::kV1},
  };
  task.blocks.resize(3);

  // Type 0: FAUU-EB circuits grouped by (EB, grid) — grouping by EB releases
  // the most ports per action (§5). The canonical execution order is
  // grid-major (finish one grid's groups across all EBs before the next):
  // shortest-path ECMP only shifts a FAUU onto the MA layer once its last
  // direct circuit is gone, so a grid must be able to migrate *completely*
  // before the legacy DR trunks absorb too much displaced traffic —
  // breadth-first EB-major draining wedges at scale (§7.1). Without
  // operation blocks the groups degrade to per-(EB, grid, FAUU).
  int next_id = 0;
  for (int g = 0; g < grids; ++g) {
    for (int e = 0; e < region_params.ebs; ++e) {
      std::vector<std::vector<CircuitId>> groups(1);
      for (const SwitchId fauu : region.fauus[g]) {
        for (const CircuitId cid : topo.incident(fauu)) {
          const topo::Circuit& c = topo.circuit(cid);
          if (c.state != ElementState::kActive) continue;
          if (c.other(fauu) != region.ebs[e]) continue;
          if (!params.policy.use_operation_blocks) {
            groups.push_back({cid});
          } else {
            groups[0].push_back(cid);
          }
        }
      }
      int chunk_index = 0;
      for (const auto& group : groups) {
        if (group.empty()) continue;
        task.blocks[0].push_back(make_circuit_block(
            next_id++, 0,
            "drain-fauu-eb/e" + std::to_string(e) + "/g" + std::to_string(g) +
                "/c" + std::to_string(chunk_index++),
            group, ElementState::kAbsent));
      }
    }
  }

  // Type 1: one block per MA switch.
  for (const SwitchId ma : mas) {
    task.blocks[1].push_back(
        make_switch_block(topo, next_id++, 1, "undrain-" + topo.sw(ma).name,
                          {ma}, ElementState::kActive));
  }

  // Type 2: the legacy FAUU-DR shortcut circuits, grouped per grid (one
  // retirement action per grid once its FAUUs reach the EBs through MAs).
  for (int g = 0; g < grids; ++g) {
    std::vector<CircuitId> group;
    for (const SwitchId fauu : region.fauus[g]) {
      for (const CircuitId cid : topo.incident(fauu)) {
        const topo::Circuit& c = topo.circuit(cid);
        if (c.state != ElementState::kActive) continue;
        if (topo.sw(c.other(fauu)).role != SwitchRole::kDr) continue;
        group.push_back(cid);
      }
    }
    if (group.empty()) continue;
    task.blocks[2].push_back(make_circuit_block(
        next_id++, 2, "drain-fauu-dr/g" + std::to_string(g), group,
        ElementState::kAbsent));
  }

  finalize_migration_case(mig, region_params);
  return mig;
}

}  // namespace klotski::migration
