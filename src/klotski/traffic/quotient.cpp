#include "klotski/traffic/quotient.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "klotski/util/hash.h"

namespace klotski::traffic {

using topo::CircuitId;
using topo::SwitchId;

namespace {

/// Bundle key: circuit kind and the ordered endpoint class pair.
struct BundleKey {
  std::uint64_t kind;
  std::int32_t x;
  std::int32_t y;

  friend bool operator==(const BundleKey&, const BundleKey&) = default;
};

struct BundleKeyHash {
  std::size_t operator()(const BundleKey& k) const {
    return static_cast<std::size_t>(util::hash_combine(
        util::hash_combine(k.kind, static_cast<std::uint32_t>(k.x)),
        static_cast<std::uint32_t>(k.y)));
  }
};

}  // namespace

std::optional<Quotient> Quotient::build(
    const topo::Topology& topo, const std::vector<std::int32_t>& class_of,
    const std::vector<std::uint64_t>& switch_kind,
    const std::vector<std::uint64_t>& circuit_kind) {
  const std::size_t n = topo.num_switches();
  const std::size_t m = topo.num_circuits();
  if (class_of.size() != n || switch_kind.size() != n ||
      circuit_kind.size() != m) {
    return std::nullopt;
  }

  Quotient q;
  q.topo_ = &topo;
  q.class_of_ = class_of;
  for (std::size_t s = 0; s < n; ++s) {
    const std::int32_t cls = class_of[s];
    if (cls < 0 || static_cast<std::size_t>(cls) > q.rep_.size()) {
      return std::nullopt;  // not numbered by first occurrence
    }
    if (static_cast<std::size_t>(cls) == q.rep_.size()) {
      q.rep_.push_back(static_cast<SwitchId>(s));
      q.size_.push_back(0);
    }
    ++q.size_[static_cast<std::size_t>(cls)];
    if (switch_kind[s] !=
        switch_kind[static_cast<std::size_t>(q.rep_[static_cast<std::size_t>(
            cls)])]) {
      return std::nullopt;
    }
  }

  // Bundles in first-occurrence order, so a bundle's rep is its smallest
  // circuit id. A kind fixes the capacity; checking it keeps the split
  // weights exact whatever the caller's kinds say.
  std::vector<std::uint32_t>& bundle_of = q.bundle_of_;
  bundle_of.resize(m);
  std::vector<std::uint32_t> bundle_circuits;
  std::unordered_map<BundleKey, std::uint32_t, BundleKeyHash> index;
  index.reserve(m);
  for (const topo::Circuit& c : topo.circuits()) {
    const std::int32_t ca = class_of[static_cast<std::size_t>(c.a)];
    const std::int32_t cb = class_of[static_cast<std::size_t>(c.b)];
    const BundleKey key{circuit_kind[static_cast<std::size_t>(c.id)],
                        std::min(ca, cb), std::max(ca, cb)};
    const auto [it, inserted] =
        index.try_emplace(key, static_cast<std::uint32_t>(q.bundles_.size()));
    if (inserted) {
      q.bundles_.push_back(Bundle{c.id, key.x, key.y, c.capacity_tbps});
      bundle_circuits.push_back(0);
    } else if (q.bundles_[it->second].capacity_tbps != c.capacity_tbps) {
      return std::nullopt;
    }
    bundle_of[static_cast<std::size_t>(c.id)] = it->second;
    ++bundle_circuits[it->second];
  }

  // Equitability: every member terminates its representative's multiset of
  // bundles (a bundle fixes the neighbor class, so this is the multiset of
  // (bundle, neighbor class)). The representative's sorted list becomes the
  // class's arcs, one per distinct bundle with its multiplicity.
  const auto sorted_bundles = [&](SwitchId s, std::vector<std::uint32_t>& out) {
    out.clear();
    for (const CircuitId c : topo.incident(s)) {
      out.push_back(bundle_of[static_cast<std::size_t>(c)]);
    }
    std::sort(out.begin(), out.end());
  };
  const std::size_t k = q.rep_.size();
  std::vector<std::uint32_t> list_offsets(k + 1, 0);
  std::vector<std::uint32_t> rep_lists;
  std::vector<std::uint32_t> scratch;
  for (std::size_t cls = 0; cls < k; ++cls) {
    sorted_bundles(q.rep_[cls], scratch);
    rep_lists.insert(rep_lists.end(), scratch.begin(), scratch.end());
    list_offsets[cls + 1] = static_cast<std::uint32_t>(rep_lists.size());
  }
  for (std::size_t s = 0; s < n; ++s) {
    const auto cls = static_cast<std::size_t>(class_of[s]);
    if (q.rep_[cls] == static_cast<SwitchId>(s)) continue;
    sorted_bundles(static_cast<SwitchId>(s), scratch);
    if (!std::equal(scratch.begin(), scratch.end(),
                    rep_lists.begin() + list_offsets[cls],
                    rep_lists.begin() + list_offsets[cls + 1])) {
      return std::nullopt;
    }
  }

  q.offsets_.assign(k + 1, 0);
  for (std::size_t cls = 0; cls < k; ++cls) {
    for (std::uint32_t i = list_offsets[cls]; i < list_offsets[cls + 1];) {
      const std::uint32_t b = rep_lists[i];
      std::uint32_t here = 0;
      for (; i < list_offsets[cls + 1] && rep_lists[i] == b; ++i) ++here;
      const Bundle& bundle = q.bundles_[b];
      const bool forward = bundle.x == static_cast<std::int32_t>(cls);
      const std::int32_t neighbor = forward ? bundle.y : bundle.x;
      // Every bundle circuit has one endpoint in each class of an
      // inter-class bundle, so a neighbor member terminates circuits / size
      // of them — an integer, since the partition passed the check above.
      const std::uint32_t there =
          neighbor == static_cast<std::int32_t>(cls)
              ? here
              : bundle_circuits[b] /
                    q.size_[static_cast<std::size_t>(neighbor)];
      q.arcs_.push_back(Arc{neighbor, 2 * b + (forward ? 0u : 1u), b, here,
                            there,
                            capacity_weight(bundle.capacity_tbps,
                                            static_cast<std::uint32_t>(
                                                bundle.rep))});
    }
    q.offsets_[cls + 1] = static_cast<std::uint32_t>(q.arcs_.size());
  }
  return q;
}

QuotientRouter::QuotientRouter(const Quotient& quotient) : q_(quotient) {}

bool QuotientRouter::uniform_classes(const std::vector<SwitchId>& members,
                                     std::vector<SourceClass>& out) {
  const std::size_t n = q_.topology().num_switches();
  const std::size_t k = q_.num_classes();
  if (switch_count_.size() != n) switch_count_.assign(n, 0);
  if (class_count_.size() != k) {
    class_count_.assign(k, 0);
    class_members_.assign(k, 0);
  }
  out.clear();
  bool uniform = true;
  for (const SwitchId s : members) {
    if (s < 0 || static_cast<std::size_t>(s) >= n) return false;
  }
  for (const SwitchId s : members) ++switch_count_[static_cast<std::size_t>(s)];
  for (const SwitchId s : members) {
    std::uint32_t& count = switch_count_[static_cast<std::size_t>(s)];
    if (count == 0) continue;  // already folded into its class
    const std::int32_t cls = q_.class_of(s);
    auto& class_count = class_count_[static_cast<std::size_t>(cls)];
    if (class_count == 0) {
      class_count = count;
      out.push_back(SourceClass{cls, count});
    } else if (class_count != count) {
      uniform = false;
    }
    ++class_members_[static_cast<std::size_t>(cls)];
    count = 0;
  }
  for (const SourceClass& sc : out) {
    const auto cls = static_cast<std::size_t>(sc.cls);
    if (class_members_[cls] != q_.class_size(sc.cls)) uniform = false;
    class_count_[cls] = 0;
    class_members_[cls] = 0;
  }
  std::sort(out.begin(), out.end(),
            [](const SourceClass& a, const SourceClass& b) {
              return a.cls < b.cls;
            });
  return uniform;
}

bool QuotientRouter::bind(const DemandSet& demands) {
  groups_.clear();
  const std::vector<EcmpRouter::Group> groups =
      EcmpRouter::group_by_targets(demands);
  // The fabric's range check: member volumes and circuit loads here equal
  // the fabric's, so its bound covers them.
  std::vector<Load> volumes;
  demand_loads(demands, groups.size(), 2 * q_.topology().num_circuits(),
               volumes);
  std::vector<SourceClass> classes;
  for (const EcmpRouter::Group& group : groups) {
    BoundGroup bound;
    if (!uniform_classes(demands[group.front()].targets, classes)) {
      groups_.clear();
      return false;
    }
    for (const SourceClass& sc : classes) bound.targets.push_back(sc.cls);
    for (const std::uint32_t i : group) {
      const Demand& d = demands[i];
      BoundDemand bd{&d.name, volumes[i], {}};
      if (!uniform_classes(d.sources, bd.sources)) {
        groups_.clear();
        return false;
      }
      bound.demands.push_back(std::move(bd));
    }
    groups_.push_back(std::move(bound));
  }
  return true;
}

bool QuotientRouter::assign_all(SplitMode mode, std::string* failed_demand) {
  const topo::Topology& topo = q_.topology();
  const std::size_t k = q_.num_classes();
  const std::vector<Quotient::Arc>& arcs = q_.arcs();
  loads_.assign(2 * q_.num_bundles(), 0);
  active_.resize(k);
  volume_.resize(k);
  for (std::size_t cls = 0; cls < k; ++cls) {
    active_[cls] =
        topo.sw(q_.representative(static_cast<std::int32_t>(cls))).active();
  }
  alive_.resize(q_.num_bundles());
  for (std::size_t b = 0; b < q_.num_bundles(); ++b) {
    alive_[b] = topo.circuit_carries_traffic(q_.bundles()[b].rep);
  }
  const auto fail = [&](const std::string& name) {
    if (failed_demand != nullptr) *failed_demand = name;
    return false;
  };

  for (const BoundGroup& group : groups_) {
    // BFS from the group's active target classes.
    dist_.assign(k, -1);
    visit_order_.clear();
    for (const std::int32_t t : group.targets) {
      if (!active_[static_cast<std::size_t>(t)]) continue;
      dist_[static_cast<std::size_t>(t)] = 0;
      volume_[static_cast<std::size_t>(t)] = 0;
      visit_order_.push_back(t);
    }
    if (visit_order_.empty()) return fail(*group.demands.front().name);
    for (std::size_t head = 0; head < visit_order_.size(); ++head) {
      const std::int32_t u = visit_order_[head];
      const std::int32_t du = dist_[static_cast<std::size_t>(u)];
      for (std::uint32_t i = q_.arc_begin(u); i < q_.arc_begin(u + 1); ++i) {
        const Quotient::Arc& arc = arcs[i];
        if (!alive_[arc.bundle]) continue;
        const auto ni = static_cast<std::size_t>(arc.neighbor);
        if (dist_[ni] < 0) {
          dist_[ni] = du + 1;
          volume_[ni] = 0;
          visit_order_.push_back(arc.neighbor);
        }
      }
    }

    // Injection, demand by demand as EcmpRouter::inject_sources does: the
    // per-source share is the same rounded-up quotient of the same integer
    // source count, so a member's injected volume is the fabric's.
    for (const BoundDemand& d : group.demands) {
      std::uint64_t active_sources = 0;
      for (const SourceClass& sc : d.sources) {
        const auto cls = static_cast<std::size_t>(sc.cls);
        if (!active_[cls]) continue;
        if (dist_[cls] < 0) return fail(*d.name);
        active_sources += std::uint64_t{sc.count} * q_.class_size(sc.cls);
      }
      if (active_sources == 0) continue;
      const Load per_source = ceil_div(d.volume, active_sources);
      for (const SourceClass& sc : d.sources) {
        const auto cls = static_cast<std::size_t>(sc.cls);
        if (!active_[cls]) continue;
        volume_[cls] += per_source * sc.count;
      }
    }

    // Propagation in decreasing distance. A member splits its volume over
    // its equal-cost next hops — `here` circuits per arc, each share
    // rounded up as the fabric rounds it — and a neighbor member receives
    // the share of each of its `there` circuits back.
    for (std::size_t idx = visit_order_.size(); idx-- > 0;) {
      const std::int32_t u = visit_order_[idx];
      const Load vol = volume_[static_cast<std::size_t>(u)];
      if (vol == 0) continue;
      const std::int32_t du = dist_[static_cast<std::size_t>(u)];
      if (du == 0) continue;
      next_hops_.clear();
      std::uint64_t hops = 0;
      for (std::uint32_t i = q_.arc_begin(u); i < q_.arc_begin(u + 1); ++i) {
        const Quotient::Arc& arc = arcs[i];
        if (!alive_[arc.bundle]) continue;
        if (dist_[static_cast<std::size_t>(arc.neighbor)] != du - 1) continue;
        next_hops_.push_back(i);
        hops += arc.here;
      }
      assert(hops > 0 && "reached class must have a next hop");
      WideLoad total_weight = 0;
      if (mode != SplitMode::kEqualSplit) {
        for (const std::uint32_t i : next_hops_) {
          total_weight += static_cast<WideLoad>(arcs[i].here) * arcs[i].weight;
        }
      }
      const Load equal_share = ceil_div(vol, hops);
      for (const std::uint32_t i : next_hops_) {
        const Quotient::Arc& arc = arcs[i];
        const Load share = mode == SplitMode::kEqualSplit
                               ? equal_share
                               : weighted_share(vol, arc.weight, total_weight);
        loads_[arc.slot] += share;
        volume_[static_cast<std::size_t>(arc.neighbor)] += share * arc.there;
      }
    }
  }
  return true;
}

}  // namespace klotski::traffic
