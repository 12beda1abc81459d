// Fixed-point loads (DESIGN.md §3 "Fixed-point loads").
//
// Every demand volume, share and circuit load the routers compute is an
// int64 count of 2^-48 Tbps. A volume converts rounding up, and so does
// every per-source share and every split share, so a fixed-point load is
// never below the real-valued one and the theta check stays conservative.
// Integer addition is exact in any order, so a load does not depend on the
// order its shares arrive in: the fabric router adding a share m times and
// the quotient router adding m × share produce the same integer.
//
// The range is the whole int64: 2^15 Tbps. Volumes and capacities outside
// it are refused with an error naming the field, never wrapped.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "klotski/traffic/demand.h"

namespace klotski::traffic {

/// A volume or a directional circuit load, in units of 2^-48 Tbps.
using Load = std::int64_t;

/// Per-circuit directional loads: index 2*c   = load from circuit(c).a to .b,
///                                index 2*c+1 = load from .b to .a.
using LoadVector = std::vector<Load>;

inline constexpr double kLoadUnitsPerTbps = 0x1p48;

/// The fixed-point range: volumes lie below it, capacities at most at it
/// (2^15 Tbps, 2^63 units).
inline constexpr double kMaxTbps = 0x1p15;

/// The smallest capacity: a WCMP split weight is the capacity in integer
/// Mbps, and a next hop must weigh at least one.
inline constexpr double kMinCapacityTbps = 1e-6;

/// The 128-bit product of a WCMP split, volume × weight.
__extension__ typedef unsigned __int128 WideLoad;

/// The share rounding of both routers: ceil(volume / parts) for volume >= 0
/// and parts > 0.
inline Load ceil_div(Load volume, std::uint64_t parts) {
  const auto v = static_cast<std::uint64_t>(volume);
  return static_cast<Load>(v / parts + (v % parts != 0));
}

/// The WCMP share ceil(volume × weight / total), where `total` sums the
/// weights of the switch's next hops, this one's included, so the share
/// is at most the volume.
inline Load weighted_share(Load volume, std::uint64_t weight, WideLoad total) {
  const WideLoad scaled = static_cast<WideLoad>(volume) * weight;
  return static_cast<Load>(scaled / total + (scaled % total != 0));
}

/// The load in Tbps (exact below 2^53 units, 32 Tbps).
inline double to_tbps(Load load) {
  return static_cast<double>(load) / kLoadUnitsPerTbps;
}

/// ceil(volume_tbps · 2^48), the demand's volume in load units. Throws
/// std::invalid_argument naming the demand and its volume_tbps when the
/// volume is not finite or lies outside [0, kMaxTbps); a zero volume
/// carries nothing.
Load demand_load(const Demand& demand);

/// Converts every volume of `demands` (demand_load) into `out`, then
/// refuses, naming volume_tbps, a set that does not fit int64 as a whole:
/// its total plus the most that rounding up can add while routing it in
/// `groups` target-set groups over `directed_arcs` arcs (under one unit
/// per source occurrence and one per arc of each group). Every switch
/// volume and circuit load of the routing is then in range.
void demand_loads(std::span<const Demand> demands, std::size_t groups,
                  std::size_t directed_arcs, std::vector<Load>& out);

/// True when a capacity is finite and within [kMinCapacityTbps, kMaxTbps]
/// (NaN is not).
inline bool capacity_in_range(double capacity_tbps) {
  return capacity_tbps >= kMinCapacityTbps && capacity_tbps <= kMaxTbps;
}

/// Validates an input capacity (`field` names it in the error): finite and
/// within [kMinCapacityTbps, kMaxTbps]. Returns it unchanged.
double checked_capacity(double capacity_tbps, const std::string& field);

/// Validates an input demand volume (`field` names it in the error):
/// finite, positive and below kMaxTbps. Returns it unchanged.
double checked_volume(double volume_tbps, const std::string& field);

/// A circuit's WCMP split weight: its capacity in integer Mbps, rounded to
/// nearest. Throws std::invalid_argument naming the circuit when the
/// capacity is outside the range checked_capacity admits.
std::uint64_t capacity_weight(double capacity_tbps, std::uint32_t circuit);

/// Utilization of a circuit of `capacity_tbps` carrying `load` in its
/// busier direction, times `factor` (1 + the funneling margin on a funneled
/// circuit, else 1). The theta test of Eq. 5 is `utilization(...) > theta`
/// in both routers' scans: one function of the same integer, capacity and
/// factor, so the quotient and the fabric decide every circuit alike.
inline double utilization(Load load, double capacity_tbps, double factor) {
  return to_tbps(load) / capacity_tbps * factor;
}

}  // namespace klotski::traffic
