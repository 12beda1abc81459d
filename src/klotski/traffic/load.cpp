#include "klotski/traffic/load.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace klotski::traffic {

namespace {

using Wide = WideLoad;

std::string show(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

std::string range_error(const std::string& field, double value,
                        const std::string& range) {
  return field + " " + show(value) + " is outside the fixed-point range " +
         range + " Tbps";
}

}  // namespace

Load demand_load(const Demand& demand) {
  const double v = demand.volume_tbps;
  if (!(v >= 0.0 && v < kMaxTbps)) {
    throw std::invalid_argument(range_error(
        "demand '" + demand.name + "': volume_tbps", v, "[0, 32768)"));
  }
  // Scaling by a power of two is exact, so this is the real ceiling, and
  // below 2^63.
  return static_cast<Load>(std::ceil(v * kLoadUnitsPerTbps));
}

void demand_loads(std::span<const Demand> demands, std::size_t groups,
                  std::size_t directed_arcs, std::vector<Load>& out) {
  out.resize(demands.size());
  Wide total = Wide{groups} * directed_arcs;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    out[i] = demand_load(demands[i]);
    total += static_cast<Wide>(out[i]) + demands[i].sources.size();
  }
  if (total > static_cast<Wide>(std::numeric_limits<Load>::max())) {
    double volume = 0.0;
    for (const Demand& d : demands) volume += d.volume_tbps;
    throw std::invalid_argument(
        "demands: total volume_tbps " + show(volume) +
        " plus its routing's rounding leaves the fixed-point range of "
        "32768 Tbps");
  }
}

double checked_capacity(double capacity_tbps, const std::string& field) {
  if (!capacity_in_range(capacity_tbps)) {
    throw std::invalid_argument(
        range_error(field, capacity_tbps, "[1e-06, 32768]"));
  }
  return capacity_tbps;
}

double checked_volume(double volume_tbps, const std::string& field) {
  if (!(volume_tbps > 0.0 && volume_tbps < kMaxTbps)) {
    throw std::invalid_argument(
        range_error(field, volume_tbps, "(0, 32768)"));
  }
  return volume_tbps;
}

std::uint64_t capacity_weight(double capacity_tbps, std::uint32_t circuit) {
  // The fabric router converts every WCMP next hop as it propagates, so
  // the field name is only spelled out on the error path.
  if (!capacity_in_range(capacity_tbps)) {
    checked_capacity(capacity_tbps,
                     "circuit " + std::to_string(circuit) + " capacity_tbps");
  }
  return static_cast<std::uint64_t>(capacity_tbps * 1e6 + 0.5);
}

}  // namespace klotski::traffic
