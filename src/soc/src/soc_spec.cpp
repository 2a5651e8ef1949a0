#include "vinoc/soc/soc_spec.hpp"

#include <cmath>
#include <unordered_set>

namespace vinoc::soc {

std::vector<CoreId> SocSpec::cores_in_island(IslandId island) const {
  std::vector<CoreId> out;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (cores[i].island == island) out.push_back(static_cast<CoreId>(i));
  }
  return out;
}

graph::Digraph SocSpec::core_graph() const {
  graph::Digraph g(cores.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    g.add_edge(flows[f].src, flows[f].dst, flows[f].bandwidth_bits_per_s,
               static_cast<std::int64_t>(f));
  }
  return g;
}

double SocSpec::total_core_dynamic_w() const {
  double w = 0.0;
  for (const CoreSpec& c : cores) w += c.dynamic_power_w;
  return w;
}

double SocSpec::total_core_leakage_w() const {
  double w = 0.0;
  for (const CoreSpec& c : cores) w += c.leakage_power_w;
  return w;
}

double SocSpec::total_core_area_mm2() const {
  double a = 0.0;
  for (const CoreSpec& c : cores) a += c.width_mm * c.height_mm;
  return a;
}

CoreId SocSpec::find_core(std::string_view name) const {
  for (std::size_t i = 0; i < cores.size(); ++i) {
    if (cores[i].name == name) return static_cast<CoreId>(i);
  }
  return -1;
}

std::vector<std::string> SocSpec::validate() const {
  std::vector<std::string> problems;
  auto complain = [&problems](std::string msg) { problems.push_back(std::move(msg)); };

  std::unordered_set<std::string> seen_names;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const CoreSpec& c = cores[i];
    if (c.name.empty()) complain("core " + std::to_string(i) + " has empty name");
    if (!seen_names.insert(c.name).second) {
      complain("duplicate core name '" + c.name + "'");
    }
    if (c.island < 0 || static_cast<std::size_t>(c.island) >= islands.size()) {
      complain("core '" + c.name + "' references island " +
               std::to_string(c.island) + " out of range");
    }
    if (c.width_mm <= 0.0 || c.height_mm <= 0.0) {
      complain("core '" + c.name + "' has non-positive dimensions");
    }
    if (c.dynamic_power_w < 0.0 || c.leakage_power_w < 0.0) {
      complain("core '" + c.name + "' has negative power");
    }
    if (c.clock_hz <= 0.0) complain("core '" + c.name + "' has non-positive clock");
  }

  for (std::size_t i = 0; i < islands.size(); ++i) {
    if (islands[i].name.empty()) {
      complain("island " + std::to_string(i) + " has empty name");
    }
    if (islands[i].vdd_v <= 0.0) {
      complain("island '" + islands[i].name + "' has non-positive vdd");
    }
  }

  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& fl = flows[f];
    const auto n = static_cast<CoreId>(cores.size());
    if (fl.src < 0 || fl.src >= n || fl.dst < 0 || fl.dst >= n) {
      complain("flow " + std::to_string(f) + " references core out of range");
      continue;
    }
    if (fl.src == fl.dst) {
      complain("flow " + std::to_string(f) + " is a self-flow on core '" +
               cores[static_cast<std::size_t>(fl.src)].name + "'");
    }
    if (fl.bandwidth_bits_per_s <= 0.0) {
      complain("flow " + std::to_string(f) + " has non-positive bandwidth");
    }
    if (fl.max_latency_cycles <= 0.0) {
      complain("flow " + std::to_string(f) + " has non-positive latency budget");
    }
  }

  double fraction_sum = 0.0;
  for (const Scenario& s : scenarios) {
    if (s.island_active.size() != islands.size()) {
      complain("scenario '" + s.name + "' island_active size mismatch");
    }
    if (s.time_fraction < 0.0 || s.time_fraction > 1.0) {
      complain("scenario '" + s.name + "' has time fraction outside [0,1]");
    }
    fraction_sum += s.time_fraction;
    for (std::size_t i = 0; i < islands.size() && i < s.island_active.size(); ++i) {
      if (!s.island_active[i] && !islands[i].can_shutdown) {
        complain("scenario '" + s.name + "' gates non-shutdown island '" +
                 islands[i].name + "'");
      }
    }
  }
  if (!scenarios.empty() && fraction_sum > 1.0 + 1e-9) {
    complain("scenario time fractions sum to " + std::to_string(fraction_sum) +
             " > 1");
  }
  return problems;
}

}  // namespace vinoc::soc
