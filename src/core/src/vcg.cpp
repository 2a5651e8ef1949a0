#include "vinoc/core/vcg.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace vinoc::core {

VcgScaling vcg_scaling(const soc::SocSpec& spec) {
  VcgScaling s;
  s.min_lat_cycles = std::numeric_limits<double>::infinity();
  for (const soc::Flow& f : spec.flows) {
    s.max_bw_bits_per_s = std::max(s.max_bw_bits_per_s, f.bandwidth_bits_per_s);
    s.min_lat_cycles = std::min(s.min_lat_cycles, f.max_latency_cycles);
  }
  if (spec.flows.empty()) {
    s.max_bw_bits_per_s = 1.0;
    s.min_lat_cycles = 1.0;
  }
  return s;
}

graph::Digraph build_vcg(const soc::SocSpec& spec, soc::IslandId island,
                         double alpha, const VcgScaling& scaling) {
  if (alpha < 0.0 || alpha > 1.0) {
    throw std::invalid_argument("build_vcg: alpha must be in [0,1]");
  }
  if (scaling.max_bw_bits_per_s <= 0.0 || scaling.min_lat_cycles <= 0.0) {
    throw std::invalid_argument("build_vcg: scaling must be positive");
  }
  const std::vector<soc::CoreId> members = spec.cores_in_island(island);
  graph::Digraph vcg(members.size());
  std::vector<graph::NodeId> node_of(spec.cores.size(), graph::kInvalidNode);
  for (std::size_t i = 0; i < members.size(); ++i) {
    node_of[static_cast<std::size_t>(members[i])] = static_cast<graph::NodeId>(i);
  }
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    const soc::Flow& flow = spec.flows[f];
    const graph::NodeId s = node_of[static_cast<std::size_t>(flow.src)];
    const graph::NodeId d = node_of[static_cast<std::size_t>(flow.dst)];
    if (s == graph::kInvalidNode || d == graph::kInvalidNode) continue;
    const double h = alpha * flow.bandwidth_bits_per_s / scaling.max_bw_bits_per_s +
                     (1.0 - alpha) * scaling.min_lat_cycles / flow.max_latency_cycles;
    vcg.add_edge(s, d, h, static_cast<std::int64_t>(f));
  }
  return vcg;
}

}  // namespace vinoc::core
