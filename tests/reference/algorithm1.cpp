#include "algorithm1.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "routing.hpp"
#include "vinoc/core/deadlock.hpp"
#include "vinoc/core/vcg.hpp"
#include "vinoc/partition/kway.hpp"

namespace vinoc::reference {

using core::DesignPoint;
using core::FlowRoute;
using core::IslandNocParams;
using core::kIntermediateIsland;
using core::Metrics;
using core::NocTopology;
using core::SwitchInst;
using core::SynthesisOptions;
using core::TopLink;

namespace {

/// Cores-per-switch assignment of one island for a given switch count,
/// cached across the (i, k_int) sweep.
struct IslandPartition {
  std::vector<std::vector<soc::CoreId>> blocks;  ///< cores per switch
};

class PartitionCache {
 public:
  PartitionCache(const soc::SocSpec& spec, const SynthesisOptions& opts,
                 const std::vector<IslandNocParams>& params)
      : spec_(spec), opts_(opts), params_(params), scaling_(core::vcg_scaling(spec)) {}

  const IslandPartition& get(soc::IslandId island, int switch_count) {
    const auto key = std::make_pair(island, switch_count);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;

    const auto cores = spec_.cores_in_island(island);
    IslandPartition part;
    part.blocks.resize(static_cast<std::size_t>(switch_count));
    if (!cores.empty()) {
      const graph::Digraph vcg = core::build_vcg(spec_, island, opts_.alpha, scaling_);
      partition::KwayOptions kopts;
      kopts.blocks = switch_count;
      const int max_size =
          params_[static_cast<std::size_t>(island)].max_sw_size - opts_.port_reserve;
      kopts.max_block_size = static_cast<std::size_t>(std::max(max_size, 1));
      kopts.seed = opts_.partition_seed;
      const partition::PartitionResult res = partition::kway_mincut(vcg, kopts);
      for (std::size_t i = 0; i < cores.size(); ++i) {
        part.blocks[static_cast<std::size_t>(res.block_of[i])].push_back(cores[i]);
      }
    }
    // Drop empty blocks (the partitioner may not use all of them when the
    // island has fewer cores than requested switches).
    part.blocks.erase(std::remove_if(part.blocks.begin(), part.blocks.end(),
                                     [](const auto& b) { return b.empty(); }),
                      part.blocks.end());
    return cache_.emplace(key, std::move(part)).first->second;
  }

 private:
  const soc::SocSpec& spec_;
  const SynthesisOptions& opts_;
  const std::vector<IslandNocParams>& params_;
  core::VcgScaling scaling_;
  std::map<std::pair<soc::IslandId, int>, IslandPartition> cache_;
};

/// Per-core total traffic, used to weight switch placement.
std::vector<double> core_traffic(const soc::SocSpec& spec) {
  std::vector<double> t(spec.cores.size(), 0.0);
  for (const soc::Flow& f : spec.flows) {
    t[static_cast<std::size_t>(f.src)] += f.bandwidth_bits_per_s;
    t[static_cast<std::size_t>(f.dst)] += f.bandwidth_bits_per_s;
  }
  return t;
}

/// Builds the switch set for one configuration: one switch per partition
/// block at the traffic-weighted centroid of its cores (clamped into the
/// island region), plus `k_int` intermediate switches around the chip centre.
void build_switches(NocTopology& topo, const soc::SocSpec& spec,
                    const floorplan::Floorplan& fp,
                    const std::vector<IslandNocParams>& params,
                    const IslandNocParams& inter_params,
                    const std::vector<const IslandPartition*>& parts, int k_int,
                    const std::vector<double>& traffic) {
  topo = NocTopology{};
  topo.switch_of_core.assign(spec.cores.size(), -1);
  topo.island_freq_hz.resize(spec.islands.size());
  for (std::size_t isl = 0; isl < spec.islands.size(); ++isl) {
    topo.island_freq_hz[isl] = params[isl].freq_hz;
  }
  topo.intermediate_freq_hz = inter_params.freq_hz;

  for (std::size_t isl = 0; isl < spec.islands.size(); ++isl) {
    for (const auto& block : parts[isl]->blocks) {
      SwitchInst sw;
      sw.island = static_cast<soc::IslandId>(isl);
      sw.freq_hz = params[isl].freq_hz;
      std::vector<floorplan::Point> pts;
      std::vector<double> wts;
      for (const soc::CoreId c : block) {
        pts.push_back(fp.core_rect(c).center());
        wts.push_back(traffic[static_cast<std::size_t>(c)]);
      }
      sw.pos = fp.clamp_to_island(floorplan::weighted_centroid(pts, wts),
                                  static_cast<soc::IslandId>(isl));
      sw.cores = block;
      const int sw_id = static_cast<int>(topo.switches.size());
      for (const soc::CoreId c : block) {
        topo.switch_of_core[static_cast<std::size_t>(c)] = sw_id;
      }
      topo.switches.push_back(std::move(sw));
    }
  }

  // Intermediate switches: spread on a small ring around the chip centre so
  // multiple indirect switches do not collapse onto the same point (their
  // positions are refined after routing).
  const floorplan::Point center{fp.chip_width_mm() / 2.0, fp.chip_height_mm() / 2.0};
  const double ring = std::min(fp.chip_width_mm(), fp.chip_height_mm()) / 6.0;
  for (int k = 0; k < k_int; ++k) {
    SwitchInst sw;
    sw.island = kIntermediateIsland;
    sw.freq_hz = inter_params.freq_hz;
    const double angle = 2.0 * 3.14159265358979323846 * k / std::max(k_int, 1);
    sw.pos = fp.clamp_to_island(
        {center.x_mm + ring * std::cos(angle), center.y_mm + ring * std::sin(angle)},
        kIntermediateIsland);
    topo.switches.push_back(std::move(sw));
  }

  // NI attach wires: core centre to its switch.
  topo.ni_wire_mm.resize(spec.cores.size());
  for (std::size_t c = 0; c < spec.cores.size(); ++c) {
    const int sw = topo.switch_of_core[c];
    topo.ni_wire_mm[c] = floorplan::manhattan_mm(
        fp.core_rect(static_cast<soc::CoreId>(c)).center(),
        topo.switches[static_cast<std::size_t>(sw)].pos);
  }
}

/// Moves each intermediate switch to the traffic-weighted centroid of its
/// link partners and refreshes wire lengths (latencies are length-free, so
/// routes stay valid; only the power numbers improve).
void refine_intermediate_positions(NocTopology& topo, const floorplan::Floorplan& fp,
                                   const soc::SocSpec& spec) {
  for (std::size_t s = 0; s < topo.switches.size(); ++s) {
    SwitchInst& sw = topo.switches[s];
    if (sw.island != kIntermediateIsland) continue;
    std::vector<floorplan::Point> pts;
    std::vector<double> wts;
    for (const TopLink& l : topo.links) {
      if (l.src_switch == static_cast<int>(s)) {
        pts.push_back(topo.switches[static_cast<std::size_t>(l.dst_switch)].pos);
        wts.push_back(l.carried_bw_bits_per_s);
      } else if (l.dst_switch == static_cast<int>(s)) {
        pts.push_back(topo.switches[static_cast<std::size_t>(l.src_switch)].pos);
        wts.push_back(l.carried_bw_bits_per_s);
      }
    }
    if (pts.empty()) continue;
    sw.pos = fp.clamp_to_island(floorplan::weighted_centroid(pts, wts),
                                kIntermediateIsland);
  }
  for (TopLink& l : topo.links) {
    l.length_mm = floorplan::manhattan_mm(
        topo.switches[static_cast<std::size_t>(l.src_switch)].pos,
        topo.switches[static_cast<std::size_t>(l.dst_switch)].pos);
  }
  for (std::size_t c = 0; c < spec.cores.size(); ++c) {
    const int sw = topo.switch_of_core[c];
    topo.ni_wire_mm[c] = floorplan::manhattan_mm(
        fp.core_rect(static_cast<soc::CoreId>(c)).center(),
        topo.switches[static_cast<std::size_t>(sw)].pos);
  }
}

bool has_cross_island_flows(const soc::SocSpec& spec) {
  for (const soc::Flow& f : spec.flows) {
    if (spec.cores[static_cast<std::size_t>(f.src)].island !=
        spec.cores[static_cast<std::size_t>(f.dst)].island) {
      return true;
    }
  }
  return false;
}

/// Drops intermediate switches that ended up with no links (the router may
/// need fewer than the sweep offered) and remaps all indices. Returns the
/// number of intermediate switches kept. Designs then deduplicate cleanly
/// across k_int values.
int compact_unused_intermediate(NocTopology& topo) {
  const std::size_t n = topo.switches.size();
  std::vector<bool> used(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    if (topo.switches[s].island != kIntermediateIsland) used[s] = true;
  }
  for (const TopLink& l : topo.links) {
    used[static_cast<std::size_t>(l.src_switch)] = true;
    used[static_cast<std::size_t>(l.dst_switch)] = true;
  }
  std::vector<int> remap(n, -1);
  int next = 0;
  int kept_intermediate = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!used[s]) continue;
    remap[s] = next++;
    if (topo.switches[s].island == kIntermediateIsland) ++kept_intermediate;
  }
  if (next == static_cast<int>(n)) return kept_intermediate;  // nothing to drop

  std::vector<SwitchInst> switches;
  switches.reserve(static_cast<std::size_t>(next));
  for (std::size_t s = 0; s < n; ++s) {
    if (used[s]) switches.push_back(std::move(topo.switches[s]));
  }
  topo.switches = std::move(switches);
  for (TopLink& l : topo.links) {
    l.src_switch = remap[static_cast<std::size_t>(l.src_switch)];
    l.dst_switch = remap[static_cast<std::size_t>(l.dst_switch)];
  }
  for (int& s : topo.switch_of_core) s = remap[static_cast<std::size_t>(s)];
  for (FlowRoute& r : topo.routes) {
    r.src_switch = remap[static_cast<std::size_t>(r.src_switch)];
    r.dst_switch = remap[static_cast<std::size_t>(r.dst_switch)];
  }
  return kept_intermediate;
}

/// Structural signature for design-point deduplication: per-island switch
/// counts, attachment, and the link list.
std::vector<int> design_signature(const NocTopology& topo) {
  std::vector<int> sig;
  sig.push_back(static_cast<int>(topo.switches.size()));
  for (const int s : topo.switch_of_core) sig.push_back(s);
  for (const TopLink& l : topo.links) {
    sig.push_back(l.src_switch);
    sig.push_back(l.dst_switch);
  }
  return sig;
}

}  // namespace

Result synthesize(const soc::SocSpec& spec, const SynthesisOptions& options) {
  {
    const auto problems = spec.validate();
    if (!problems.empty()) {
      throw std::invalid_argument("synthesize: invalid SocSpec: " + problems.front());
    }
  }
  if (options.alpha < 0.0 || options.alpha > 1.0 || options.alpha_power < 0.0 ||
      options.alpha_power > 1.0) {
    throw std::invalid_argument("synthesize: alpha weights must be in [0,1]");
  }

  Result result;
  const floorplan::Floorplan fp = floorplan::Floorplan::build(spec, options.floorplan);
  result.island_params =
      core::derive_island_params(spec, options.tech, options.link_width_bits,
                                 options.port_reserve);
  for (const IslandNocParams& p : result.island_params) {
    if (p.core_count > 0 && p.max_sw_size == 0) {
      throw std::invalid_argument(
          "synthesize: an NI link exceeds attainable bandwidth; widen links");
    }
  }
  result.intermediate_params =
      core::derive_intermediate_params(result.island_params, options.tech);

  const std::size_t n_islands = spec.islands.size();
  int max_cores_per_island = 0;
  for (const IslandNocParams& p : result.island_params) {
    max_cores_per_island = std::max(max_cores_per_island, p.core_count);
  }
  const bool cross_flows = has_cross_island_flows(spec);
  const bool use_intermediate = options.allow_intermediate_island && cross_flows;
  const int max_int =
      !use_intermediate ? 0
      : options.max_intermediate_switches >= 0
          ? options.max_intermediate_switches
          : std::max(2, max_cores_per_island);

  PartitionCache partitions(spec, options, result.island_params);
  const std::vector<double> traffic = core_traffic(spec);

  std::set<std::vector<int>> seen_configs;
  std::set<std::vector<int>> seen_designs;
  for (int i = 1; i <= std::max(max_cores_per_island, 1); ++i) {
    // Switch count per island for this iteration (documented deviation:
    // k = min(min_sw + (i-1), |Vj|) so the minimum design is explored).
    std::vector<int> sw_count(n_islands, 0);
    for (std::size_t isl = 0; isl < n_islands; ++isl) {
      const IslandNocParams& p = result.island_params[isl];
      if (p.core_count == 0) continue;
      sw_count[isl] = std::min(p.min_switches + (i - 1), p.core_count);
      sw_count[isl] = std::max(sw_count[isl], 1);
    }
    if (!seen_configs.insert(sw_count).second) continue;  // saturated

    std::vector<const IslandPartition*> parts(n_islands);
    for (std::size_t isl = 0; isl < n_islands; ++isl) {
      parts[isl] = &partitions.get(static_cast<soc::IslandId>(isl), sw_count[isl]);
    }

    for (int k_int = 0; k_int <= max_int; ++k_int) {
      ++result.stats.configs_explored;
      DesignPoint point;
      point.switches_per_island = sw_count;
      point.intermediate_switches = k_int;
      build_switches(point.topology, spec, fp, result.island_params,
                     result.intermediate_params, parts, k_int, traffic);

      RouterOptions ropts;
      ropts.alpha_power = options.alpha_power;
      ropts.link_width_bits = options.link_width_bits;
      ropts.tech = options.tech;
      ropts.enforce_wire_timing = options.enforce_wire_timing;
      ropts.max_ports.resize(point.topology.switches.size());
      for (std::size_t s = 0; s < point.topology.switches.size(); ++s) {
        const soc::IslandId isl = point.topology.switches[s].island;
        ropts.max_ports[s] =
            isl == kIntermediateIsland
                ? result.intermediate_params.max_sw_size
                : result.island_params[static_cast<std::size_t>(isl)].max_sw_size;
      }

      const RouteOutcome outcome =
          route_all_flows(point.topology, spec, ropts);
      if (!outcome.success) {
        if (outcome.latency_violation) {
          ++result.stats.rejected_latency;
        } else {
          ++result.stats.rejected_unroutable;
        }
        continue;
      }
      ++result.stats.configs_routed;
      // The router may leave some offered intermediate switches unused;
      // drop them and deduplicate (several k_int values can collapse onto
      // the same effective design).
      point.intermediate_switches = compact_unused_intermediate(point.topology);
      if (!seen_designs.insert(design_signature(point.topology)).second) {
        ++result.stats.rejected_duplicate;
        continue;
      }
      if (options.enforce_deadlock_freedom && !core::is_deadlock_free(point.topology)) {
        ++result.stats.rejected_deadlock;
        continue;
      }
      refine_intermediate_positions(point.topology, fp, spec);
      point.metrics = core::compute_metrics(point.topology, spec, options.tech,
                                            options.link_width_bits);
      ++result.stats.configs_saved;
      result.points.push_back(std::move(point));
    }
  }

  // Pareto front over (dynamic power, average latency), ascending power.
  std::vector<std::size_t> order(result.points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&result](std::size_t a, std::size_t b) {
    const Metrics& ma = result.points[a].metrics;
    const Metrics& mb = result.points[b].metrics;
    if (ma.noc_dynamic_w != mb.noc_dynamic_w) {
      return ma.noc_dynamic_w < mb.noc_dynamic_w;
    }
    return ma.avg_latency_cycles < mb.avg_latency_cycles;
  });
  double best_lat = std::numeric_limits<double>::infinity();
  for (const std::size_t idx : order) {
    const Metrics& m = result.points[idx].metrics;
    if (m.avg_latency_cycles < best_lat - 1e-12) {
      result.pareto.push_back(idx);
      best_lat = m.avg_latency_cycles;
    }
  }
  return result;
}

}  // namespace vinoc::reference
