#include "vinoc/core/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "eval_internal.hpp"
#include "vinoc/core/deadlock.hpp"
#include "vinoc/core/pareto.hpp"
#include "vinoc/core/prune.hpp"
#include "vinoc/core/router.hpp"
#include "vinoc/core/vcg.hpp"
#include "vinoc/exec/parallel_for.hpp"
#include "vinoc/faultinject/faultinject.hpp"
#include "vinoc/obs/profile.hpp"
#include "vinoc/obs/trace.hpp"
#include "vinoc/partition/kway.hpp"

namespace vinoc::core {

namespace {

bool has_cross_island_flows(const soc::SocSpec& spec) {
  for (const soc::Flow& f : spec.flows) {
    if (spec.cores[static_cast<std::size_t>(f.src)].island !=
        spec.cores[static_cast<std::size_t>(f.dst)].island) {
      return true;
    }
  }
  return false;
}

/// Builds the switch set for one configuration: one switch per partition
/// block at the traffic-weighted centroid of its cores, plus `k_int`
/// intermediate switches around the chip centre.
void build_switches(NocTopology& topo, const EvalContext& ctx,
                    const std::vector<const IslandPartition*>& parts, int k_int,
                    EvalScratch* scratch) {
  const soc::SocSpec& spec = ctx.spec;
  const floorplan::Floorplan& fp = ctx.floorplan;
  topo = NocTopology{};
  topo.switch_of_core.assign(spec.cores.size(), -1);
  topo.island_freq_hz.resize(spec.islands.size());
  for (std::size_t isl = 0; isl < spec.islands.size(); ++isl) {
    topo.island_freq_hz[isl] = ctx.island_params[isl].freq_hz;
  }
  topo.intermediate_freq_hz = ctx.intermediate_params.freq_hz;

  std::vector<floorplan::Point> local_pts;
  std::vector<double> local_wts;
  std::vector<floorplan::Point>& pts =
      scratch != nullptr ? scratch->centroid_pts : local_pts;
  std::vector<double>& wts = scratch != nullptr ? scratch->centroid_wts : local_wts;

  for (std::size_t isl = 0; isl < spec.islands.size(); ++isl) {
    for (const auto& block : parts[isl]->blocks) {
      SwitchInst sw;
      sw.island = static_cast<soc::IslandId>(isl);
      sw.freq_hz = ctx.island_params[isl].freq_hz;
      pts.clear();
      wts.clear();
      for (const soc::CoreId c : block) {
        pts.push_back(fp.core_rect(c).center());
        wts.push_back(ctx.core_traffic[static_cast<std::size_t>(c)]);
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
    sw.freq_hz = ctx.intermediate_params.freq_hz;
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
/// link partners and refreshes wire lengths.
void refine_intermediate_positions(NocTopology& topo, const floorplan::Floorplan& fp,
                                   const soc::SocSpec& spec, EvalScratch* scratch) {
  std::vector<floorplan::Point> local_pts;
  std::vector<double> local_wts;
  std::vector<floorplan::Point>& pts =
      scratch != nullptr ? scratch->centroid_pts : local_pts;
  std::vector<double>& wts = scratch != nullptr ? scratch->centroid_wts : local_wts;
  for (std::size_t s = 0; s < topo.switches.size(); ++s) {
    SwitchInst& sw = topo.switches[s];
    if (sw.island != kIntermediateIsland) continue;
    pts.clear();
    wts.clear();
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

/// Drops intermediate switches that ended up with no links and remaps all
/// indices in place. Returns the number of intermediate switches kept.
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

  for (std::size_t s = 0; s < n; ++s) {
    if (!used[s]) continue;
    const auto to = static_cast<std::size_t>(remap[s]);
    if (to != s) topo.switches[to] = std::move(topo.switches[s]);
  }
  topo.switches.resize(static_cast<std::size_t>(next));
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

/// Structural design signature for order-dependent deduplication.
std::vector<int> design_signature(const NocTopology& topo) {
  std::vector<int> sig;
  sig.reserve(1 + topo.switch_of_core.size() + 2 * topo.links.size());
  sig.push_back(static_cast<int>(topo.switches.size()));
  for (const int s : topo.switch_of_core) sig.push_back(s);
  for (const TopLink& l : topo.links) {
    sig.push_back(l.src_switch);
    sig.push_back(l.dst_switch);
  }
  return sig;
}

/// Pre-routing Pareto bound (see prune.hpp) of a placed topology.
struct BaseBound {
  double power_w = 0.0;             ///< lower bound on noc_dynamic_w
  double latency_sum_cycles = 0.0;  ///< Σ min_flow_latency
};

/// Fills min_flow_latency / switch_bw_floor / switch_ebit_floor (indexed
/// like topo.switches) and returns the pre-routing bound: the NI and NI-wire
/// power plus each switch's dynamic-power floor at its own frequency, and
/// the per-flow latency floors.
BaseBound compute_base_bound(const soc::SocSpec& spec, const NocTopology& topo,
                             const models::Technology& tech,
                             double ni_dynamic_base_w,
                             const std::vector<double>& core_traffic,
                             std::vector<double>& min_flow_latency,
                             std::vector<double>& switch_bw_floor,
                             std::vector<double>& switch_ebit_floor) {
  const models::LinkModel link_model(tech);
  const models::SwitchModel sw_model(tech);
  BaseBound out;

  min_flow_latency.assign(spec.flows.size(), 0.0);
  switch_bw_floor.assign(topo.switches.size(), 0.0);
  const double pipe = tech.sw_pipeline_cycles;
  const double fifo = static_cast<double>(tech.fifo_latency_cycles);
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    const soc::Flow& flow = spec.flows[f];
    const int s_sw = topo.switch_of_core[static_cast<std::size_t>(flow.src)];
    const int d_sw = topo.switch_of_core[static_cast<std::size_t>(flow.dst)];
    double lat;
    if (s_sw == d_sw) {
      lat = 2.0 + pipe;  // exact: NI links + one switch traversal
    } else if (spec.cores[static_cast<std::size_t>(flow.src)].island ==
               spec.cores[static_cast<std::size_t>(flow.dst)].island) {
      lat = 2.0 + 2.0 * pipe + 1.0;  // at least one intra-island hop
    } else {
      lat = 2.0 + 2.0 * pipe + fifo;  // at least one crossing hop
    }
    min_flow_latency[f] = lat;
    out.latency_sum_cycles += lat;

    const double bw = flow.bandwidth_bits_per_s;
    switch_bw_floor[static_cast<std::size_t>(s_sw)] += bw;
    if (d_sw != s_sw) switch_bw_floor[static_cast<std::size_t>(d_sw)] += bw;
  }

  out.power_w = ni_dynamic_base_w;
  for (std::size_t c = 0; c < spec.cores.size(); ++c) {
    out.power_w += link_model.dynamic_power_w(topo.ni_wire_mm[c], core_traffic[c]);
  }
  switch_ebit_floor.assign(topo.switches.size(), 0.0);
  for (std::size_t s = 0; s < topo.switches.size(); ++s) {
    const SwitchInst& sw = topo.switches[s];
    const int core_ports = static_cast<int>(sw.cores.size());
    // Energy per bit floor for pass-through traffic: a pass-through switch
    // necessarily has an inbound link on top of its core ports, so its final
    // max(in, out) is at least core_ports + 1 and the crossbar only grows
    // from there.
    switch_ebit_floor[s] = (tech.sw_energy_base_pj_per_bit +
                            tech.sw_energy_per_port_pj_per_bit * (core_ports + 1)) *
                           1e-12;
  }
  for (std::size_t s = 0; s < topo.switches.size(); ++s) {
    const int core_ports = static_cast<int>(topo.switches[s].cores.size());
    out.power_w += sw_model.dynamic_power_w(core_ports, core_ports,
                                            topo.switches[s].freq_hz,
                                            switch_bw_floor[s]);
  }
  return out;
}

/// Routes `out.point.topology` (switches placed, links empty) and finishes
/// the evaluation: status, last bound checkpoint, compaction, signature,
/// deadlock check, intermediate refinement and metrics.
void route_and_finish(const EvalContext& ctx, CandidateOutcome& out,
                      const RouterOptions& ropts, EvalScratch* scratch,
                      const RouteBound* rbound, double base_avg_lat,
                      DeltaReference* delta_record, DeltaRouteState* delta) {
  const RouteOutcome outcome = [&] {
    OBS_SPAN("route_flows");
    const obs::PhaseScope obs_phase(obs::Phase::kRoute);
    return route_all_flows(out.point.topology, ctx.spec, ropts,
                           scratch != nullptr ? &scratch->router : nullptr,
                           rbound, delta_record, delta);
  }();
  if (outcome.pruned) {
    out.status = EvalStatus::kPruned;
    out.pruned_power_lb_w = outcome.pruned_power_lb_w;
    out.pruned_latency_lb_cycles = outcome.pruned_latency_lb_cycles;
    return;
  }
  if (!outcome.success) {
    out.status = outcome.latency_violation ? EvalStatus::kRejectedLatency
                                           : EvalStatus::kRejectedUnroutable;
    return;
  }
  out.status = EvalStatus::kRouted;
  if (rbound != nullptr) {
    // Record the LAST bound checkpoint of this evaluation: the router's
    // per-flow bounds when they were active, else the pre-routing floor
    // (the only checkpoint of a fallback-gated pass). The trajectory does
    // not depend on which front was consulted, so the merge stage can
    // re-check these values against the enumeration-ordered front and
    // decide exactly what a sequential run would have decided.
    out.pruned_power_lb_w =
        outcome.bound_checked ? outcome.pruned_power_lb_w : rbound->base_power_lb_w;
    out.pruned_latency_lb_cycles =
        outcome.bound_checked ? outcome.pruned_latency_lb_cycles : base_avg_lat;
  }
  // The router may leave some offered intermediate switches unused; drop
  // them so designs deduplicate cleanly across k_int values (several k_int
  // can collapse onto the same effective design).
  out.point.intermediate_switches =
      compact_unused_intermediate(out.point.topology);
  out.signature = design_signature(out.point.topology);
  out.deadlock_free = !ctx.options.enforce_deadlock_freedom ||
                      is_deadlock_free(out.point.topology);
  if (!out.deadlock_free) return;  // merge rejects it; skip the metrics
  refine_intermediate_positions(out.point.topology, ctx.floorplan, ctx.spec,
                                scratch);
  OBS_SPAN("compute_metrics");
  const obs::PhaseScope obs_phase(obs::Phase::kMetrics);
  out.point.metrics =
      compute_metrics(out.point.topology, ctx.spec, ctx.options.tech,
                      ctx.options.link_width_bits,
                      scratch != nullptr ? &scratch->metrics : nullptr);
}

/// The forced-mode comparison of a whole-member skip against the full
/// evaluation: status, design signature, deadlock verdict and metrics.
bool same_routed_outcome(const CandidateOutcome& a, const CandidateOutcome& b) {
  auto metrics = [](const Metrics& m) {
    return std::tie(m.noc_dynamic_w, m.switch_dynamic_w, m.link_dynamic_w,
                    m.ni_dynamic_w, m.fifo_dynamic_w, m.noc_leakage_w,
                    m.noc_area_mm2, m.avg_latency_cycles, m.max_latency_cycles,
                    m.total_wire_mm, m.switch_count, m.link_count, m.fifo_count,
                    m.max_switch_ports);
  };
  return a.status == b.status && a.signature == b.signature &&
         a.deadlock_free == b.deadlock_free &&
         metrics(a.point.metrics) == metrics(b.point.metrics);
}

}  // namespace

namespace detail {

IslandPartition partition_island_mincut(const soc::SocSpec& spec,
                                        const SynthesisOptions& opts,
                                        const VcgScaling& scaling,
                                        soc::IslandId island, int switch_count,
                                        int max_sw_size) {
  const auto cores = spec.cores_in_island(island);
  IslandPartition part;
  part.blocks.resize(static_cast<std::size_t>(switch_count));
  if (!cores.empty()) {
    const graph::Digraph vcg = build_vcg(spec, island, opts.alpha, scaling);
    partition::KwayOptions kopts;
    kopts.blocks = switch_count;
    const int max_size = max_sw_size - opts.port_reserve;
    kopts.max_block_size = static_cast<std::size_t>(std::max(max_size, 1));
    kopts.seed = opts.partition_seed;
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
  return part;
}

}  // namespace detail

PartitionTable::PartitionTable(std::vector<PartitionKey> keys)
    : keys_(std::move(keys)) {
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  slots_.resize(keys_.size());
}

const IslandPartition* PartitionTable::find(const PartitionKey& key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &slots_[static_cast<std::size_t>(it - keys_.begin())];
}

const IslandPartition& PartitionTable::at(const PartitionKey& key) const {
  const IslandPartition* p = find(key);
  if (p == nullptr) throw std::out_of_range("PartitionTable: unknown key");
  return *p;
}

std::vector<double> compute_core_traffic(const soc::SocSpec& spec) {
  std::vector<double> t(spec.cores.size(), 0.0);
  for (const soc::Flow& f : spec.flows) {
    t[static_cast<std::size_t>(f.src)] += f.bandwidth_bits_per_s;
    t[static_cast<std::size_t>(f.dst)] += f.bandwidth_bits_per_s;
  }
  return t;
}

double compute_ni_dynamic_base_w(const soc::SocSpec& spec,
                                 const models::Technology& tech) {
  const models::NiModel ni_model(tech);
  std::vector<double> in_bw(spec.cores.size(), 0.0);
  std::vector<double> out_bw(spec.cores.size(), 0.0);
  for (const soc::Flow& f : spec.flows) {
    out_bw[static_cast<std::size_t>(f.src)] += f.bandwidth_bits_per_s;
    in_bw[static_cast<std::size_t>(f.dst)] += f.bandwidth_bits_per_s;
  }
  double total = 0.0;
  for (std::size_t c = 0; c < spec.cores.size(); ++c) {
    total += ni_model.dynamic_power_w(in_bw[c] + out_bw[c]);
  }
  return total;
}

std::vector<CandidateConfig> enumerate_candidates(
    const soc::SocSpec& spec, const std::vector<IslandNocParams>& island_params,
    const SynthesisOptions& options) {
  const std::size_t n_islands = spec.islands.size();
  int max_cores_per_island = 0;
  for (const IslandNocParams& p : island_params) {
    max_cores_per_island = std::max(max_cores_per_island, p.core_count);
  }
  const bool use_intermediate =
      options.allow_intermediate_island && has_cross_island_flows(spec);
  const int max_int =
      !use_intermediate ? 0
      : options.max_intermediate_switches >= 0
          ? options.max_intermediate_switches
          : std::max(2, max_cores_per_island);

  std::vector<CandidateConfig> candidates;
  std::set<std::vector<int>> seen_configs;
  for (int i = 1; i <= std::max(max_cores_per_island, 1); ++i) {
    // Switch count per island for this iteration (documented deviation:
    // k = min(min_sw + (i-1), |Vj|) so the minimum design is explored).
    std::vector<int> sw_count(n_islands, 0);
    for (std::size_t isl = 0; isl < n_islands; ++isl) {
      const IslandNocParams& p = island_params[isl];
      if (p.core_count == 0) continue;
      sw_count[isl] = std::min(p.min_switches + (i - 1), p.core_count);
      sw_count[isl] = std::max(sw_count[isl], 1);
    }
    if (!seen_configs.insert(sw_count).second) continue;  // saturated

    for (int k_int = 0; k_int <= max_int; ++k_int) {
      CandidateConfig cand;
      cand.switches_per_island = sw_count;
      cand.intermediate_switches = k_int;
      candidates.push_back(std::move(cand));
    }
  }
  return candidates;
}

PartitionTable compute_partitions(
    const soc::SocSpec& spec, const SynthesisOptions& options,
    const std::vector<IslandNocParams>& island_params,
    const std::vector<CandidateConfig>& candidates, exec::ThreadPool& pool) {
  // Collect the distinct (island, switch count) pairs, then fan the
  // independent min-cut problems out over the pool; the flat table is fully
  // sized up front so the parallel fill never mutates its structure.
  std::vector<PartitionKey> keys;
  for (const CandidateConfig& cand : candidates) {
    for (std::size_t isl = 0; isl < cand.switches_per_island.size(); ++isl) {
      keys.emplace_back(static_cast<soc::IslandId>(isl),
                        cand.switches_per_island[isl]);
    }
  }
  PartitionTable table(std::move(keys));

  const VcgScaling scaling = vcg_scaling(spec);
  exec::parallel_for_each(pool, table.size(), [&](std::size_t i) {
    OBS_SPAN("partition_mincut");
    const obs::PhaseScope obs_phase(obs::Phase::kPartition);
    const PartitionKey& key = table.key(i);
    table.slot(i) = detail::partition_island_mincut(
        spec, options, scaling, key.first, key.second,
        island_params[static_cast<std::size_t>(key.first)].max_sw_size);
  });
  return table;
}

CandidateOutcome evaluate_candidate(const EvalContext& ctx,
                                    const CandidateConfig& cand,
                                    EvalScratch* scratch,
                                    const ParetoBound* bound,
                                    DeltaReference* delta_record,
                                    DeltaRouteState* delta) {
  // Chaos-test injection points (inert unless armed; see
  // vinoc/faultinject/faultinject.hpp): a seeded eval-time throw exercises
  // the campaign's retry/quarantine path, a seeded stall widens the
  // kill-window for the CI crash-resume test.
  if (faultinject::armed()) {
    faultinject::maybe_fail(faultinject::Site::kEval, "evaluate_candidate");
    faultinject::maybe_stall(faultinject::Site::kEvalStall);
  }
  if (delta != nullptr) delta->clear_outputs();  // even if pruned pre-routing
  CandidateOutcome out;
  out.point.switches_per_island = cand.switches_per_island;
  out.point.intermediate_switches = cand.intermediate_switches;

  std::vector<const IslandPartition*> parts(cand.switches_per_island.size());
  for (std::size_t isl = 0; isl < parts.size(); ++isl) {
    parts[isl] = &ctx.partitions.at(
        PartitionKey{static_cast<soc::IslandId>(isl), cand.switches_per_island[isl]});
  }
  build_switches(out.point.topology, ctx, parts, cand.intermediate_switches,
                 scratch);

  // Pareto-bound pruning: reject before routing when the pre-routing floor
  // is already dominated, otherwise hand the bound to the router for
  // per-flow checks (see RouteBound / route_all_flows for the soundness
  // restrictions around the fallback pass).
  RouteBound rbound;
  double base_avg_lat = 0.0;
  std::vector<double> local_min_lat;
  std::vector<double> local_bw_floor;
  std::vector<double> local_ebit_floor;
  if (bound != nullptr) {
    const obs::PhaseScope obs_phase(obs::Phase::kPrune);
    std::vector<double>& min_lat =
        scratch != nullptr ? scratch->min_flow_latency : local_min_lat;
    std::vector<double>& bw_floor =
        scratch != nullptr ? scratch->switch_bw_floor : local_bw_floor;
    std::vector<double>& ebit_floor =
        scratch != nullptr ? scratch->switch_ebit_floor : local_ebit_floor;
    const BaseBound base = compute_base_bound(
        ctx.spec, out.point.topology, ctx.options.tech, ctx.ni_dynamic_base_w,
        ctx.core_traffic, min_lat, bw_floor, ebit_floor);
    const double n_flows = static_cast<double>(ctx.spec.flows.size());
    base_avg_lat =
        ctx.spec.flows.empty() ? 0.0 : base.latency_sum_cycles / n_flows;
    if (bound->dominated(base.power_w, base_avg_lat)) {
      out.status = EvalStatus::kPruned;
      out.pruned_power_lb_w = base.power_w;
      out.pruned_latency_lb_cycles = base_avg_lat;
      return out;
    }
    rbound.front = bound;
    rbound.base_power_lb_w = base.power_w;
    rbound.base_latency_sum_cycles = base.latency_sum_cycles;
    rbound.min_flow_latency = &min_lat;
    rbound.switch_ebit_floor = &ebit_floor;
  }

  RouterOptions ropts;
  ropts.alpha_power = ctx.options.alpha_power;
  ropts.link_width_bits = ctx.options.link_width_bits;
  ropts.tech = ctx.options.tech;
  ropts.enforce_wire_timing = ctx.options.enforce_wire_timing;
  ropts.flow_order = ctx.flow_order;
  ropts.max_ports.resize(out.point.topology.switches.size());
  for (std::size_t s = 0; s < out.point.topology.switches.size(); ++s) {
    const soc::IslandId isl = out.point.topology.switches[s].island;
    ropts.max_ports[s] =
        isl == kIntermediateIsland
            ? ctx.intermediate_params.max_sw_size
            : ctx.island_params[static_cast<std::size_t>(isl)].max_sw_size;
  }

  // Whole-member skip: a member proven to replay every flow of its
  // reference routes, compacts and measures exactly like it, so its outcome
  // IS the reference's, except for its own pre-routing bound checkpoint
  // (the only one of its pass 1, which is fallback-gated because the
  // member has intermediate switches). Forced mode evaluates in full and
  // compares instead.
  std::shared_ptr<const CandidateOutcome> proven;
  if (delta != nullptr && delta->ref != nullptr &&
      delta->ref->outcome != nullptr && cand.intermediate_switches > 0 &&
      certify_delta_member(out.point.topology, ctx.spec, ropts, *delta)) {
    proven = delta->ref->outcome;
    if (!delta_cert_forced()) {
      CandidateOutcome skipped = *proven;
      skipped.pruned_power_lb_w = bound != nullptr ? rbound.base_power_lb_w : 0.0;
      skipped.pruned_latency_lb_cycles = bound != nullptr ? base_avg_lat : 0.0;
      return skipped;
    }
  }

  route_and_finish(ctx, out, ropts, scratch, bound != nullptr ? &rbound : nullptr,
                   base_avg_lat, delta_record, delta);
  if (proven != nullptr) {
    delta->member_skipped = true;
    if (!same_routed_outcome(out, *proven)) ++delta->cert_rejects;
  }
  if (delta_record != nullptr && cand.intermediate_switches == 0) {
    if (out.status == EvalStatus::kRouted) {
      delta_record->outcome = std::make_shared<const CandidateOutcome>(out);
    } else if (out.status == EvalStatus::kPruned) {
      // Pruned mid-routing: the record holds only a prefix. Finish an
      // unbounded routing with the record attached so the group's members
      // can replay (and skip) against the complete design; this
      // candidate's own outcome stays the pruned one.
      CandidateOutcome full;
      full.point.switches_per_island = cand.switches_per_island;
      build_switches(full.point.topology, ctx, parts, 0, scratch);
      route_and_finish(ctx, full, ropts, scratch, nullptr, 0.0, delta_record,
                       nullptr);
      if (full.status == EvalStatus::kRouted) {
        delta_record->outcome =
            std::make_shared<const CandidateOutcome>(std::move(full));
      }
    }
  }
  return out;
}

OutcomeMerger::OutcomeMerger(const SynthesisOptions& options, ReplayFn replay,
                             SynthesisResult& result)
    : options_(options), replay_(std::move(replay)), result_(result) {}

void OutcomeMerger::add(CandidateOutcome&& out) {
  const obs::PhaseScope obs_phase(obs::Phase::kMerge);
  // Merge — strictly in enumeration order (the caller feeds candidate
  // index_ here), so duplicate suppression, the stats counters and the
  // saved-point list are independent of how the evaluations were scheduled
  // (bit-identical to a sequential run).
  //
  // Every outcome evaluated with a bound carries the monotone lower bounds
  // of its LAST checkpoint (abort point when pruned, end of evaluation when
  // routed), and the bound trajectory does not depend on which front was
  // consulted. A concurrent snapshot can diverge from the sequential front
  // in both directions, and the merge reconciles both exactly:
  //
  //  * kPruned under a snapshot that was AHEAD (contains later-enumerated
  //    points): if the merge front does not dominate the recorded bounds,
  //    the sequential run would have kept evaluating — REPLAY against the
  //    merge front (deterministic mode). When it does dominate them,
  //    monotonicity guarantees the sequential run pruned too.
  //  * kRouted under a snapshot that was BEHIND (stale/empty): if the merge
  //    front dominates the recorded last-checkpoint bounds, the sequential
  //    run would have pruned at that checkpoint at the latest — count it
  //    pruned (no replay needed: a pruned candidate contributes nothing
  //    else). A sequential run never trips this (its snapshot dominance-
  //    equals the merge front), so it costs nothing when threads == 1.
  const std::size_t i = index_++;
  ++result_.stats.configs_explored;
  if (out.status == EvalStatus::kPruned && options_.deterministic_prune &&
      !merge_bound_.dominated(out.pruned_power_lb_w,
                              out.pruned_latency_lb_cycles)) {
    out = replay_(i, merge_bound_);
  }
  if (options_.prune && out.status == EvalStatus::kRouted &&
      merge_bound_.dominated(out.pruned_power_lb_w,
                             out.pruned_latency_lb_cycles)) {
    out.status = EvalStatus::kPruned;
  }
  if (out.status == EvalStatus::kPruned) {
    ++result_.stats.rejected_pruned;
    return;
  }
  if (out.status != EvalStatus::kRouted) {
    if (out.status == EvalStatus::kRejectedLatency) {
      ++result_.stats.rejected_latency;
    } else {
      ++result_.stats.rejected_unroutable;
    }
    return;
  }
  ++result_.stats.configs_routed;
  if (!seen_designs_.insert(std::move(out.signature)).second) {
    ++result_.stats.rejected_duplicate;
    return;
  }
  if (!out.deadlock_free) {
    ++result_.stats.rejected_deadlock;
    return;
  }
  ++result_.stats.configs_saved;
  if (options_.prune) {
    merge_bound_.insert(out.point.metrics.noc_dynamic_w,
                        out.point.metrics.avg_latency_cycles);
  }
  result_.points.push_back(std::move(out.point));
}

void OutcomeMerger::finish() {
  // Pareto front over (dynamic power, average latency), ascending power.
  std::vector<std::size_t> order(result_.points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  result_.pareto = pareto_front(std::move(order),
                                [this](std::size_t idx) -> const Metrics& {
                                  return result_.points[idx].metrics;
                                });
}

void merge_candidate_outcomes(
    std::vector<CandidateOutcome>&& outcomes, const SynthesisOptions& options,
    const std::function<CandidateOutcome(std::size_t, const ParetoBound&)>& replay,
    SynthesisResult& result) {
  OutcomeMerger merger(options, replay, result);
  for (CandidateOutcome& out : outcomes) merger.add(std::move(out));
  merger.finish();
}

}  // namespace vinoc::core
