#include "routing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <queue>

namespace vinoc::reference {

using core::FlowRoute;
using core::kIntermediateIsland;
using core::NocTopology;
using core::SwitchInst;
using core::TopLink;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

soc::IslandId island_of_switch(const NocTopology& topo, int sw) {
  return topo.switches[static_cast<std::size_t>(sw)].island;
}

double switch_freq(const NocTopology& topo, int sw) {
  return topo.switches[static_cast<std::size_t>(sw)].freq_hz;
}

}  // namespace

bool link_admissible(soc::IslandId a_isl, soc::IslandId b_isl,
                     soc::IslandId src_isl, soc::IslandId dst_isl) {
  if (src_isl == dst_isl) {
    // Intra-island flow: never leaves its island.
    return a_isl == src_isl && b_isl == src_isl;
  }
  if (a_isl == b_isl) {
    // Intra-island hop inside the source island, the destination island or
    // the intermediate NoC VI.
    return a_isl == src_isl || a_isl == dst_isl || a_isl == kIntermediateIsland;
  }
  // Cross-island hop: direct source->destination, or via the intermediate.
  if (a_isl == src_isl && b_isl == dst_isl) return true;
  if (a_isl == src_isl && b_isl == kIntermediateIsland) return true;
  if (a_isl == kIntermediateIsland && b_isl == dst_isl) return true;
  return false;
}

namespace {

/// Mutable routing state over a topology under construction.
class Router {
 public:
  Router(NocTopology& topo, const soc::SocSpec& spec, const RouterOptions& opts)
      : topo_(topo), spec_(spec), opts_(opts),
        sw_model_(opts.tech), link_model_(opts.tech), fifo_model_(opts.tech) {
    const std::size_t n_sw = topo_.switches.size();
    ports_in_.resize(n_sw);
    ports_out_.resize(n_sw);
    for (std::size_t s = 0; s < n_sw; ++s) {
      ports_in_[s] = static_cast<int>(topo_.switches[s].cores.size());
      ports_out_[s] = ports_in_[s];
    }
    // Power normalizer: opening a "typical" link (quarter-chip wire at the
    // design's peak flow bandwidth, with a FIFO).
    double max_bw = 0.0;
    double max_span = 0.0;
    for (const soc::Flow& f : spec_.flows) {
      max_bw = std::max(max_bw, f.bandwidth_bits_per_s);
    }
    for (const SwitchInst& s : topo_.switches) {
      max_span = std::max({max_span, s.pos.x_mm, s.pos.y_mm});
    }
    const double ref_len = std::max(0.5, max_span / 2.0);
    p_norm_ = link_model_.dynamic_power_w(ref_len, std::max(max_bw, 1.0)) +
              fifo_model_.dynamic_power_w(std::max(max_bw, 1.0));
    if (p_norm_ <= 0.0) p_norm_ = 1e-3;
  }

  RouteOutcome run() {
    topo_.routes.assign(spec_.flows.size(), FlowRoute{});

    // Bandwidth-descending flow order (step 15: "Choose flows in bandwidth
    // order"); ties broken by index for determinism.
    std::vector<std::size_t> order(spec_.flows.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return spec_.flows[a].bandwidth_bits_per_s > spec_.flows[b].bandwidth_bits_per_s;
    });

    RouteOutcome outcome;
    for (const std::size_t f : order) {
      if (!route_flow(f, outcome)) return outcome;
      ++outcome.flows_routed;
    }
    outcome.success = true;
    return outcome;
  }

 private:
  struct EdgeChoice {
    int link_id = -1;  ///< -1 = would open a new link
    double cost = kInf;
    double latency_cycles = 0.0;
  };

  bool crossing(int a, int b) const {
    return island_of_switch(topo_, a) != island_of_switch(topo_, b);
  }

  double link_capacity(int a, int b) const {
    const double f = std::min(switch_freq(topo_, a), switch_freq(topo_, b));
    return static_cast<double>(opts_.link_width_bits) * f;
  }

  double hop_length_mm(int a, int b) const {
    return floorplan::manhattan_mm(topo_.switches[static_cast<std::size_t>(a)].pos,
                                   topo_.switches[static_cast<std::size_t>(b)].pos);
  }

  double hop_latency_cycles(int a, int b) const {
    const double link_cycles =
        crossing(a, b) ? static_cast<double>(opts_.tech.fifo_latency_cycles) : 1.0;
    return link_cycles + opts_.tech.sw_pipeline_cycles;
  }

  /// Marginal power of pushing `bw` over the hop a->b, plus (for new links)
  /// the static cost of opening it.
  double hop_power_w(int a, int b, double bw, bool opening) const {
    const double len = hop_length_mm(a, b);
    double p = link_model_.dynamic_power_w(len, bw);
    // Crossbar traversal energy in the downstream switch.
    const int ports_b = std::max(ports_in_[static_cast<std::size_t>(b)],
                                 ports_out_[static_cast<std::size_t>(b)]);
    p += sw_model_.dynamic_power_w(ports_b, ports_b, 0.0, bw);
    if (crossing(a, b)) p += fifo_model_.dynamic_power_w(bw);
    if (opening) {
      // New ports clock on both sides; wires and (if crossing) a FIFO leak.
      p += opts_.tech.sw_idle_power_per_port_w_per_hz *
           (switch_freq(topo_, a) + switch_freq(topo_, b));
      p += link_model_.leakage_w(len, opts_.link_width_bits);
      if (crossing(a, b)) p += fifo_model_.leakage_w();
    }
    return p;
  }

  /// Best admissible way to go a->b for this flow, or cost = +inf.
  EdgeChoice edge_choice(int a, int b, const soc::Flow& flow) const {
    EdgeChoice choice;
    const soc::IslandId src_isl =
        spec_.cores[static_cast<std::size_t>(flow.src)].island;
    const soc::IslandId dst_isl =
        spec_.cores[static_cast<std::size_t>(flow.dst)].island;
    const soc::IslandId a_isl = island_of_switch(topo_, a);
    const soc::IslandId b_isl = island_of_switch(topo_, b);
    if (!link_admissible(a_isl, b_isl, src_isl, dst_isl)) {
      return choice;
    }
    if (opts_.forbid_direct_cross && a_isl != b_isl &&
        a_isl != kIntermediateIsland && b_isl != kIntermediateIsland) {
      return choice;
    }
    choice.latency_cycles = hop_latency_cycles(a, b);
    const double lat_term = choice.latency_cycles / flow.max_latency_cycles;
    const double bw = flow.bandwidth_bits_per_s;

    // Reusing an existing link is preferred when it has residual capacity.
    const auto it = link_index_.find({a, b});
    if (it != link_index_.end()) {
      const TopLink& l = topo_.links[static_cast<std::size_t>(it->second)];
      if (l.carried_bw_bits_per_s + bw <= link_capacity(a, b) + 1e-6) {
        const double p = hop_power_w(a, b, bw, /*opening=*/false);
        choice.link_id = it->second;
        choice.cost = opts_.alpha_power * p / p_norm_ +
                      (1.0 - opts_.alpha_power) * lat_term;
        return choice;
      }
      // Saturated: fall through and consider opening a parallel link.
    }

    // Opening a new link requires a free out port on a and in port on b.
    const auto as = static_cast<std::size_t>(a);
    const auto bs = static_cast<std::size_t>(b);
    if (ports_out_[as] + 1 > opts_.max_ports[as]) return choice;
    if (ports_in_[bs] + 1 > opts_.max_ports[bs]) return choice;
    if (bw > link_capacity(a, b) + 1e-6) return choice;
    if (opts_.enforce_wire_timing && !crossing(a, b)) {
      const double max_len =
          link_model_.max_unpipelined_length_mm(switch_freq(topo_, a));
      if (hop_length_mm(a, b) > max_len) return choice;
    }
    const double p = hop_power_w(a, b, bw, /*opening=*/true);
    choice.link_id = -1;
    choice.cost =
        opts_.alpha_power * p / p_norm_ + (1.0 - opts_.alpha_power) * lat_term;
    return choice;
  }

  bool route_flow(std::size_t flow_idx, RouteOutcome& outcome) {
    const soc::Flow& flow = spec_.flows[flow_idx];
    const int s_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.src)];
    const int d_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.dst)];
    FlowRoute& route = topo_.routes[flow_idx];
    route.src_switch = s_sw;
    route.dst_switch = d_sw;
    if (s_sw == d_sw) {
      route.latency_cycles = core::route_latency_cycles(topo_, route, opts_.tech);
      return true;
    }

    // Dijkstra over switches; the switch count is small (tens), so the
    // dense O(S^2) scan per extraction is fine and allocation-free.
    const std::size_t n = topo_.switches.size();
    std::vector<double> dist(n, kInf);
    std::vector<int> pred(n, -1);
    std::vector<EdgeChoice> pred_choice(n);
    std::vector<bool> done(n, false);
    dist[static_cast<std::size_t>(s_sw)] = 0.0;
    for (std::size_t iter = 0; iter < n; ++iter) {
      int u = -1;
      double best = kInf;
      for (std::size_t v = 0; v < n; ++v) {
        if (!done[v] && dist[v] < best) {
          best = dist[v];
          u = static_cast<int>(v);
        }
      }
      if (u < 0) break;
      done[static_cast<std::size_t>(u)] = true;
      if (u == d_sw) break;
      for (std::size_t v = 0; v < n; ++v) {
        if (done[v] || static_cast<int>(v) == u) continue;
        const EdgeChoice ec = edge_choice(u, static_cast<int>(v), flow);
        if (!std::isfinite(ec.cost)) continue;
        if (dist[static_cast<std::size_t>(u)] + ec.cost < dist[v]) {
          dist[v] = dist[static_cast<std::size_t>(u)] + ec.cost;
          pred[v] = u;
          pred_choice[v] = ec;
        }
      }
    }
    if (!std::isfinite(dist[static_cast<std::size_t>(d_sw)])) {
      outcome.failure_reason =
          "no admissible path for flow '" + flow.label + "'";
      return false;
    }

    // Materialize the path, opening links as needed.
    std::vector<int> rev_nodes;
    for (int v = d_sw; v != s_sw; v = pred[static_cast<std::size_t>(v)]) {
      rev_nodes.push_back(v);
    }
    std::reverse(rev_nodes.begin(), rev_nodes.end());
    int prev = s_sw;
    for (const int v : rev_nodes) {
      // Re-evaluate: an earlier hop of this same path may have opened a link
      // or consumed ports, but hops of one shortest path touch distinct
      // switches, so the cached choice stays valid; still, resolve by key.
      int link_id = pred_choice[static_cast<std::size_t>(v)].link_id;
      if (link_id < 0) {
        link_id = open_link(prev, v);
      }
      TopLink& l = topo_.links[static_cast<std::size_t>(link_id)];
      l.carried_bw_bits_per_s += flow.bandwidth_bits_per_s;
      l.flows.push_back(static_cast<int>(flow_idx));
      route.links.push_back(link_id);
      prev = v;
    }
    route.crossings = 0;
    for (const int l : route.links) {
      if (topo_.links[static_cast<std::size_t>(l)].crosses_island) ++route.crossings;
    }
    route.latency_cycles = core::route_latency_cycles(topo_, route, opts_.tech);
    if (route.latency_cycles > flow.max_latency_cycles + 1e-9) {
      outcome.failure_reason = "latency violated for flow '" + flow.label +
                               "' (" + std::to_string(route.latency_cycles) +
                               " > " + std::to_string(flow.max_latency_cycles) + ")";
      outcome.latency_violation = true;
      return false;
    }
    return true;
  }

  int open_link(int a, int b) {
    TopLink l;
    l.src_switch = a;
    l.dst_switch = b;
    l.crosses_island = crossing(a, b);
    l.length_mm = hop_length_mm(a, b);
    const int id = static_cast<int>(topo_.links.size());
    topo_.links.push_back(std::move(l));
    link_index_[{a, b}] = id;
    ++ports_out_[static_cast<std::size_t>(a)];
    ++ports_in_[static_cast<std::size_t>(b)];
    return id;
  }

  NocTopology& topo_;
  const soc::SocSpec& spec_;
  const RouterOptions& opts_;
  models::SwitchModel sw_model_;
  models::LinkModel link_model_;
  models::BisyncFifoModel fifo_model_;
  std::vector<int> ports_in_;
  std::vector<int> ports_out_;
  std::map<std::pair<int, int>, int> link_index_;
  double p_norm_ = 1.0;
};

}  // namespace

RouteOutcome route_all_flows(NocTopology& topo, const soc::SocSpec& spec,
                             const RouterOptions& options) {
  if (options.max_ports.size() != topo.switches.size()) {
    RouteOutcome out;
    out.failure_reason = "RouterOptions::max_ports size mismatch";
    return out;
  }
  const NocTopology clean = topo;  // pristine copy for the fallback pass
  RouteOutcome first;
  {
    Router router(topo, spec, options);
    first = router.run();
    if (first.success || options.forbid_direct_cross) return first;
  }
  // Greedy pass stranded a flow. If an intermediate switch exists, retry
  // with all cross-island traffic concentrated through the NoC VI (far
  // fewer ports consumed on the island switches).
  bool has_intermediate = false;
  for (const SwitchInst& s : clean.switches) {
    if (s.island == kIntermediateIsland) has_intermediate = true;
  }
  if (!has_intermediate) {
    topo = clean;  // leave a consistent (unrouted) topology behind
    return first;
  }
  topo = clean;
  RouterOptions retry = options;
  retry.forbid_direct_cross = true;
  Router router(topo, spec, retry);
  RouteOutcome second = router.run();
  if (!second.success) {
    // Report the greedy pass's diagnosis; it is usually more informative.
    second.failure_reason = first.failure_reason;
    second.latency_violation = first.latency_violation;
  }
  return second;
}

}  // namespace vinoc::reference
