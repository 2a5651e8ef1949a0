#include "vinoc/core/topology.hpp"

#include <algorithm>
#include <cmath>

namespace vinoc::core {

int NocTopology::switch_ports_in(int sw) const {
  int ports = static_cast<int>(switches.at(static_cast<std::size_t>(sw)).cores.size());
  for (const TopLink& l : links) {
    if (l.dst_switch == sw) ++ports;
  }
  return ports;
}

int NocTopology::switch_ports_out(int sw) const {
  int ports = static_cast<int>(switches.at(static_cast<std::size_t>(sw)).cores.size());
  for (const TopLink& l : links) {
    if (l.src_switch == sw) ++ports;
  }
  return ports;
}

double NocTopology::switch_aggregate_bw(int sw, const soc::SocSpec& spec) const {
  double bw = 0.0;
  for (std::size_t f = 0; f < routes.size(); ++f) {
    const FlowRoute& r = routes[f];
    bool visits = (r.src_switch == sw || r.dst_switch == sw);
    if (!visits) {
      for (const int l : r.links) {
        if (links[static_cast<std::size_t>(l)].dst_switch == sw) {
          visits = true;
          break;
        }
      }
    }
    if (visits) bw += spec.flows[f].bandwidth_bits_per_s;
  }
  return bw;
}

std::vector<std::string> NocTopology::validate(const soc::SocSpec& spec) const {
  std::vector<std::string> problems;
  auto complain = [&problems](std::string m) { problems.push_back(std::move(m)); };

  if (switch_of_core.size() != spec.cores.size()) {
    complain("switch_of_core size mismatch");
    return problems;
  }
  if (routes.size() != spec.flows.size()) {
    complain("routes size mismatch");
    return problems;
  }

  for (std::size_t c = 0; c < spec.cores.size(); ++c) {
    const int sw = switch_of_core[c];
    if (sw < 0 || static_cast<std::size_t>(sw) >= switches.size()) {
      complain("core '" + spec.cores[c].name + "' attached to invalid switch");
      continue;
    }
    const SwitchInst& s = switches[static_cast<std::size_t>(sw)];
    if (s.island != spec.cores[c].island) {
      complain("core '" + spec.cores[c].name +
               "' attached to a switch in a different island");
    }
    if (std::find(s.cores.begin(), s.cores.end(), static_cast<soc::CoreId>(c)) ==
        s.cores.end()) {
      complain("core '" + spec.cores[c].name + "' missing from its switch's core list");
    }
  }

  for (std::size_t l = 0; l < links.size(); ++l) {
    const TopLink& link = links[l];
    if (link.src_switch < 0 ||
        static_cast<std::size_t>(link.src_switch) >= switches.size() ||
        link.dst_switch < 0 ||
        static_cast<std::size_t>(link.dst_switch) >= switches.size()) {
      complain("link " + std::to_string(l) + " has invalid endpoints");
      continue;
    }
    const bool crossing =
        switches[static_cast<std::size_t>(link.src_switch)].island !=
        switches[static_cast<std::size_t>(link.dst_switch)].island;
    if (crossing != link.crosses_island) {
      complain("link " + std::to_string(l) + " crossing flag inconsistent");
    }
    double bw = 0.0;
    for (const int f : link.flows) {
      if (f < 0 || static_cast<std::size_t>(f) >= spec.flows.size()) {
        complain("link " + std::to_string(l) + " references invalid flow");
        continue;
      }
      bw += spec.flows[static_cast<std::size_t>(f)].bandwidth_bits_per_s;
    }
    if (std::abs(bw - link.carried_bw_bits_per_s) > 1.0) {
      complain("link " + std::to_string(l) + " carried bandwidth inconsistent");
    }
  }

  for (std::size_t f = 0; f < routes.size(); ++f) {
    const FlowRoute& r = routes[f];
    const soc::Flow& flow = spec.flows[f];
    const int s_sw = switch_of_core[static_cast<std::size_t>(flow.src)];
    const int d_sw = switch_of_core[static_cast<std::size_t>(flow.dst)];
    if (r.src_switch != s_sw || r.dst_switch != d_sw) {
      complain("flow " + std::to_string(f) + " route endpoints mismatch attachment");
    }
    int cur = r.src_switch;
    for (const int l : r.links) {
      if (l < 0 || static_cast<std::size_t>(l) >= links.size()) {
        complain("flow " + std::to_string(f) + " route references invalid link");
        cur = -2;
        break;
      }
      const TopLink& link = links[static_cast<std::size_t>(l)];
      if (link.src_switch != cur) {
        complain("flow " + std::to_string(f) + " route links not contiguous");
        cur = -2;
        break;
      }
      if (std::find(link.flows.begin(), link.flows.end(), static_cast<int>(f)) ==
          link.flows.end()) {
        complain("flow " + std::to_string(f) + " not registered on link " +
                 std::to_string(l));
      }
      cur = link.dst_switch;
    }
    if (cur >= 0 && cur != r.dst_switch) {
      complain("flow " + std::to_string(f) + " route does not end at dst switch");
    }
    if (r.links.empty() && s_sw != d_sw) {
      complain("flow " + std::to_string(f) + " empty route across switches");
    }
  }
  return problems;
}

double route_latency_cycles(const NocTopology& topo, const FlowRoute& route,
                            const models::Technology& tech) {
  // NI -> switch link + switch -> NI link.
  double lat = 2.0;
  const int hops = static_cast<int>(route.links.size());
  const int switches_on_path = hops + 1;
  lat += static_cast<double>(switches_on_path) * tech.sw_pipeline_cycles;
  for (const int l : route.links) {
    lat += topo.links[static_cast<std::size_t>(l)].crosses_island
               ? static_cast<double>(tech.fifo_latency_cycles)
               : 1.0;
  }
  return lat;
}

Metrics compute_metrics(const NocTopology& topo, const soc::SocSpec& spec,
                        const models::Technology& tech, int link_width_bits) {
  const models::SwitchModel sw_model(tech);
  const models::LinkModel link_model(tech);
  const models::NiModel ni_model(tech);
  const models::BisyncFifoModel fifo_model(tech);

  Metrics m;
  const std::size_t n_sw = topo.switches.size();
  m.switch_count = static_cast<int>(n_sw);
  m.link_count = static_cast<int>(topo.links.size());

  // Per-switch port counts and aggregate traffic in ONE pass over links and
  // flows (the naive per-switch scans are O(S*L) and O(S*F*path) — this used
  // to dominate the metrics cost). Per-switch bandwidth accumulates in flow
  // order, exactly like NocTopology::switch_aggregate_bw, so the floating-
  // point sums are bit-identical to the per-switch scan.
  std::vector<int> ports_in(n_sw, 0);
  std::vector<int> ports_out(n_sw, 0);
  std::vector<double> switch_bw(n_sw, 0.0);
  std::vector<int> visit_stamp(n_sw, -1);  // per switch, last flow that counted it
  for (std::size_t s = 0; s < n_sw; ++s) {
    ports_in[s] = static_cast<int>(topo.switches[s].cores.size());
    ports_out[s] = ports_in[s];
  }
  for (const TopLink& l : topo.links) {
    ++ports_out[static_cast<std::size_t>(l.src_switch)];
    ++ports_in[static_cast<std::size_t>(l.dst_switch)];
  }
  for (std::size_t f = 0; f < topo.routes.size(); ++f) {
    const FlowRoute& r = topo.routes[f];
    const double bw = spec.flows[f].bandwidth_bits_per_s;
    const int stamp = static_cast<int>(f);
    auto visit = [&](int s) {
      if (s < 0) return;  // unset endpoint on a hand-built topology
      if (visit_stamp[static_cast<std::size_t>(s)] != stamp) {
        visit_stamp[static_cast<std::size_t>(s)] = stamp;
        switch_bw[static_cast<std::size_t>(s)] += bw;
      }
    };
    visit(r.src_switch);
    visit(r.dst_switch);
    for (const int l : r.links) {
      visit(topo.links[static_cast<std::size_t>(l)].dst_switch);
    }
  }

  // Switches.
  for (std::size_t s = 0; s < n_sw; ++s) {
    const SwitchInst& sw = topo.switches[s];
    const int in = ports_in[s];
    const int out = ports_out[s];
    m.switch_dynamic_w += sw_model.dynamic_power_w(in, out, sw.freq_hz, switch_bw[s]);
    m.noc_leakage_w += sw_model.leakage_w(in, out);
    m.noc_area_mm2 += sw_model.area_um2(in, out) * 1e-6;
    m.max_switch_ports = std::max({m.max_switch_ports, in, out});
  }

  // NIs and NI wires (one NI per core; wire carries both directions).
  std::vector<double> core_in_bw(spec.cores.size(), 0.0);
  std::vector<double> core_out_bw(spec.cores.size(), 0.0);
  for (const soc::Flow& f : spec.flows) {
    core_out_bw[static_cast<std::size_t>(f.src)] += f.bandwidth_bits_per_s;
    core_in_bw[static_cast<std::size_t>(f.dst)] += f.bandwidth_bits_per_s;
  }
  for (std::size_t c = 0; c < spec.cores.size(); ++c) {
    const double agg = core_in_bw[c] + core_out_bw[c];
    m.ni_dynamic_w += ni_model.dynamic_power_w(agg);
    m.noc_leakage_w += ni_model.leakage_w();
    m.noc_area_mm2 += ni_model.area_um2() * 1e-6;
    const double wire = topo.ni_wire_mm.at(c);
    m.total_wire_mm += wire;
    m.link_dynamic_w += link_model.dynamic_power_w(wire, agg);
    m.noc_leakage_w += link_model.leakage_w(wire, link_width_bits);
  }

  // Inter-switch links (+ FIFOs on crossings).
  for (const TopLink& l : topo.links) {
    m.total_wire_mm += l.length_mm;
    m.link_dynamic_w += link_model.dynamic_power_w(l.length_mm, l.carried_bw_bits_per_s);
    m.noc_leakage_w += link_model.leakage_w(l.length_mm, link_width_bits);
    if (l.crosses_island) {
      ++m.fifo_count;
      m.fifo_dynamic_w += fifo_model.dynamic_power_w(l.carried_bw_bits_per_s);
      m.noc_leakage_w += fifo_model.leakage_w();
      m.noc_area_mm2 += fifo_model.area_um2() * 1e-6;
    }
  }
  m.noc_dynamic_w = m.switch_dynamic_w + m.link_dynamic_w + m.ni_dynamic_w +
                    m.fifo_dynamic_w;

  // Zero-load latency statistics.
  double sum_lat = 0.0;
  for (const FlowRoute& r : topo.routes) {
    const double lat = route_latency_cycles(topo, r, tech);
    sum_lat += lat;
    m.max_latency_cycles = std::max(m.max_latency_cycles, lat);
  }
  m.avg_latency_cycles =
      topo.routes.empty() ? 0.0 : sum_lat / static_cast<double>(topo.routes.size());
  return m;
}

}  // namespace vinoc::core
