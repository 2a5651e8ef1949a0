// Synthesized NoC topology: switches, links, per-flow routes, placement.
//
// Conventions:
//  * Every core attaches to exactly one switch through its NI (paper §4:
//    "a core is connected to only one switch, through a NI").
//  * SwitchInst::island == kIntermediateIsland (-1) marks a switch in the
//    optional intermediate "NoC VI", which is never shut down.
//  * Links are unidirectional; a link whose endpoints sit in different
//    islands carries a bi-synchronous FIFO (voltage+frequency conversion)
//    and costs Technology::fifo_latency_cycles instead of one cycle.
//  * Zero-load latency of a route with S switches and C island crossings:
//      2 (NI<->switch links) + S * sw_pipeline + (S - 1 - C) * 1 + C * fifo
//    i.e. every hop link costs 1 cycle except crossings, which cost the
//    FIFO latency. This matches the paper's "4 cycle delay ... on the
//    voltage-frequency converters" accounting.
#pragma once

#include <string>
#include <vector>

#include "vinoc/floorplan/floorplan.hpp"
#include "vinoc/models/noc_models.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::core {

inline constexpr soc::IslandId kIntermediateIsland = -1;

struct SwitchInst {
  soc::IslandId island = 0;  ///< kIntermediateIsland for the NoC VI
  double freq_hz = 0.0;
  floorplan::Point pos;
  std::vector<soc::CoreId> cores;  ///< cores attached through NIs
};

struct TopLink {
  int src_switch = -1;
  int dst_switch = -1;
  bool crosses_island = false;  ///< bi-sync FIFO present
  double length_mm = 0.0;
  double carried_bw_bits_per_s = 0.0;
  std::vector<int> flows;  ///< indices into SocSpec::flows
};

struct FlowRoute {
  int src_switch = -1;
  int dst_switch = -1;
  /// Inter-switch links traversed, in order (empty if src == dst switch).
  std::vector<int> links;
  double latency_cycles = 0.0;
  int crossings = 0;  ///< island boundaries crossed
};

/// Aggregate quality metrics of one topology (NoC only; SoC-level
/// accounting lives in vinoc::power).
struct Metrics {
  double noc_dynamic_w = 0.0;  ///< switches + links + NIs + FIFOs
  // Breakdown of noc_dynamic_w (wires to/from NIs count as links):
  double switch_dynamic_w = 0.0;
  double link_dynamic_w = 0.0;
  double ni_dynamic_w = 0.0;
  double fifo_dynamic_w = 0.0;
  /// The metric of the paper's Figure 2: "switches, links and the
  /// synchronizers" (NI protocol-conversion logic excluded).
  [[nodiscard]] double paper_noc_dynamic_w() const {
    return switch_dynamic_w + link_dynamic_w + fifo_dynamic_w;
  }
  double noc_leakage_w = 0.0;
  double noc_area_mm2 = 0.0;
  double avg_latency_cycles = 0.0;  ///< zero-load, averaged over flows
  double max_latency_cycles = 0.0;
  double total_wire_mm = 0.0;  ///< inter-switch + NI attach wires
  int switch_count = 0;
  int link_count = 0;
  int fifo_count = 0;
  int max_switch_ports = 0;
};

struct NocTopology {
  std::vector<SwitchInst> switches;
  std::vector<int> switch_of_core;  ///< per core, index into switches
  std::vector<TopLink> links;
  std::vector<FlowRoute> routes;  ///< parallel to SocSpec::flows
  /// NoC clock per island; index island_count() holds the intermediate VI's.
  std::vector<double> island_freq_hz;
  double intermediate_freq_hz = 0.0;
  /// Wire length of each core's NI<->switch connection [mm].
  std::vector<double> ni_wire_mm;

  [[nodiscard]] int switch_ports_in(int sw) const;
  [[nodiscard]] int switch_ports_out(int sw) const;

  /// Aggregate bandwidth traversing a switch (all flows whose route visits
  /// it, including at the endpoints) [bits/s].
  [[nodiscard]] double switch_aggregate_bw(int sw, const soc::SocSpec& spec) const;

  /// Structural sanity: route endpoints match core attachment, link chains
  /// are contiguous, carried bandwidths equal the sum of routed flows,
  /// crossing flags match endpoint islands. Returns problems (empty = ok).
  [[nodiscard]] std::vector<std::string> validate(const soc::SocSpec& spec) const;
};

/// Evaluates power/area/latency of `topo` for `spec` under `tech`.
/// `link_width_bits` is the NoC data width (the paper fixes it as an input).
[[nodiscard]] Metrics compute_metrics(const NocTopology& topo,
                                      const soc::SocSpec& spec,
                                      const models::Technology& tech,
                                      int link_width_bits = 32);

/// Zero-load latency of one route under the header's accounting.
[[nodiscard]] double route_latency_cycles(const NocTopology& topo,
                                          const FlowRoute& route,
                                          const models::Technology& tech);

}  // namespace vinoc::core
