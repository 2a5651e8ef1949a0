// Reference router: the seed's plain Algorithm 1 step 15, kept outside the
// engine as a test oracle (see README.md in this directory).
//
// Flows are routed in decreasing bandwidth order over least-cost paths by a
// dense O(S^2) Dijkstra per flow. The cost of traversing a (possibly
// not-yet-opened) link is
//   cost = alpha_power * dP / P_norm
//        + (1 - alpha_power) * edge_cycles / flow_latency_budget
// and admissibility follows the shutdown-safety rule: a flow from island A
// to island B may use switches of A, B and the intermediate NoC VI only,
// and cross-island links may only connect A->B, A->VI, VI->VI or VI->B.
#pragma once

#include <string>
#include <vector>

#include "vinoc/core/topology.hpp"
#include "vinoc/models/noc_models.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::reference {

struct RouterOptions {
  /// Weight of the power term vs. the latency term in the link cost.
  double alpha_power = 0.7;
  int link_width_bits = 32;
  models::Technology tech = models::Technology::cmos65nm();
  /// Maximum ports (max of in/out) per switch, indexed like topo.switches.
  std::vector<int> max_ports;
  /// Reject intra-island links whose wire delay exceeds one clock cycle at
  /// the island frequency (crossing links are absorbed by the bi-sync FIFO).
  bool enforce_wire_timing = true;
  /// Forbid direct island-to-island links, forcing all cross-island traffic
  /// through the intermediate NoC VI. route_all_flows() retries with this
  /// set when the greedy pass strands a flow.
  bool forbid_direct_cross = false;
};

struct RouteOutcome {
  bool success = false;
  std::string failure_reason;  ///< human-readable, empty on success
  int flows_routed = 0;
  /// The failure was a violated latency budget (as opposed to a structural
  /// one: no admissible path). After a failed retry it describes the
  /// greedy pass's failure, like failure_reason.
  bool latency_violation = false;
};

/// Routes every flow of `spec` over `topo`'s switches, opening links as
/// needed: a greedy pass, then — when it strands a flow and the topology
/// has intermediate switches — a retry from the pristine topology that
/// routes every cross-island flow through the intermediate VI. `topo` must
/// arrive with switches / switch_of_core / island frequencies / positions
/// filled and links/routes empty.
RouteOutcome route_all_flows(core::NocTopology& topo, const soc::SocSpec& spec,
                             const RouterOptions& options);

/// True if a link from an `a_isl` switch to a `b_isl` switch is admissible
/// for a flow from island `src_isl` to island `dst_isl`.
[[nodiscard]] bool link_admissible(soc::IslandId a_isl, soc::IslandId b_isl,
                                   soc::IslandId src_isl, soc::IslandId dst_isl);

}  // namespace vinoc::reference
