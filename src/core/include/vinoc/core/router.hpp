// Flow routing with link opening (step 15 of the paper's Algorithm 1).
//
// Flows are routed in decreasing bandwidth order over least-cost paths. The
// cost of traversing a (possibly not-yet-opened) link is a linear
// combination of the power increase of opening/reusing the link and the
// flow's latency budget:
//   cost = alpha_power * dP / P_norm
//        + (1 - alpha_power) * edge_cycles / flow_latency_budget
//
// Shutdown safety is enforced structurally: for a flow src-island A ->
// dst-island B, only switches in A, B and the intermediate NoC VI are
// admissible, and cross-island links may only connect A->B, A->intermediate,
// intermediate->intermediate, or intermediate->B ("the links are either
// established directly across the switches in the source and destination
// VIs or to the switches in the intermediate NoC island"). Intra-island
// flows stay entirely inside their island.
//
// Hot path: route_all_flows() sits inside the candidate-evaluation loop of
// the sweep, so it takes an optional RouterScratch (preallocated Dijkstra
// state, flat link-lookup matrix, port counters, fallback topology buffer —
// reset, not reallocated, between candidates) and an optional RouteBound
// (monotone lower bounds on the final metrics checked against the current
// Pareto front after every routed flow; see vinoc/core/prune.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "vinoc/core/topology.hpp"
#include "vinoc/models/noc_models.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::core {

class ParetoBound;
struct CandidateOutcome;  // vinoc/core/candidates.hpp

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
  /// through the intermediate NoC VI. Normally false; route_all_flows()
  /// retries with this set when the greedy pass strands a flow on port
  /// exhaustion (the paper's stated reason for the intermediate island:
  /// "By using switches in an intermediate NoC island, the number of
  /// switch-to-switch links can be reduced").
  bool forbid_direct_cross = false;
  /// Precomputed bandwidth_descending_order(spec) (the routing order). The
  /// order depends only on the spec, so sweep callers compute it once
  /// instead of re-sorting per candidate. nullptr = the router sorts
  /// internally (same result).
  const std::vector<std::size_t>* flow_order = nullptr;
};

/// The flow order every routing pass follows: bandwidth descending, ties
/// broken by index (step 15: "Choose flows in bandwidth order"). The single
/// definition shared by the router's internal fallback and every caller
/// that precomputes RouterOptions::flow_order.
[[nodiscard]] std::vector<std::size_t> bandwidth_descending_order(
    const soc::SocSpec& spec);

/// Width-invariant routing geometry of one candidate topology: the hop
/// length matrix plus, per (source-island, destination-island) flow class,
/// the CSR of admissible hops (target switch, length, crossing flags) every
/// Dijkstra of that class walks. Switch positions and the shutdown-safety
/// admissibility rule depend on neither the link width nor the island
/// frequencies, so ONE geometry serves every width of a sweep and both
/// routing passes of route_all_flows — it is reset once per candidate and
/// its classes are built lazily on first use.
struct RoutingGeometry {
  /// One contiguous range [lo, hi) of admissible target switches of one
  /// source switch, all in the same island — so the relaxation loop streams
  /// over dense dist / link / floor rows with one crossing flag per run.
  struct HopRun {
    int lo = 0;
    int hi = 0;
    unsigned char crossing = 0;
    /// Direct island-to-island run; the intermediate-retry pass skips these
    /// runs instead of rebuilding the class.
    unsigned char direct_cross = 0;
  };
  struct FlowClass {
    bool built = false;
    std::vector<int> run_begin;  ///< per switch id, runs[run_begin[u]..run_begin[u+1])
    std::vector<HopRun> runs;
  };
  std::size_t n = 0;
  std::size_t n_islands = 0;
  std::vector<double> hop_len;   ///< n x n flat matrix of Manhattan lengths
  /// fl(link_leakage_coeff * hop_len): width-invariant part of the
  /// opening-cost floor (see router.cpp), n x n.
  std::vector<double> leak_len;
  std::vector<FlowClass> classes;  ///< (n_islands + 1)^2 slots, lazily built
};

/// Reusable routing state. Buffers grow to the high-water mark of the
/// topologies routed through them and are reset — not reallocated — per
/// call; one instance per worker strand (see exec::WorkerLocal).
struct RouterScratch {
  std::vector<std::size_t> flow_order;  ///< used when options.flow_order == nullptr
  std::vector<double> dist;
  std::vector<int> pred;
  std::vector<int> pred_link;
  std::vector<int> path;
  std::vector<int> link_at;  ///< n x n flat matrix: link id or -1
  std::vector<double> max_wire_len;  ///< per-switch one-cycle wire length cap
  std::vector<int> ports_in;
  std::vector<int> ports_out;
  std::vector<int> island_of;        ///< per-switch island (flat; SwitchInst is cold)
  std::vector<double> freq_of;       ///< per-switch frequency (flat)
  std::vector<double> ebit_of;       ///< per-switch crossbar energy/bit at current ports
  /// Lazy (dist, index) min-heap of the per-flow Dijkstra; pops reproduce
  /// the dense scan's lowest-dist-then-lowest-index extraction exactly.
  std::vector<std::pair<double, int>> heap;
  /// Per-candidate routing geometry, reset by route_all_flows and shared by
  /// both passes.
  RoutingGeometry geometry;
  /// Geometry reuse across route_all_flows calls of the SAME candidate
  /// topology (e.g. one candidate evaluated at several widths): callers that
  /// guarantee unchanged switch positions/islands set geometry_token to a
  /// fresh non-zero value per candidate; the geometry is rebuilt only when
  /// the token changes. 0 (default) always rebuilds.
  std::uint64_t geometry_token = 0;
  std::uint64_t geometry_built_token = 0;
  std::uint64_t geometry_token_counter = 0;  ///< for callers minting tokens
  NocTopology fallback;  ///< pristine pre-routing copy for the retry pass
};

/// One hop of a recorded reference route (see DeltaReference): the endpoint
/// switch ids plus whether the reference run OPENED a new link for it (as
/// opposed to reusing the pair's latest existing link). Island switch ids
/// are stable across the candidates of one enumeration group (identical
/// island partitions, built in identical order), which is what lets a
/// recorded hop be replayed on an adjacent candidate's topology.
struct DeltaHop {
  int src = -1;
  int dst = -1;
  unsigned char open = 0;
  friend bool operator==(const DeltaHop& a, const DeltaHop& b) {
    return a.src == b.src && a.dst == b.dst && a.open == b.open;
  }
};

/// The hop sequence of one routed flow, in path order. Empty when the
/// flow's endpoints share a switch (nothing to replay).
struct DeltaRouteRec {
  std::vector<DeltaHop> hops;
  /// The reference Dijkstra's exact distance of the destination switch —
  /// the input of the cross-island certificate (see route_all_flows). NaN
  /// (never certifies) unless the flow was routed live over a topology
  /// without intermediate switches.
  double dist = std::numeric_limits<double>::quiet_NaN();
};

/// Recording of a REFERENCE candidate's pass-1 routing, consumed by the
/// delta evaluation of the adjacent candidates in its enumeration group
/// (same per-island switch counts, different intermediate-switch counts).
/// `records` holds the routed prefix of the flow order — a reference that
/// failed or was pruned mid-routing still yields a usable prefix. `p_norm`
/// is the reference Router's power normalizer; it is the ONLY cross-
/// candidate coupling of intra-island routing decisions (see router.cpp),
/// so delta reuse is gated on the consumer's normalizer being bit-equal.
struct DeltaReference {
  std::vector<DeltaRouteRec> records;  ///< by routing-order position (prefix)
  double p_norm = 0.0;
  bool valid = false;  ///< pass-1 routing ran with recording attached
  /// The reference's finished routed evaluation, set by evaluate_candidate
  /// when a reference without intermediate switches routed every flow (a
  /// reference pruned mid-routing finishes an unbounded routing for it).
  /// A member proven to replay every flow (certify_delta_member) returns a
  /// copy instead of routing. Read-only once published.
  std::shared_ptr<const CandidateOutcome> outcome;
};

/// Per-evaluation state of a delta (route-reuse) routing run; see
/// route_all_flows. `ref` is the input; everything else is output counters
/// and router-managed scratch. The router classifies each flow: flows
/// whose islands are still IN SYNC with the reference's — intra-island
/// flows, and in pass 1 cross-island flows whose recorded distance the
/// cross-island certificate proves unbeaten by any path through the
/// intermediate VI — are replayed from the record (flows_reused; or, under
/// set_delta_cert_forced, re-derived by their own solo Dijkstra and
/// verified against it — flows_certified); everything else routes live
/// (flows_rerouted), and a live cross-island route whose hop sequence
/// differs from the record's taints the islands it touches, ending reuse
/// for them.
struct DeltaRouteState {
  const DeltaReference* ref = nullptr;
  /// Output: the consumer's power normalizer was bit-equal to the
  /// reference's, so replay was armed (always inspect before reading the
  /// counters as a reuse rate).
  bool pnorm_matched = false;
  /// Output: the whole member was proven identical to the reference before
  /// routing (certify_delta_member) — counted under forced mode too, where
  /// the skip is re-derived by a full evaluation instead of taken.
  bool member_skipped = false;
  int flows_reused = 0;     ///< replayed from the record, no Dijkstra
  int flows_certified = 0;  ///< forced-certificate mode: verified replays
  int flows_rerouted = 0;   ///< routed live (affected or tainted)
  int cert_rejects = 0;     ///< forced-certificate mismatches (expected 0)
  /// Router-managed scratch (reset per pass, buffers reused).
  std::vector<char> island_tainted;
  std::vector<DeltaHop> actual_hops;

  /// Zeroes every output field (not `ref` or the scratch).
  void clear_outputs() {
    pnorm_matched = false;
    member_skipped = false;
    flows_reused = 0;
    flows_certified = 0;
    flows_rerouted = 0;
    cert_rejects = 0;
  }
};

/// Cost-bound pruning input for one routing call (see vinoc/core/prune.hpp).
/// All bounds are monotone non-decreasing as routing proceeds and never
/// exceed the candidate's final metrics, so a `front` hit is a proof the
/// finished design would be dominated-or-equal (never on the Pareto front).
struct RouteBound {
  /// Dominance oracle; nullptr disables pruning.
  const ParetoBound* front = nullptr;
  /// Pre-routing lower bound on the final noc_dynamic_w (NI energy, NI wire
  /// energy, per-switch floor) — computed by the evaluation stage.
  double base_power_lb_w = 0.0;
  /// Sum over flows of each flow's minimum achievable latency [cycles].
  double base_latency_sum_cycles = 0.0;
  /// Per-flow minimum latencies (parallel to spec.flows); as a flow routes,
  /// its minimum is replaced by its exact latency in the running sum.
  const std::vector<double>* min_flow_latency = nullptr;
  /// Per-switch traffic-energy floor [W per bit/s]: the switch's energy per
  /// bit at its core-only port count. Added for pass-through visits the
  /// endpoint floor did not count (optional tightening).
  const std::vector<double>* switch_ebit_floor = nullptr;
};

struct RouteOutcome {
  bool success = false;
  std::string failure_reason;  ///< human-readable, empty on success
  int flows_routed = 0;
  /// Index (into spec.flows) of the flow on which routing failed: latency
  /// budget violated or no admissible path. -1 on success or pre-flight
  /// failures (e.g. max_ports size mismatch).
  int failed_flow = -1;
  /// True when the failure was a violated latency budget (as opposed to a
  /// structural one: no admissible path, ports, capacity). Structured
  /// counterpart of the prose in failure_reason — classify on this, never
  /// on the message text (flow labels appear inside it).
  bool latency_violation = false;
  /// True when routing was abandoned because the cost bound proved the
  /// candidate dominated (success is false; nothing else is meaningful
  /// except the lower bounds below).
  bool pruned = false;
  /// True when per-flow bound checks were active for the pass that produced
  /// this outcome; on SUCCESS the lower bounds below then hold the
  /// last-checkpoint values (the bound trajectory is independent of the
  /// front consulted, so a later re-check against a richer front decides
  /// exactly what a run against that front would have decided).
  bool bound_checked = false;
  double pruned_power_lb_w = 0.0;        ///< power bound at the last checkpoint
  double pruned_latency_lb_cycles = 0.0; ///< avg-latency bound at the last checkpoint
};

/// Routes every flow of `spec` over `topo`'s switches, opening links as
/// needed. `topo` must arrive with switches / switch_of_core / island
/// frequencies / positions filled and links/routes empty; on success they
/// are populated. On failure `topo` is left in an unspecified state.
///
/// `scratch` (optional) supplies reusable buffers; nullptr falls back to
/// call-local allocation with identical results. `bound` (optional) enables
/// Pareto-bound pruning; mid-routing checks are automatically restricted to
/// topologies where the intermediate-island fallback pass cannot change the
/// outcome (no intermediate switches, or already in the fallback pass), so
/// pruning never hides a design the unpruned path would have produced.
///
/// `record` (optional) attaches a pure OBSERVER to the greedy pass: the
/// reference candidate's routed hop sequences and power normalizer are
/// captured into it (routing results are unchanged). `delta` (optional)
/// replays such a recording on an ADJACENT candidate of the same
/// enumeration group: flows whose admissible structure is untouched by the
/// config diff reuse the recorded route without a Dijkstra — intra-island
/// flows while their island's incremental state is proven in sync with the
/// reference's, and (pass 1) cross-island flows between in-sync islands
/// while no link touches the intermediate VI, when the recorded distance
/// is strictly below a closed-form lower bound on every path through the
/// intermediate VI (see README). Affected flows route live. Results are
/// bit-identical to a run without `delta` — replay is sound exactly
/// because, per island, the router's state equals the reference's at the
/// same routing position until a diverging live route taints it.
RouteOutcome route_all_flows(NocTopology& topo, const soc::SocSpec& spec,
                             const RouterOptions& options,
                             RouterScratch* scratch = nullptr,
                             const RouteBound* bound = nullptr,
                             DeltaReference* record = nullptr,
                             DeltaRouteState* delta = nullptr);

/// Whole-member certificate of delta evaluation, checked BEFORE routing:
/// true when `delta.ref` recorded every flow of a fully routed pass 1, the
/// power normalizers are bit-equal and every cross-island flow passes the
/// cross-island certificate on `topo`'s unrouted geometry. The bound does
/// not depend on routing state, so by induction over the flow order
/// route_all_flows(topo, ..., &delta) would replay every flow and produce
/// the reference's routing exactly. On success the outputs of `delta` are
/// set as that replay would set them, plus member_skipped; on failure they
/// are left untouched.
[[nodiscard]] bool certify_delta_member(const NocTopology& topo,
                                        const soc::SocSpec& spec,
                                        const RouterOptions& options,
                                        DeltaRouteState& delta);

/// Runtime toggle for the router's 4-wide relaxation filter (see
/// vinoc/core/simd.hpp): results are bit-identical either way — the scalar
/// path is the reference the tests compare against. Returns the previous
/// value. No-op (always scalar) in builds without the vector path.
bool set_router_simd_enabled(bool enabled);
[[nodiscard]] bool router_simd_enabled();

/// Runtime toggle forcing the delta evaluator to VERIFY every would-be
/// replay with the flow's own full solo Dijkstra (the route-equivalence
/// certificate) instead of trusting the in-sync proof or the cross-island
/// bound: a reuse whose certified path differs from the record is rejected
/// — the islands taint and the certified path is used, so results stay
/// bit-identical either way. Every whole-member skip is likewise re-derived
/// by a full evaluation (evaluate_candidate) and compared; a mismatch also
/// counts as a reject and keeps the evaluated result. This trades away the
/// entire delta speedup for a runtime check of the soundness argument;
/// tests and the A/B harness flip it on. Returns the previous value.
bool set_delta_cert_forced(bool enabled);
[[nodiscard]] bool delta_cert_forced();

/// True if a link from switch `a` to switch `b` is admissible for a flow
/// going from island `src_isl` to island `dst_isl` under the shutdown-safety
/// rule. Exposed for tests and the safety verifier.
[[nodiscard]] bool link_admissible(soc::IslandId a_isl, soc::IslandId b_isl,
                                   soc::IslandId src_isl, soc::IslandId dst_isl);

}  // namespace vinoc::core
