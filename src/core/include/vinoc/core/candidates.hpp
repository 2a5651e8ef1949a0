// Stage boundary of the staged exploration engine.
//
// Algorithm 1 is a sweep: an outer loop over per-island switch counts, an
// inner loop over intermediate-VI switch counts (and, one level up in
// explore_link_widths(), a sweep over link widths). This header splits the
// sweep into two pure stages that communicate only through value types:
//
//   1. ENUMERATION — enumerate_candidates() walks the (outer x inner) index
//      space and emits the deduplicated CandidateConfig list, in the exact
//      order the classic sequential loop would visit it. Cheap, sequential.
//   2. EVALUATION — evaluate_candidate() turns one CandidateConfig into a
//      CandidateOutcome: look up the precomputed partitions, place switches,
//      route all flows, compact/refine the topology, compute metrics. It
//      reads only const shared state (EvalContext) and touches no globals,
//      so any number of candidates can be evaluated concurrently.
//
// Between the stages sits compute_partitions(): the per-(island, k) min-cut
// partitions every candidate needs, memoized so partitioning runs once per
// island/switch-count pair instead of once per inner-loop iteration.
//
// synthesize() then merges outcomes back IN ENUMERATION ORDER — duplicate
// suppression, stats counters and the saved-point list all follow candidate
// index — which is what makes the parallel run bit-identical to the
// sequential one.
//
// Hot path: evaluation takes an optional per-worker EvalScratch (buffers
// reset, not reallocated, between candidates; see exec::WorkerLocal) and an
// optional ParetoBound for cost-bound pruning (see vinoc/core/prune.hpp) —
// a candidate whose monotone power/latency lower bounds are dominated by
// the current front is abandoned before routing/metrics complete.
#pragma once

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "vinoc/core/prune.hpp"
#include "vinoc/core/router.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/exec/worker_local.hpp"

namespace vinoc::exec {
class ThreadPool;
}  // namespace vinoc::exec

namespace vinoc::core {

class ParetoBound;

/// One point of the sweep's index space, produced by the enumeration stage.
/// `intermediate_switches` is the k_int OFFERED to the router; the router
/// may use fewer (the evaluation stage compacts unused ones away).
struct CandidateConfig {
  std::vector<int> switches_per_island;
  int intermediate_switches = 0;
};

/// Enumerates the (outer x inner) sweep for `spec`: outer iterations i with
/// per-island switch counts k_j = min(min_sw_j + (i-1), |V_j|) (documented
/// deviation, see synthesis.hpp), deduplicated once every island saturates;
/// inner iterations k_int = 0..max_int. Pure; order matches the classic
/// sequential loop.
[[nodiscard]] std::vector<CandidateConfig> enumerate_candidates(
    const soc::SocSpec& spec, const std::vector<IslandNocParams>& island_params,
    const SynthesisOptions& options);

/// Cores-per-switch assignment of one island for a given switch count.
struct IslandPartition {
  std::vector<std::vector<soc::CoreId>> blocks;  ///< cores per switch
};

using PartitionKey = std::pair<soc::IslandId, int>;

/// (island, switch count) -> partition, computed once per distinct pair.
/// Flat sorted-vector container: the table sits on the evaluation hot path
/// (one lookup per island per candidate), is built once and read many
/// times, so lookups are a binary search over a dense key vector instead of
/// std::map node chasing. Keys and payloads live in parallel vectors; the
/// search never touches the (cold) partition blocks.
class PartitionTable {
 public:
  PartitionTable() = default;
  /// Creates one default-constructed slot per distinct key (the keys are
  /// sorted and deduplicated here; fill the slots via slot()).
  explicit PartitionTable(std::vector<PartitionKey> keys);

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] const PartitionKey& key(std::size_t i) const { return keys_[i]; }
  [[nodiscard]] IslandPartition& slot(std::size_t i) { return slots_[i]; }
  [[nodiscard]] const IslandPartition& slot(std::size_t i) const {
    return slots_[i];
  }
  /// nullptr when absent.
  [[nodiscard]] const IslandPartition* find(const PartitionKey& key) const;
  /// Throws std::out_of_range when absent (mirrors std::map::at).
  [[nodiscard]] const IslandPartition& at(const PartitionKey& key) const;

 private:
  std::vector<PartitionKey> keys_;      ///< sorted ascending, unique
  std::vector<IslandPartition> slots_;  ///< parallel to keys_
};

/// Runs the min-cut partitioner once for every distinct (island, switch
/// count) pair referenced by `candidates`, fanning the independent min-cut
/// problems out over `pool`. The returned table is immutable afterwards and
/// safely shared by concurrent evaluations.
[[nodiscard]] PartitionTable compute_partitions(
    const soc::SocSpec& spec, const SynthesisOptions& options,
    const std::vector<IslandNocParams>& island_params,
    const std::vector<CandidateConfig>& candidates, exec::ThreadPool& pool);

/// Everything the evaluation stage reads. All referenced objects are owned
/// by the caller, fully built before evaluation starts, and never mutated
/// while evaluations run — evaluate_candidate() is thread-safe by
/// construction.
struct EvalContext {
  const soc::SocSpec& spec;
  const floorplan::Floorplan& floorplan;
  const std::vector<IslandNocParams>& island_params;
  const IslandNocParams& intermediate_params;
  const PartitionTable& partitions;
  const std::vector<double>& core_traffic;  ///< per-core aggregate bandwidth
  const SynthesisOptions& options;
  /// Bandwidth-descending flow order shared by every candidate; the router
  /// re-sorts internally (same result) when null.
  const std::vector<std::size_t>* flow_order = nullptr;
  /// Spec-only floor of the power bound: Σ per-core NI dynamic power. Only
  /// read when a ParetoBound is supplied; 0 is a valid (weaker) floor.
  double ni_dynamic_base_w = 0.0;
};

enum class EvalStatus {
  kRouted,              ///< all flows routed within budget; point is valid
  kRejectedLatency,     ///< router failed on a latency budget
  kRejectedUnroutable,  ///< router failed structurally (ports/admissibility)
  kPruned,              ///< abandoned: lower bounds dominated by the front
};

/// Result of evaluating one candidate. `point`, `signature` and
/// `deadlock_free` are meaningful only when status == kRouted. When a
/// bound was supplied, the `pruned_*` lower bounds are filled for BOTH
/// kPruned (values at the abort checkpoint) and kRouted (values at the
/// last checkpoint of the evaluation) — the merge stage re-checks them
/// against the enumeration-ordered front to keep pruned runs bit-identical
/// to sequential ones for any thread count (see synthesis.cpp).
struct CandidateOutcome {
  EvalStatus status = EvalStatus::kRejectedUnroutable;
  DesignPoint point;
  /// Structural design signature for order-dependent deduplication, which
  /// therefore happens in the index-ordered merge, not here.
  std::vector<int> signature;
  bool deadlock_free = true;
  double pruned_power_lb_w = 0.0;
  double pruned_latency_lb_cycles = 0.0;
};

/// Per-worker scratch arena for the evaluation stage: router state, metrics
/// accumulators, placement/compaction buffers and the pruning-bound
/// vectors. Buffers are reset (assign/clear), never shrunk, so a sweep of
/// thousands of candidates allocates O(1) times per worker. Obtain one per
/// strand via EvalScratchPool; a null scratch falls back to call-local
/// allocation with identical results.
struct EvalScratch {
  RouterScratch router;
  MetricsScratch metrics;
  std::vector<floorplan::Point> centroid_pts;
  std::vector<double> centroid_wts;
  std::vector<double> min_flow_latency;   ///< per-flow latency floor
  std::vector<double> switch_bw_floor;    ///< per-switch endpoint traffic
  std::vector<double> switch_ebit_floor;  ///< per-switch energy/bit floor
  /// Delta-evaluation replay state (taint vector, hop-comparison buffer,
  /// per-candidate counters); the caller points its `ref` at the group's
  /// published DeltaReference before each delta evaluation.
  DeltaRouteState delta;
};

/// Thread-keyed pool of EvalScratch arenas (exec::WorkerLocal). One slot
/// per strand, created lazily, reused across candidates, synthesize() runs
/// and — when the pool outlives them — campaign jobs.
class EvalScratchPool {
 public:
  [[nodiscard]] EvalScratch& local() { return slots_.local(); }
  [[nodiscard]] std::size_t slot_count() const { return slots_.slot_count(); }

 private:
  exec::WorkerLocal<EvalScratch> slots_;
};

/// Evaluation stage for one candidate: build switches from the partition
/// table, route all flows, compact unused intermediate switches, check
/// deadlock freedom, refine intermediate positions and compute metrics.
/// Pure w.r.t. `ctx` (const access only); deterministic per candidate.
///
/// `scratch` reuses the worker's buffers (optional). `bound` enables
/// Pareto-bound pruning: the candidate is abandoned (status kPruned) as
/// soon as its monotone power/latency lower bounds are dominated by the
/// front — before routing when the pre-routing floor already is, or after
/// any routed flow otherwise (restricted to topologies where the
/// intermediate-island fallback cannot change the outcome; see router.hpp).
///
/// `delta_record` / `delta` opt into the candidate-level delta evaluator
/// (see route_all_flows): a group REFERENCE evaluation records its routed
/// hop sequences into `delta_record` (pure observation) and, when it has no
/// intermediate switches and routes every flow, publishes its outcome there
/// too — a reference pruned mid-routing finishes an unbounded routing for
/// that, while still returning its pruned outcome. An adjacent MEMBER
/// evaluation replays the records via `delta`, re-routing only the flows
/// the config diff can affect; a member that certify_delta_member() proves
/// identical before routing returns a copy of the published outcome with
/// its own pre-routing bound checkpoint (set_delta_cert_forced re-derives
/// it by full evaluation instead). Either way the outcome is bit-identical
/// to a plain evaluation of the same candidate.
[[nodiscard]] CandidateOutcome evaluate_candidate(const EvalContext& ctx,
                                                  const CandidateConfig& cand,
                                                  EvalScratch* scratch = nullptr,
                                                  const ParetoBound* bound = nullptr,
                                                  DeltaReference* delta_record = nullptr,
                                                  DeltaRouteState* delta = nullptr);

/// Incremental, enumeration-ordered merge of candidate outcomes into a
/// SynthesisResult — the single definition of Algorithm 1's dedup / stats /
/// Pareto-front / deterministic-pruning semantics, shared by synthesize()
/// and the width sweep (explore.cpp). Outcomes are fed ONE AT A TIME in
/// enumeration order (the i-th add() merges candidate i), so streaming
/// callers merge each candidate as soon as its predecessors have merged and
/// release it, instead of holding every outcome until the sweep ends —
/// SynthesisStats::peak_buffered_outcomes records the resulting buffer
/// high-water mark. `replay` re-evaluates candidate i against the
/// merge-front bound (called only when options.prune &&
/// options.deterministic_prune for a pruned outcome whose recorded bounds
/// the merge front does not dominate). Not thread-safe: callers serialise
/// add() externally. finish() builds result.pareto; call it exactly once,
/// after the final add().
class OutcomeMerger {
 public:
  using ReplayFn =
      std::function<CandidateOutcome(std::size_t, const ParetoBound&)>;
  OutcomeMerger(const SynthesisOptions& options, ReplayFn replay,
                SynthesisResult& result);
  void add(CandidateOutcome&& out);
  void finish();

 private:
  const SynthesisOptions& options_;
  ReplayFn replay_;
  SynthesisResult& result_;
  ParetoBound merge_bound_;
  std::set<std::vector<int>> seen_designs_;
  std::size_t index_ = 0;
};

/// One-shot wrapper over OutcomeMerger for callers that already hold every
/// outcome: merges `outcomes` (enumeration order) and finishes.
void merge_candidate_outcomes(
    std::vector<CandidateOutcome>&& outcomes, const SynthesisOptions& options,
    const std::function<CandidateOutcome(std::size_t, const ParetoBound&)>& replay,
    SynthesisResult& result);

/// Per-core total traffic (sum of inbound + outbound flow bandwidth), used
/// to weight switch placement.
[[nodiscard]] std::vector<double> compute_core_traffic(const soc::SocSpec& spec);

/// Spec-only floor of the power bound: Σ per-core NI dynamic power, exactly
/// the ni_dynamic_w term of compute_metrics (it depends on the flows alone).
[[nodiscard]] double compute_ni_dynamic_base_w(const soc::SocSpec& spec,
                                               const models::Technology& tech);

}  // namespace vinoc::core
