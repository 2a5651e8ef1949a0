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
// Between the stages sit the per-(island, k) min-cut partitions every
// candidate needs, memoized so partitioning runs once per island/switch-count
// pair instead of once per inner-loop iteration (compute_partitions() for
// one width's candidate list; the engine keeps one such cache across all the
// widths of a set).
//
// The engine (synthesize_width_set, explore.cpp) then merges outcomes back
// IN ENUMERATION ORDER — duplicate suppression, stats counters and the
// saved-point list all follow candidate index — which is what makes the
// parallel run bit-identical to the sequential one.
//
// Hot path: evaluation takes an optional per-worker EvalScratch (the
// router's buffers, reset rather than reallocated between candidates; see
// exec::WorkerLocal) and an optional ParetoBound for cost-bound pruning
// (see vinoc/core/prune.hpp) — a candidate whose monotone power/latency
// lower bounds are dominated by the current front is abandoned before
// routing/metrics complete.
#pragma once

#include <functional>
#include <memory>
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

/// Initial positions of the intermediate switches, row k for k of them:
/// spread on a small ring around the chip centre (refined after routing).
using RingTable = std::vector<std::vector<floorplan::Point>>;

/// Rows 0..max_k_int of the ring table of `fp`, built once so that no
/// evaluation recomputes a row.
[[nodiscard]] RingTable ring_position_table(const floorplan::Floorplan& fp,
                                            int max_k_int);

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
  /// ring_position_table(floorplan, ...) covering every k_int evaluated;
  /// a row it lacks is computed per candidate (same values) when null or
  /// short.
  const RingTable* rings = nullptr;
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
/// to sequential ones for any thread count (see OutcomeMerger).
struct CandidateOutcome {
  EvalStatus status = EvalStatus::kRejectedUnroutable;
  /// On a skipped member only switches_per_island, intermediate_switches
  /// and metrics are filled; the topology lives in `shared`.
  DesignPoint point;
  /// Structural design signature for order-dependent deduplication, which
  /// therefore happens in the index-ordered merge, not here. Empty on a
  /// skipped member (see `shared`).
  std::vector<int> signature;
  bool deadlock_free = true;
  double pruned_power_lb_w = 0.0;
  double pruned_latency_lb_cycles = 0.0;
  /// Set only on a delta member that certify_delta_member() skipped: its
  /// reference's published outcome (DeltaReference::outcome), whose
  /// point.topology and signature are this candidate's own. The status,
  /// deadlock_free, point fields above and the member's own `pruned_*`
  /// checkpoint are filled here, so callers that read only those need not
  /// look further; the merge reads the signature, and copies the point,
  /// through this pointer.
  std::shared_ptr<const CandidateOutcome> shared;
};

/// Per-worker scratch of the evaluation stage: the router's reusable state
/// (Dijkstra buffers, link matrix, routing geometry) and the delta replay
/// state. Every other buffer of an evaluation is call-local. Obtain one per
/// strand via EvalScratchPool; a null scratch falls back to call-local
/// router state with identical results.
struct EvalScratch {
  RouterScratch router;
  /// Delta-evaluation replay state (taint vector, hop-comparison buffer,
  /// per-candidate counters); the caller points its `ref` at the group
  /// leader's DeltaReference before each member evaluation.
  DeltaRouteState delta;
};

/// Thread-keyed pool of EvalScratch (exec::WorkerLocal). One slot
/// per strand, created lazily, reused across candidates, synthesize() runs
/// and — when the pool outlives them — campaign jobs.
class EvalScratchPool {
 public:
  [[nodiscard]] EvalScratch& local() { return slots_.local(); }
  [[nodiscard]] std::size_t slot_count() const { return slots_.slot_count(); }
  /// The router work tallied by every slot. Call only while no strand is
  /// evaluating through this pool.
  [[nodiscard]] RouterWork router_work() const {
    RouterWork sum;
    slots_.for_each([&sum](const EvalScratch& es) { sum += es.router.work; });
    return sum;
  }

 private:
  exec::WorkerLocal<EvalScratch> slots_;
};

/// Evaluation stage for one candidate: build switches from the partition
/// table, route all flows, compact unused intermediate switches, check
/// deadlock freedom, refine intermediate positions and compute metrics.
/// Pure w.r.t. `ctx` (const access only); deterministic per candidate.
///
/// `scratch` reuses the worker's router state (optional). `bound` enables
/// Pareto-bound pruning: the candidate is abandoned (status kPruned) as
/// soon as its monotone power/latency lower bounds are dominated by the
/// front — before routing when the pre-routing floor already is, or after
/// any routed flow otherwise (restricted to topologies where the
/// intermediate-island fallback cannot change the outcome; see router.hpp).
///
/// `delta_record` / `delta` opt into the candidate-level delta evaluator
/// (see route_all_flows): a group REFERENCE evaluation records its routed
/// hop sequences and cross verdicts into `delta_record` (pure observation),
/// its pre-routing bound checkpoint and, when it has no intermediate
/// switches and routes every flow, its outcome there too. A reference is
/// never abandoned at a pruning checkpoint: pruned before or during
/// routing, it routes once, to the end, returns kPruned with the bounds a
/// plain bounded evaluation would stop at, and publishes the full design.
/// An adjacent MEMBER evaluation (k_int > 0) against a published outcome
/// first checks its bound against the reference's checkpoint (bit-equal to
/// its own), then asks certify_delta_member() whether it would replay every
/// flow, from the reference's summary and its own ring positions alone. A
/// certified member builds no switches and routes nothing: it returns the
/// published status, deadlock verdict, point counts and metrics, its
/// checkpoint, and `shared` pointing at the published outcome. Otherwise it
/// is built and replays the records via `delta`, re-routing only the flows
/// the config diff can affect. Either way the outcome describes the same
/// design as a plain evaluation of the same candidate.
[[nodiscard]] CandidateOutcome evaluate_candidate(const EvalContext& ctx,
                                                  const CandidateConfig& cand,
                                                  EvalScratch* scratch = nullptr,
                                                  const ParetoBound* bound = nullptr,
                                                  DeltaReference* delta_record = nullptr,
                                                  DeltaRouteState* delta = nullptr);

/// Incremental, enumeration-ordered merge of candidate outcomes into a
/// SynthesisResult — the single definition of Algorithm 1's dedup / stats /
/// Pareto-front / deterministic-pruning semantics, used once per width by
/// the synthesis engine (explore.cpp). Outcomes are fed ONE AT A TIME in
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
  /// The shared outcome whose signature was last looked up in
  /// seen_designs_ (held, so its address cannot be reused).
  std::shared_ptr<const CandidateOutcome> last_shared_;
  std::size_t index_ = 0;
};

/// Per-core total traffic (sum of inbound + outbound flow bandwidth), used
/// to weight switch placement.
[[nodiscard]] std::vector<double> compute_core_traffic(const soc::SocSpec& spec);

/// Spec-only floor of the power bound: Σ per-core NI dynamic power, exactly
/// the ni_dynamic_w term of compute_metrics (it depends on the flows alone).
[[nodiscard]] double compute_ni_dynamic_base_w(const soc::SocSpec& spec,
                                               const models::Technology& tech);

}  // namespace vinoc::core
