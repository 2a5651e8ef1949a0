// Topology synthesis — the paper's Algorithm 1.
//
// Pipeline per design point:
//   1. per-island NoC frequency + max switch size + min switch count
//      (vinoc/core/frequency.hpp);
//   2. sweep the switch count of every island from its minimum up to its
//      core count (outer loop), min-cut partitioning each island's VCG so
//      cores sharing a block share a switch (vinoc/partition);
//   3. sweep the intermediate NoC VI's switch count (inner loop);
//   4. route all flows in bandwidth order over least-cost paths with the
//      link-opening cost function (vinoc/core/router.hpp);
//   5. if every flow is routed within its latency budget, insert the NoC
//      components on the floorplan, evaluate power/area/latency and save
//      the design point.
//
// Loop-index note (documented deviation): the paper writes k = i + min_sw_j
// for iteration i = 1..max|Vj|, which would skip the minimum-switch design;
// we use k = min(min_sw_j + (i-1), |Vj|) so the minimum is explored first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "vinoc/core/frequency.hpp"
#include "vinoc/core/topology.hpp"
#include "vinoc/exec/cancel.hpp"
#include "vinoc/floorplan/floorplan.hpp"
#include "vinoc/models/technology.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::exec {
class ThreadPool;
}  // namespace vinoc::exec

namespace vinoc::core {

/// Thrown by synthesize() when the requested link width is infeasible for
/// the spec: some NI link's bandwidth exceeds what any switch frequency can
/// sustain at that width. Distinct from plain std::invalid_argument so width
/// sweeps (explore_link_widths) can record the feasibility boundary while
/// still propagating genuine spec/option errors.
struct InfeasibleWidthError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Progress of one synthesize() run, reported after each candidate finishes
/// evaluation. `completed` counts evaluated candidates, `total` is the size
/// of the enumerated candidate list (== stats.configs_explored at the end).
/// `link_width_bits` identifies the run, so a renderer fed by a concurrent
/// width sweep (explore_link_widths) can tell the interleaved per-width
/// streams apart — `completed` is monotonic per width, not across widths.
struct SynthesisProgress {
  std::size_t completed = 0;
  std::size_t total = 0;
  int link_width_bits = 0;
};

struct SynthesisOptions {
  /// Definition 1's alpha: bandwidth vs. latency weight in VCG edge weights.
  double alpha = 0.6;
  /// Router's power-vs-latency weight in the link-opening cost.
  double alpha_power = 0.7;
  /// NoC data width (fixed, per the paper; vary it externally for sweeps).
  int link_width_bits = 32;
  /// Whether power/ground resources allow an intermediate NoC VI (input to
  /// the method, per Section 3.2).
  bool allow_intermediate_island = true;
  /// Upper bound for the intermediate-VI switch sweep; -1 = auto
  /// (max over islands of the island's core count, at least 2).
  int max_intermediate_switches = -1;
  /// Ports per switch reserved for inter-switch links when bounding the
  /// min-cut block size.
  int port_reserve = 1;
  models::Technology tech = models::Technology::cmos65nm();
  floorplan::FloorplanOptions floorplan;
  unsigned partition_seed = 1;
  bool enforce_wire_timing = true;
  /// Reject design points whose channel dependency graph is cyclic
  /// (Dally–Seitz criterion; see vinoc/core/deadlock.hpp). Extension beyond
  /// the paper: with this on (default), every saved point is provably free
  /// of routing deadlock.
  bool enforce_deadlock_freedom = true;
  /// Pareto-bound pruning of the candidate sweep: abandon a candidate as
  /// soon as monotone lower bounds on its final (power, latency) are
  /// dominated by the current front (see vinoc/core/prune.hpp). The Pareto
  /// front, best_power() and best_latency() are PROVABLY unaffected; only
  /// dominated interior points disappear from `points` (counted in
  /// stats.rejected_pruned). Turn off to keep every routed design point.
  bool prune = true;
  /// With pruning on, replay any candidate whose concurrent prune decision
  /// could differ from the sequential one, making the result bit-identical
  /// for every thread count (the replays are rare; threads == 1 never
  /// replays). Turning this off skips the replays: the front is still
  /// exact, but WHICH dominated points are dropped may vary with thread
  /// scheduling.
  bool deterministic_prune = true;
  /// Candidate-level delta evaluation: the first candidate of each
  /// enumeration group (same per-island switch counts, k_int = 0) records
  /// its routed hop sequences; adjacent group members replay the routes of
  /// flows the config diff cannot affect and re-route only the affected
  /// ones (see route_all_flows in vinoc/core/router.hpp). Results are
  /// bit-identical either way — like `threads`, this is purely a
  /// wall-clock knob (excluded from campaign job keys) — so it exists to
  /// A/B the delta path against from-scratch evaluation.
  bool delta_eval = true;
  /// Worker strands for the candidate-evaluation stage: 1 = fully
  /// sequential (default), 0 = hardware concurrency, N = exactly N.
  /// Results are bit-identical for every value (candidates are evaluated
  /// independently and merged in enumeration order; pruning stays
  /// deterministic via deterministic_prune), so this is purely a
  /// wall-clock knob.
  int threads = 1;
  /// Optional progress hook, invoked after each candidate evaluation with
  /// monotonically increasing `completed`. With threads != 1 it is called
  /// from worker threads (serialised by an internal mutex); keep it cheap
  /// and do not call back into the synthesis API from inside it.
  std::function<void(const SynthesisProgress&)> on_progress;
  /// Cooperative cancellation: when set, synthesize() and
  /// synthesize_width_set() poll the token between candidate evaluations
  /// and abort with exec::CancelledError once it reports cancelled — the
  /// campaign engine's job timeouts, --deadline budget and SIGINT handling
  /// all arrive through here. Like `threads`/`on_progress` this is a pure
  /// wall-clock control knob, excluded from campaign job keys (spec_hash).
  /// Must outlive the synthesis call.
  const exec::CancelToken* cancel = nullptr;
};

/// One saved design point (a full topology plus its evaluation).
struct DesignPoint {
  std::vector<int> switches_per_island;
  int intermediate_switches = 0;
  NocTopology topology;
  Metrics metrics;
};

struct SynthesisStats {
  int configs_explored = 0;
  int configs_routed = 0;      ///< routing succeeded
  int configs_saved = 0;       ///< saved as design points
  int rejected_unroutable = 0;
  int rejected_latency = 0;
  int rejected_duplicate = 0;  ///< same effective design seen at another k_int
  int rejected_deadlock = 0;
  /// Abandoned by Pareto-bound pruning (provably dominated; never on the
  /// front). Always 0 with options.prune == false. Counted as explored but
  /// not as routed.
  int rejected_pruned = 0;
  double elapsed_seconds = 0.0;

  // --- Observability (excluded from result fingerprints; the fields below
  // depend on worker scheduling when threads != 1, so they are NOT part of
  // the bit-identity guarantee). ---

  /// Delta-evaluation telemetry (options.delta_eval): member candidates
  /// whose evaluation ran with replay armed (a published group reference
  /// with a bit-equal power normalizer), and their per-flow tallies —
  /// routes replayed without a Dijkstra (`delta_flows_reused`), replays
  /// verified by the forced route-equivalence certificate
  /// (`delta_flows_certified`, only under set_delta_cert_forced), and
  /// flows routed live because the config diff could affect them
  /// (`delta_flows_rerouted`). `delta_cert_rejects` counts forced-
  /// certificate mismatches (expected 0; a reject falls back to the
  /// certified path, preserving bit-identity). `delta_members_skipped`
  /// counts members proven identical to their reference before routing,
  /// whose outcome is a copy of the reference's (their non-trivial flows
  /// count as reused).
  int delta_candidates = 0;
  long long delta_flows_reused = 0;
  long long delta_flows_certified = 0;
  long long delta_flows_rerouted = 0;
  int delta_cert_rejects = 0;
  int delta_members_skipped = 0;
  /// Fraction of delta-eligible flows served without a live Dijkstra.
  [[nodiscard]] double delta_reuse_rate() const {
    const long long reused = delta_flows_reused + delta_flows_certified;
    const long long total = reused + delta_flows_rerouted;
    return total > 0 ? static_cast<double>(reused) / static_cast<double>(total)
                     : 0.0;
  }
  /// High-water mark of candidate outcomes buffered by the streaming merge
  /// (results waiting for an enumeration-order predecessor still being
  /// evaluated). Caps peak memory: with threads == 1 it equals one
  /// evaluation batch (1 for synthesize(), the width-class size for the
  /// sweep, which reports the sweep-global peak on every entry).
  int peak_buffered_outcomes = 0;
};

struct SynthesisResult {
  std::vector<DesignPoint> points;
  /// Indices into `points` forming the (noc_dynamic_w, avg_latency_cycles)
  /// Pareto front, sorted by increasing power.
  std::vector<std::size_t> pareto;
  std::vector<IslandNocParams> island_params;
  IslandNocParams intermediate_params;
  floorplan::Floorplan floorplan;
  SynthesisStats stats;

  [[nodiscard]] bool empty() const { return points.empty(); }
  /// Design point with the smallest NoC dynamic power (throws if empty).
  [[nodiscard]] const DesignPoint& best_power() const;
  /// Design point with the smallest average latency (throws if empty).
  [[nodiscard]] const DesignPoint& best_latency() const;
};

/// Runs Algorithm 1 on `spec` (throws std::invalid_argument if
/// spec.validate() reports problems, InfeasibleWidthError if an NI link
/// cannot be sustained at options.link_width_bits).
///
/// Staged engine: candidates are first ENUMERATED (pure, sequential — the
/// (outer x inner) sweep of the paper, deduplicated on saturation), their
/// per-(island, switch-count) min-cut partitions computed once each, then
/// every candidate is EVALUATED independently (partition lookup -> switch
/// placement -> routing -> metrics) across options.threads strands and
/// merged back in enumeration order, so the result does not depend on the
/// thread count. See vinoc/core/candidates.hpp for the stage boundary.
SynthesisResult synthesize(const soc::SocSpec& spec,
                           const SynthesisOptions& options = {});

/// Same, but evaluates candidates on an existing pool instead of creating
/// one from options.threads. Used by explore_link_widths() so the width
/// sweep and every per-width candidate sweep share one set of workers;
/// nested use is safe (see vinoc/exec/thread_pool.hpp).
SynthesisResult synthesize(const soc::SocSpec& spec,
                           const SynthesisOptions& options,
                           exec::ThreadPool& pool);

class EvalScratchPool;  // vinoc/core/candidates.hpp

/// Same, additionally reusing the caller's per-worker scratch arenas
/// (preallocated router/metrics/placement buffers). Batch drivers — the
/// width sweep, the campaign engine — keep one EvalScratchPool alive across
/// many synthesize() calls so buffers are allocated once per worker, not
/// once per run. Results are identical with or without it.
SynthesisResult synthesize(const soc::SocSpec& spec,
                           const SynthesisOptions& options,
                           exec::ThreadPool& pool, EvalScratchPool& scratch);

}  // namespace vinoc::core
