// Link-width design-space exploration (the paper's stated extension).
//
// Section 4: "without loss of generality, we fix the data width of the NoC
// links to a user-defined value. Please note that it could be varied in a
// range and more design points could be explored, which does not affect the
// algorithm steps." This module does exactly that: it holds the synthesis
// engine, synthesize_width_set(), which runs Algorithm 1 once per width of a
// set (synthesize() is its one-width case), and explore_link_widths(), which
// merges all saved design points into one global power/latency Pareto
// front, so the designer sees width as just another trade-off axis.
#pragma once

#include <cstddef>
#include <vector>

#include "vinoc/core/synthesis.hpp"
#include "vinoc/obs/registry.hpp"

namespace vinoc::exec {
class ThreadPool;
}  // namespace vinoc::exec

namespace vinoc::core {

class EvalScratchPool;

struct WidthSweepEntry {
  int width_bits = 0;
  bool feasible = false;  ///< false if an NI link exceeds capacity at this width
  SynthesisResult result;
};

/// Reference to one design point of one width's synthesis run.
struct GlobalPointRef {
  std::size_t entry = 0;  ///< index into WidthSweepResult::entries
  std::size_t point = 0;  ///< index into entries[entry].result.points
};

struct WidthSweepResult {
  std::vector<WidthSweepEntry> entries;
  /// Global Pareto front over (noc_dynamic_w, avg_latency_cycles) across all
  /// widths, sorted by increasing power.
  std::vector<GlobalPointRef> pareto;

  [[nodiscard]] const DesignPoint& point(const GlobalPointRef& ref) const {
    return entries.at(ref.entry).result.points.at(ref.point);
  }
  [[nodiscard]] int width_of(const GlobalPointRef& ref) const {
    return entries.at(ref.entry).width_bits;
  }
};

/// Observability of one synthesize_width_set() call.
struct WidthSetStats {
  int width_classes = 0;   ///< structural classes among the feasible widths
  /// Retired, always 0, kept only because perfbench reads it.
  int shared_evals = 0;
  /// Retired, always 0, kept only because perfbench reads it.
  int fallback_evals = 0;
  /// Retired, always 0, kept only because perfbench reads it.
  int certificate_accepts = 0;
  /// Retired, always 0, kept only because perfbench reads it.
  int cohort_evals = 0;
  /// Per-class partition-table slots served by the sweep's cross-width
  /// partition cache beyond the first computation of each distinct
  /// (island, switch count, max block size) min-cut problem.
  int partition_cache_hits = 0;
  /// Distinct bisections and pairwise FM refinements the set's min-cut
  /// partitioner ran (its memo entries; see partition::KwayMemo): exact
  /// work counters, the same at every thread count.
  long long partition_bisections = 0;
  long long partition_pair_refinements = 0;
  /// Sweep-global high-water mark of candidate outcomes buffered by the
  /// streaming per-width merges (see SynthesisStats::
  /// peak_buffered_outcomes).
  int peak_buffered_outcomes = 0;
  /// Candidate-level delta evaluation: same meaning as the
  /// SynthesisStats::delta_* counters, summed across every (candidate,
  /// width) of the set.
  int delta_candidates = 0;
  long long delta_flows_reused = 0;
  long long delta_flows_rerouted = 0;
  int delta_members_skipped = 0;

  /// Fraction of delta-eligible flows served without a live Dijkstra
  /// (see SynthesisStats::delta_reuse_rate).
  [[nodiscard]] double delta_reuse_rate() const {
    const long long total = delta_flows_reused + delta_flows_rerouted;
    return total > 0 ? static_cast<double>(delta_flows_reused) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// The canonical registry view of these stats: counters registered in the
  /// `width_sweep_stats` record order (the retired fields excluded),
  /// delta_reuse_rate as a gauge. io::registry_record of this registry IS
  /// the CLI's --json width_sweep_stats record, and the `sharing:`/`delta:`
  /// console lines read their values from it — one serialization path, no
  /// drift.
  [[nodiscard]] obs::Registry to_registry() const;
};

/// The synthesis engine: runs Algorithm 1 on `spec` at every width of
/// `widths` (entries parallel to it). synthesize() is its one-width case,
/// explore_link_widths() and the campaign engine call it directly. Work
/// that does not depend on the width is shared across the set — ONE
/// floorplan, flow order and traffic profile; ONE candidate enumeration per
/// structural class (widths whose derived island parameters share max
/// switch size and minimum switch count per island); ONE min-cut partition
/// per distinct (island, switch count, max block size) across all widths;
/// and ONE routing geometry per candidate across the widths of its class.
/// The units that fan out over `pool` are the classes' delta groups (runs
/// of candidates sharing switches_per_island). One strand evaluates a
/// group's candidates in enumeration order, each at every width of the
/// class, by evaluate_candidate(); the group's leader records one delta
/// reference per width and its members replay against it. Outcomes stream
/// into per-width merges in enumeration order.
///
/// Each entry's SynthesisResult therefore equals what the set would give
/// for that width alone — same points, stats, Pareto front — for every
/// thread count and both prune settings (elapsed_seconds, which is
/// measured, reports the whole set's wall time; see SynthesisStats for the
/// telemetry that depends on scheduling). Throws
/// std::invalid_argument for an invalid spec or alpha weights outside
/// [0,1]. Infeasible widths (an NI link exceeds attainable bandwidth) yield
/// feasible == false with a default result; synthesize() turns that into
/// InfeasibleWidthError.
///
/// Progress: base_options.on_progress receives SWEEP-GLOBAL totals —
/// `completed` increases monotonically 1..total over all (candidate, width)
/// evaluations of the whole set, `total` is their overall count and
/// `link_width_bits` identifies the width whose evaluation completed. The
/// callback is serialised by one sweep-wide mutex.
std::vector<WidthSweepEntry> synthesize_width_set(
    const soc::SocSpec& spec, const std::vector<int>& widths,
    const SynthesisOptions& base_options, exec::ThreadPool& pool,
    EvalScratchPool& scratch, WidthSetStats* stats = nullptr);

/// Runs the synthesis once per width and merges the design spaces. `widths`
/// must be non-empty and positive. `base_options.link_width_bits` is
/// ignored. Widths at which an NI link exceeds attainable bandwidth are
/// recorded as infeasible entries, not fatal; every other error — invalid
/// spec, bad alpha weights — propagates to the caller.
///
/// The sweep runs on one pool of base_options.threads strands shared by
/// every internal fan-out, evaluates all widths through one
/// synthesize_width_set() call (results bit-identical to per-width
/// synthesize() calls for every thread count),
/// and reports sweep-global progress (see synthesize_width_set). `stats`
/// (optional) receives the sharing telemetry of the underlying width-set
/// synthesis.
WidthSweepResult explore_link_widths(const soc::SocSpec& spec,
                                     const std::vector<int>& widths,
                                     const SynthesisOptions& base_options = {},
                                     WidthSetStats* stats = nullptr);

}  // namespace vinoc::core
