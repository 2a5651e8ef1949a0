// Reference synthesis: the seed's plain Algorithm 1 loop, kept outside the
// engine as a test oracle (see README.md in this directory).
//
// One sequential sweep: outer iterations i with per-island switch counts
// k_j = min(min_sw_j + (i-1), |V_j|), deduplicated once every island
// saturates; inner iterations k_int = 0..max_int. Each configuration is
// min-cut partitioned, placed, routed from scratch (routing.hpp),
// compacted, deduplicated by design signature, checked for deadlock
// freedom, refined and measured; the Pareto front is built at the end.
// No pruning, delta replay, threads, scratch arenas or caches beyond the
// per-(island, switch count) partition memo.
#pragma once

#include <cstddef>
#include <vector>

#include "vinoc/core/frequency.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/floorplan/floorplan.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::reference {

/// Outcome counters, one per candidate class (same meaning as the engine's
/// core::SynthesisStats counters; the oracle never prunes).
struct Stats {
  int configs_explored = 0;
  int configs_routed = 0;
  int configs_saved = 0;
  int rejected_unroutable = 0;
  int rejected_latency = 0;
  int rejected_duplicate = 0;
  int rejected_deadlock = 0;
};

struct Result {
  std::vector<core::DesignPoint> points;
  /// Indices into `points` forming the (noc_dynamic_w, avg_latency_cycles)
  /// Pareto front, sorted by increasing power.
  std::vector<std::size_t> pareto;
  std::vector<core::IslandNocParams> island_params;
  core::IslandNocParams intermediate_params;
  Stats stats;
};

/// Runs Algorithm 1 on `spec`. Reads only the algorithm's inputs from
/// `options` (alpha, alpha_power, link_width_bits,
/// allow_intermediate_island, max_intermediate_switches, port_reserve,
/// tech, floorplan, partition_seed, enforce_wire_timing,
/// enforce_deadlock_freedom); prune, delta_eval, threads and the hooks are
/// ignored. Throws std::invalid_argument for an invalid spec, alpha
/// weights outside [0,1], or a link width at which some NI link exceeds
/// the attainable bandwidth.
Result synthesize(const soc::SocSpec& spec, const core::SynthesisOptions& options);

}  // namespace vinoc::reference
