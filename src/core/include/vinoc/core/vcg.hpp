// VI Communication Graph (the paper's Definition 1).
//
// VCG(V, E, isl): one vertex per core of island `isl`; a directed edge per
// traffic flow between two cores of the island. The edge weight combines
// bandwidth and latency tightness:
//   h_ij = alpha * bw_ij / max_bw + (1 - alpha) * min_lat / lat_ij
// where max_bw is the largest flow bandwidth over ALL flows of the design
// and min_lat the tightest latency constraint over ALL flows, so weights are
// comparable across islands. Min-cut partitioning the VCG therefore keeps
// heavy and latency-critical communicators on the same switch.
#pragma once

#include "vinoc/graph/digraph.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::core {

struct VcgScaling {
  double max_bw_bits_per_s = 0.0;
  double min_lat_cycles = 0.0;
};

/// Extremes over all flows of the design (Definition 1's max_bw / min_lat).
[[nodiscard]] VcgScaling vcg_scaling(const soc::SocSpec& spec);

/// Builds VCG(V, E, isl). Node i corresponds to
/// spec.cores_in_island(isl)[i]; Edge::user holds the flow index.
/// `alpha` in [0,1] weighs bandwidth vs. latency.
[[nodiscard]] graph::Digraph build_vcg(const soc::SocSpec& spec,
                                       soc::IslandId island, double alpha,
                                       const VcgScaling& scaling);

}  // namespace vinoc::core
