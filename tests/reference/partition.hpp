// Reference partitioner: the seed's balanced k-way min-cut (Algorithm 1
// step 11), kept outside the engine as a test oracle (see README.md in this
// directory).
//
// Recursive bisection on the undirected coalesced view of the graph: each
// level grows a side from a random seed node, refines it with
// Fiduccia–Mattheyses passes and keeps the best of several restarts; for
// more than two blocks, FM then runs between every pair of blocks. Every
// subset and every block pair rebuilds its adjacency from the whole edge
// list. It shares only the option and result types with
// vinoc::partition::kway_mincut, which must reproduce it bit for bit.
#pragma once

#include "vinoc/graph/digraph.hpp"
#include "vinoc/partition/kway.hpp"

namespace vinoc::reference {

/// Balanced k-way min-cut. Throws std::invalid_argument on blocks < 1 or an
/// impossible cap (blocks * max_block_size < node_count).
partition::PartitionResult kway_mincut(const graph::Digraph& g,
                                       const partition::KwayOptions& options);

}  // namespace vinoc::reference
