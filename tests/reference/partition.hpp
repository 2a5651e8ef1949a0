// Reference partitioner: the seed's balanced k-way min-cut (Algorithm 1
// step 11) and its greedy clustering of cores into communication-based
// islands, kept outside the engine as test oracles (see README.md in this
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

#include <span>

#include "vinoc/graph/digraph.hpp"
#include "vinoc/partition/kway.hpp"

namespace vinoc::reference {

/// Undirected coalesced view: for every pair {u,v} with any edge in either
/// direction, a single edge min(u,v)->max(u,v) with the summed weight. The
/// engine's partitioner keeps its own coalescing, which must match this
/// one's pairs, order and sums.
graph::Digraph undirected_view(const graph::Digraph& g);

/// Sum of weights of edges whose endpoints lie in different blocks of
/// `block_of` (size node_count()). On undirected_view(g) this is the cut
/// metric partitions are scored by.
double cut_weight(const graph::Digraph& g, std::span<const int> block_of);

/// Balanced k-way min-cut. Throws std::invalid_argument on blocks < 1 or an
/// impossible cap (blocks * max_block_size < node_count).
partition::PartitionResult kway_mincut(const graph::Digraph& g,
                                       const partition::KwayOptions& options);

/// Greedy agglomerative clustering as partition::agglomerative_cluster was
/// first written: a dense matrix of pair weights from the undirected view,
/// and a full rescan of every live pair before each merge.
partition::PartitionResult agglomerative_cluster(const graph::Digraph& g, int clusters,
                                                 std::size_t max_cluster_size = 0);

}  // namespace vinoc::reference
