// Weighted min-cut partitioning.
//
// Two services:
//  * kway_mincut(): balanced k-way min-cut via recursive bisection with
//    Fiduccia–Mattheyses refinement and random restarts. This implements
//    step 11 of the paper's Algorithm 1 ("Perform k min-cut partitions of
//    VCG(V,E,j)"): cores in one block share a switch, so heavy communicators
//    land on the same switch and block size is capped by the island's
//    max_sw_size.
//  * agglomerative_cluster(): greedy heaviest-edge merging down to k
//    clusters. Used to build the paper's "communication based partitioning"
//    of cores into voltage islands (Section 5).
//
// All routines operate on the undirected coalesced view of the input graph
// (the pairs of the oracle's reference::undirected_view() in
// tests/reference/partition.hpp, built by kway.cpp's own coalesce()) and
// are deterministic for a fixed seed.
//
// kway_mincut() is pinned bit for bit to the seed's partitioner, vendored
// as vinoc::reference::kway_mincut in tests/reference/: for every input it
// returns the same block_of, the same cut_weight bits and the same
// feasible (tests/test_reference.cpp diffs the two on every benchmark
// problem and on random graphs). It coalesces the graph once per call and
// only skips work whose result it already knows exactly: a bisection
// restart that grows the same start as an earlier one, an FM pass with no
// legal move, and a block pair whose FM moved nothing while neither block
// has changed since. It does NOT skip block pairs that share no edge:
// with no cut between them the skip is exact in real arithmetic, but FM
// can count rounding noise above its 1e-12 threshold as a gain there, and
// on random graphs with large weights the skip changed results.
//
// agglomerative_cluster() is pinned the same way to its first version,
// vendored as vinoc::reference::agglomerative_cluster: same block_of,
// blocks, feasible and cut_weight bits. It coalesces the graph once into a
// flat pair-weight matrix and keeps each row's best partner, so a merge
// rescans only the rows whose best partner it changed.
#pragma once

#include <cstddef>
#include <vector>

#include "vinoc/graph/digraph.hpp"

namespace vinoc::partition {

struct KwayOptions {
  int blocks = 2;
  /// Hard cap on nodes per block (the paper's max_sw_size minus the ports
  /// needed for inter-switch links). 0 = no cap beyond balance.
  std::size_t max_block_size = 0;
  /// FM passes per bisection level.
  int refinement_passes = 8;
  /// Random restarts; the best cut wins.
  int restarts = 4;
  unsigned seed = 1;
  /// After recursive bisection, run FM between every pair of blocks until
  /// no pair improves (bounded rounds). Recursive bisection fixes early
  /// decisions; the pairwise pass can undo them and never worsens the cut.
  bool pairwise_refinement = true;
  int pairwise_rounds = 3;
};

struct PartitionResult {
  std::vector<int> block_of;  ///< block index per node, in [0, blocks)
  int blocks = 0;
  double cut_weight = 0.0;  ///< undirected cut weight of the result
  bool feasible = false;    ///< false iff the size cap cannot be met
};

/// Balanced k-way min-cut. Throws std::invalid_argument on blocks < 1 or an
/// impossible cap (blocks * max_block_size < node_count).
PartitionResult kway_mincut(const graph::Digraph& g, const KwayOptions& options);

/// Greedy agglomerative clustering: repeatedly merges the pair of clusters
/// joined by the largest total edge weight until exactly `clusters` remain
/// (merging zero-weight pairs arbitrarily-but-deterministically if the graph
/// disconnects first). `max_cluster_size` of 0 means unbounded.
PartitionResult agglomerative_cluster(const graph::Digraph& g, int clusters,
                                      std::size_t max_cluster_size = 0);

/// Sizes of each block (histogram of block_of).
std::vector<std::size_t> block_sizes(const std::vector<int>& block_of, int blocks);

}  // namespace vinoc::partition
