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
// problem and on random graphs). It only skips work whose result it
// already knows exactly: a bisection restart that grows the same start as
// an earlier one, an FM pass with no legal move, and a block pair whose FM
// moved nothing while neither block has changed since. It does NOT skip
// block pairs that share no edge: with no cut between them the skip is
// exact in real arithmetic, but FM can count rounding noise above its
// 1e-12 threshold as a gain there, and on random graphs with large weights
// the skip changed results.
//
// KwayMemo partitions one graph for many block counts and caps, as
// Algorithm 1 does for every switch count of an island. It coalesces the
// graph and generates the engine's first draws once, and it memoises two
// steps whose outcome is a function of a small key:
//  * A bisection depends on the node subset, its side-0 size n0, the slack
//    left after the cap clamps, and the random draws it takes. Those draws
//    are the stream of mt19937(seed) from the position the call has
//    reached, so the position is part of the key: the same subset bisected
//    at another position grows other starts and may split differently. A
//    hit copies the winning sides and skips as many draws as the restarts
//    took, so every later draw of the call is the one a fresh call makes.
//    The key holds the slack after the clamps, not the cap, so different
//    caps share an entry wherever their clamps agree.
//  * A pairwise FM refinement depends on the two blocks' nodes, their
//    sides and the side-0 bounds lo0 and hi0. It draws nothing. A hit
//    copies the resulting sides and total gain.
// A hit therefore returns exactly what running the step would, and every
// result equals kway_mincut()'s whatever the order of the calls. Entries
// are found by a 64-bit hash and verified against the full key.
// kway_mincut() is a KwayMemo used for one call.
//
// agglomerative_cluster() is pinned the same way to its first version,
// vendored as vinoc::reference::agglomerative_cluster: same block_of,
// blocks, feasible and cut_weight bits. It coalesces the graph once into a
// flat pair-weight matrix and keeps each row's best partner, so a merge
// rescans only the rows whose best partner it changed.
#pragma once

#include <cstddef>
#include <memory>
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

/// One graph partitioned for many block counts and caps with the same
/// seed, restarts, refinement passes and pairwise settings (see the
/// contract at the top of this file). Concurrent partition() calls are
/// safe: the memo is split into shards, each under its own lock.
class KwayMemo {
 public:
  /// Takes everything from `options` except blocks and max_block_size,
  /// which each partition() call gives.
  KwayMemo(const graph::Digraph& g, const KwayOptions& options);
  ~KwayMemo();
  KwayMemo(const KwayMemo&) = delete;
  KwayMemo& operator=(const KwayMemo&) = delete;

  /// kway_mincut() of the graph with these blocks and max_block_size,
  /// bit for bit.
  [[nodiscard]] PartitionResult partition(int blocks, std::size_t max_block_size);

  /// Distinct bisections run so far (memo entries): the same for any
  /// order or concurrency of the same calls.
  [[nodiscard]] std::size_t bisections() const;
  /// Distinct pairwise FM refinements run so far, counted the same way.
  [[nodiscard]] std::size_t pair_refinements() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Greedy agglomerative clustering: repeatedly merges the pair of clusters
/// joined by the largest total edge weight until exactly `clusters` remain
/// (merging zero-weight pairs arbitrarily-but-deterministically if the graph
/// disconnects first). `max_cluster_size` of 0 means unbounded.
PartitionResult agglomerative_cluster(const graph::Digraph& g, int clusters,
                                      std::size_t max_cluster_size = 0);

/// Sizes of each block (histogram of block_of).
std::vector<std::size_t> block_sizes(const std::vector<int>& block_of, int blocks);

}  // namespace vinoc::partition
