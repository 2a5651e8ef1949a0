// Unit + property tests for the k-way min-cut partitioner, including
// optimality cross-checks against the exact ILP bisection on small graphs.
#include <gtest/gtest.h>

#include <random>

#include "reference/bisection.hpp"
#include "reference/partition.hpp"
#include "vinoc/partition/kway.hpp"

namespace vinoc::partition {
namespace {

using graph::Digraph;

Digraph two_clusters(double bridge_weight) {
  // Nodes 0-3 tightly coupled, 4-7 tightly coupled, one bridge.
  Digraph g(8);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.add_edge(i, j, 6.0);
  }
  for (int i = 4; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) g.add_edge(i, j, 6.0);
  }
  g.add_edge(3, 4, bridge_weight);
  return g;
}

TEST(KwayMincut, FindsNaturalBisection) {
  const Digraph g = two_clusters(1.0);
  KwayOptions opts;
  opts.blocks = 2;
  const PartitionResult r = kway_mincut(g, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cut_weight, 1.0);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(r.block_of[0], r.block_of[static_cast<std::size_t>(i)]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(r.block_of[4], r.block_of[static_cast<std::size_t>(i)]);
  EXPECT_NE(r.block_of[0], r.block_of[4]);
}

TEST(KwayMincut, SingleBlockIsTrivial) {
  const Digraph g = two_clusters(1.0);
  KwayOptions opts;
  opts.blocks = 1;
  const PartitionResult r = kway_mincut(g, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cut_weight, 0.0);
  for (const int b : r.block_of) EXPECT_EQ(b, 0);
}

TEST(KwayMincut, RespectsBlockSizeCap) {
  const Digraph g = two_clusters(1.0);
  KwayOptions opts;
  opts.blocks = 4;
  opts.max_block_size = 2;
  const PartitionResult r = kway_mincut(g, opts);
  ASSERT_TRUE(r.feasible);
  for (const std::size_t s : block_sizes(r.block_of, 4)) EXPECT_LE(s, 2u);
}

TEST(KwayMincut, ImpossibleCapThrows) {
  const Digraph g = two_clusters(1.0);
  KwayOptions opts;
  opts.blocks = 2;
  opts.max_block_size = 3;  // 2 * 3 < 8
  EXPECT_THROW((void)kway_mincut(g, opts), std::invalid_argument);
  opts.blocks = 0;
  EXPECT_THROW((void)kway_mincut(g, opts), std::invalid_argument);
}

TEST(KwayMincut, EmptyGraphIsFine) {
  Digraph g;
  KwayOptions opts;
  opts.blocks = 3;
  const PartitionResult r = kway_mincut(g, opts);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.block_of.empty());
}

TEST(KwayMincut, MoreBlocksThanNodesLeavesEmptyBlocks) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  KwayOptions opts;
  opts.blocks = 5;
  const PartitionResult r = kway_mincut(g, opts);
  ASSERT_TRUE(r.feasible);
  // All block ids must be valid; at most 3 distinct.
  for (const int b : r.block_of) {
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 5);
  }
}

TEST(KwayMincut, DeterministicForFixedSeed) {
  const Digraph g = two_clusters(2.0);
  KwayOptions opts;
  opts.blocks = 3;
  opts.seed = 7;
  const PartitionResult a = kway_mincut(g, opts);
  const PartitionResult b = kway_mincut(g, opts);
  EXPECT_EQ(a.block_of, b.block_of);
  EXPECT_DOUBLE_EQ(a.cut_weight, b.cut_weight);
}

TEST(KwayMincut, DirectedWeightsCountedOnce) {
  // cut_weight of the result is reported on the undirected view.
  Digraph g(4);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 0, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 2, 2.0);
  g.add_edge(1, 2, 1.0);
  KwayOptions opts;
  opts.blocks = 2;
  const PartitionResult r = kway_mincut(g, opts);
  EXPECT_DOUBLE_EQ(r.cut_weight, 1.0);
}

// Property: on random small graphs, the FM bisection must be within 1.6x of
// the ILP optimum (and usually equal).
class BisectionQualityTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BisectionQualityTest, CloseToIlpOptimum) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> wdist(0.5, 5.0);
  const std::size_t n = 10;
  Digraph g(n);
  std::uniform_int_distribution<int> ndist(0, static_cast<int>(n) - 1);
  for (int e = 0; e < 22; ++e) {
    const int a = ndist(rng);
    int b = ndist(rng);
    if (a == b) b = (b + 1) % static_cast<int>(n);
    g.add_edge(a, b, wdist(rng));
  }
  KwayOptions opts;
  opts.blocks = 2;
  opts.max_block_size = 5;
  opts.restarts = 8;
  const PartitionResult heur = kway_mincut(g, opts);
  ASSERT_TRUE(heur.feasible);

  const reference::ilp::BisectionResult exact =
      reference::ilp::optimal_bisection(g, 5, 5);
  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(exact.proven_optimal);
  EXPECT_GE(heur.cut_weight, exact.cut_weight - 1e-9);
  EXPECT_LE(heur.cut_weight, exact.cut_weight * 1.6 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BisectionQualityTest, ::testing::Range(200u, 210u));

// Property: k-way cut weight always matches a direct recount, block ids are
// in range, caps hold.
class KwayInvariantTest
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(KwayInvariantTest, CutRecountAndBounds) {
  const auto [seed, blocks] = GetParam();
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> wdist(0.1, 8.0);
  const std::size_t n = 18;
  Digraph g(n);
  std::uniform_int_distribution<int> ndist(0, static_cast<int>(n) - 1);
  for (int e = 0; e < 40; ++e) {
    const int a = ndist(rng);
    int b = ndist(rng);
    if (a == b) b = (b + 1) % static_cast<int>(n);
    g.add_edge(a, b, wdist(rng));
  }
  KwayOptions opts;
  opts.blocks = blocks;
  opts.max_block_size = (n + static_cast<std::size_t>(blocks) - 1) /
                            static_cast<std::size_t>(blocks) + 2;
  opts.seed = seed;
  const PartitionResult r = kway_mincut(g, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(reference::cut_weight(reference::undirected_view(g), r.block_of),
              r.cut_weight, 1e-9);
  for (const int b : r.block_of) {
    EXPECT_GE(b, 0);
    EXPECT_LT(b, blocks);
  }
  for (const std::size_t s : block_sizes(r.block_of, blocks)) {
    EXPECT_LE(s, opts.max_block_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KwayInvariantTest,
    ::testing::Combine(::testing::Values(31u, 32u, 33u, 34u),
                       ::testing::Values(2, 3, 4, 6)));

// Property: pairwise refinement never worsens the cut and keeps all caps.
class PairwiseRefinementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PairwiseRefinementTest, NeverWorseThanRecursiveBisectionAlone) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> wdist(0.2, 6.0);
  const std::size_t n = 20;
  Digraph g(n);
  std::uniform_int_distribution<int> ndist(0, static_cast<int>(n) - 1);
  for (int e = 0; e < 45; ++e) {
    const int a = ndist(rng);
    int b = ndist(rng);
    if (a == b) b = (b + 1) % static_cast<int>(n);
    g.add_edge(a, b, wdist(rng));
  }
  KwayOptions base;
  base.blocks = 4;
  base.max_block_size = 7;
  base.seed = GetParam();
  base.pairwise_refinement = false;
  KwayOptions refined = base;
  refined.pairwise_refinement = true;
  const PartitionResult before = kway_mincut(g, base);
  const PartitionResult after = kway_mincut(g, refined);
  ASSERT_TRUE(before.feasible);
  ASSERT_TRUE(after.feasible);
  EXPECT_LE(after.cut_weight, before.cut_weight + 1e-9);
  for (const std::size_t s : block_sizes(after.block_of, refined.blocks)) {
    EXPECT_LE(s, refined.max_block_size);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairwiseRefinementTest,
                         ::testing::Range(400u, 410u));

TEST(PairwiseRefinement, FixesSuboptimalRecursiveSplit) {
  // Three triangles in a row, 9 nodes, 3 blocks of <= 3. Recursive
  // bisection may split a triangle at the first level; the pairwise pass
  // must recover the natural clustering's cut (the two bridges).
  Digraph g(9);
  for (int t = 0; t < 3; ++t) {
    const int base_node = t * 3;
    g.add_edge(base_node, base_node + 1, 10.0);
    g.add_edge(base_node + 1, base_node + 2, 10.0);
    g.add_edge(base_node, base_node + 2, 10.0);
  }
  g.add_edge(2, 3, 1.0);
  g.add_edge(5, 6, 1.0);
  KwayOptions opts;
  opts.blocks = 3;
  opts.max_block_size = 3;
  const PartitionResult r = kway_mincut(g, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cut_weight, 2.0);
}

TEST(KwayMemo, DrawsPastThePrefixMatchOracle) {
  // A memo generates the engine's first 624 draws once; a partition that
  // takes more continues from the engine state after them. At 32 restarts
  // a bisection takes 32 draws, so the prefix ends near the 20th
  // bisection, and one memo serving every block count under three caps
  // skips draws before, across and after its end.
  std::mt19937 rng(77);
  const int n = 40;
  Digraph g(n);
  for (int e = 0; e < 3 * n; ++e) {
    g.add_edge(static_cast<int>(rng() % n), static_cast<int>(rng() % n),
               static_cast<double>(rng() % 100));
  }
  KwayOptions opts;
  opts.seed = 5;
  opts.restarts = 32;
  KwayMemo memo(g, opts);
  int mismatches = 0;
  for (int blocks = n; blocks >= 1; --blocks) {
    const std::size_t tight = (n + static_cast<std::size_t>(blocks) - 1) / blocks;
    for (const std::size_t cap : {std::size_t{0}, tight, tight + 1}) {
      opts.blocks = blocks;
      opts.max_block_size = cap;
      const PartitionResult head = memo.partition(blocks, cap);
      const PartitionResult ref = reference::kway_mincut(g, opts);
      mismatches += head.block_of != ref.block_of || head.cut_weight != ref.cut_weight;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(KwayMemo, CountsDistinctWork) {
  // A repeated call finds every bisection and pair refinement in the memo.
  const Digraph g = two_clusters(1.0);
  KwayMemo memo(g, KwayOptions{});
  (void)memo.partition(4, 0);
  const std::size_t bisections = memo.bisections();
  const std::size_t refinements = memo.pair_refinements();
  EXPECT_EQ(bisections, 3u);
  EXPECT_GT(refinements, 0u);
  (void)memo.partition(4, 0);
  EXPECT_EQ(memo.bisections(), bisections);
  EXPECT_EQ(memo.pair_refinements(), refinements);
  // Two blocks share the first bisection of four, and refine no pair.
  (void)memo.partition(2, 0);
  EXPECT_EQ(memo.bisections(), bisections);
  EXPECT_EQ(memo.pair_refinements(), refinements);
}

TEST(Agglomerative, MergesHeaviestPairsFirst) {
  Digraph g(5);
  g.add_edge(0, 1, 10.0);
  g.add_edge(2, 3, 8.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 0.5);
  const PartitionResult r = agglomerative_cluster(g, 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.block_of[0], r.block_of[1]);
  EXPECT_EQ(r.block_of[2], r.block_of[3]);
  EXPECT_NE(r.block_of[0], r.block_of[2]);
  EXPECT_EQ(r.blocks, 3);
}

TEST(Agglomerative, SizeCapPreventsMonsterClusters) {
  // Star around node 0: unbounded clustering would absorb everything.
  Digraph g(9);
  for (int leaf = 1; leaf < 9; ++leaf) {
    g.add_edge(0, leaf, 10.0 - leaf);  // distinct weights, deterministic
  }
  const PartitionResult r = agglomerative_cluster(g, 3, /*max_cluster_size=*/3);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.blocks, 3);
  for (const std::size_t s : block_sizes(r.block_of, r.blocks)) EXPECT_LE(s, 3u);
}

TEST(Agglomerative, ClusterCountHonoredOnDisconnectedGraphs) {
  Digraph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  // 4 and 5 isolated.
  const PartitionResult r = agglomerative_cluster(g, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.blocks, 2);
}

TEST(Agglomerative, RejectsBadArguments) {
  Digraph g(4);
  EXPECT_THROW((void)agglomerative_cluster(g, 0), std::invalid_argument);
  EXPECT_THROW((void)agglomerative_cluster(g, 5), std::invalid_argument);
  EXPECT_THROW((void)agglomerative_cluster(g, 3, 1), std::invalid_argument);
}

TEST(ReferenceGraphHelpers, UndirectedViewMergesBothDirections) {
  Digraph g(3);
  g.add_edge(1, 0, 2.5);
  g.add_edge(0, 1, 1.5);
  g.add_edge(2, 2, 9.0);
  const Digraph u = reference::undirected_view(g);
  ASSERT_EQ(u.node_count(), 3u);
  ASSERT_EQ(u.edge_count(), 2u);  // {0,1} and the self loop {2,2}
  EXPECT_EQ(u.edges()[0].src, 0);
  EXPECT_EQ(u.edges()[0].dst, 1);
  EXPECT_DOUBLE_EQ(u.edges()[0].weight, 4.0);
}

TEST(ReferenceGraphHelpers, CutWeightSumsCrossingEdges) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3; cut edges 0->2 (5) and 1->3 (1).
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 5.0);
  const std::vector<int> blocks = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(reference::cut_weight(g, blocks), 6.0);
  const std::vector<int> bad = {0, 1};
  EXPECT_THROW((void)reference::cut_weight(g, bad), std::invalid_argument);
}

TEST(BlockSizes, CountsCorrectly) {
  const std::vector<int> blocks = {0, 1, 1, 2, 2, 2};
  const auto sizes = block_sizes(blocks, 3);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[2], 3u);
}

}  // namespace
}  // namespace vinoc::partition
