// Unit tests for the graph container.
#include <gtest/gtest.h>

#include <stdexcept>

#include "vinoc/graph/digraph.hpp"

namespace vinoc::graph {
namespace {

TEST(Digraph, AddNodesAndEdges) {
  Digraph g(2);
  EXPECT_EQ(g.node_count(), 2u);
  const EdgeId e = g.add_edge(0, 1, 2.5, 7);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(e).src, 0);
  EXPECT_EQ(g.edge(e).dst, 1);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  EXPECT_EQ(g.edge(e).user, 7);
}

TEST(Digraph, ParallelEdgesAndSelfLoopsKept) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 1, 3.0);
  EXPECT_EQ(g.edge_count(), 3u);
  ASSERT_EQ(g.out_edges(0).size(), 2u);
  EXPECT_EQ(g.out_edges(0)[0], 0);
  EXPECT_EQ(g.out_edges(0)[1], 1);
  ASSERT_EQ(g.out_edges(1).size(), 1u);
  EXPECT_EQ(g.edges()[2].dst, 1);
}

TEST(Digraph, OutOfRangeThrows) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
  EXPECT_THROW((void)g.out_edges(7), std::out_of_range);
  EXPECT_THROW((void)g.edge(0), std::out_of_range);
}

}  // namespace
}  // namespace vinoc::graph
