// Directed, weighted multigraph: the container behind every VCG
// (communication graph of one voltage island) and every channel dependency
// graph vinoc builds.
//
// Design notes:
//  * Nodes and edges are dense integer ids (NodeId / EdgeId); payloads are
//    stored in parallel vectors, so the structure is cache-friendly and
//    cheaply copyable.
//  * Parallel edges are allowed (two cores may have two distinct flows).
//  * The node count is fixed at construction and nothing is ever removed:
//    synthesis only builds graphs and reads them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vinoc::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// A directed edge with a double weight. `user` is an opaque tag callers can
/// use to map edges back to domain objects (e.g. flow indices).
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double weight = 0.0;
  std::int64_t user = -1;
};

/// Directed multigraph with weighted edges.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count) : out_adj_(node_count) {}

  /// Adds a directed edge; weight may be any finite value (synthesis uses
  /// bandwidth-derived weights, which are >= 0, but the graph does not care).
  EdgeId add_edge(NodeId src, NodeId dst, double weight = 1.0,
                  std::int64_t user = -1);

  [[nodiscard]] std::size_t node_count() const { return out_adj_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId id) const { return edges_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId n) const {
    return out_adj_.at(static_cast<std::size_t>(n));
  }

 private:
  void check_node(NodeId n) const;

  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_adj_;
};

}  // namespace vinoc::graph
