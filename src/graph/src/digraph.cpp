#include "vinoc/graph/digraph.hpp"

#include <stdexcept>
#include <string>

namespace vinoc::graph {

void Digraph::check_node(NodeId n) const {
  if (n < 0 || static_cast<std::size_t>(n) >= node_count()) {
    throw std::out_of_range("Digraph: node id " + std::to_string(n) +
                            " out of range (node_count=" +
                            std::to_string(node_count()) + ")");
  }
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst, double weight, std::int64_t user) {
  check_node(src);
  check_node(dst);
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, weight, user});
  out_adj_[static_cast<std::size_t>(src)].push_back(id);
  return id;
}

}  // namespace vinoc::graph
