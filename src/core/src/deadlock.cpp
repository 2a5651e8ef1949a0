#include "vinoc/core/deadlock.hpp"

#include <map>
#include <queue>
#include <vector>

namespace vinoc::core {

namespace {

/// Kahn's topological sort, keeping only the count of nodes it orders: the
/// graph is acyclic iff every node gets ordered (a self-loop never does).
bool is_acyclic(const graph::Digraph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> indeg(n, 0);
  for (const graph::Edge& e : g.edges()) ++indeg[static_cast<std::size_t>(e.dst)];
  std::queue<graph::NodeId> q;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) q.push(static_cast<graph::NodeId>(i));
  }
  std::size_t ordered = 0;
  while (!q.empty()) {
    const graph::NodeId u = q.front();
    q.pop();
    ++ordered;
    for (const graph::EdgeId eid : g.out_edges(u)) {
      const graph::NodeId v = g.edge(eid).dst;
      if (--indeg[static_cast<std::size_t>(v)] == 0) q.push(v);
    }
  }
  return ordered == n;
}

}  // namespace

graph::Digraph build_channel_dependency_graph(const NocTopology& topo) {
  graph::Digraph cdg(topo.links.size());
  std::map<std::pair<int, int>, bool> seen;
  for (std::size_t f = 0; f < topo.routes.size(); ++f) {
    const FlowRoute& r = topo.routes[f];
    for (std::size_t h = 1; h < r.links.size(); ++h) {
      const int a = r.links[h - 1];
      const int b = r.links[h];
      if (!seen.emplace(std::pair{a, b}, true).second) continue;
      cdg.add_edge(a, b, 1.0, static_cast<std::int64_t>(f));
    }
  }
  return cdg;
}

bool is_deadlock_free(const NocTopology& topo) {
  return is_acyclic(build_channel_dependency_graph(topo));
}

}  // namespace vinoc::core
