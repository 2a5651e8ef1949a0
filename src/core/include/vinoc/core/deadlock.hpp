// Deadlock-freedom verification (extension beyond the paper).
//
// The paper routes each flow over a fixed least-cost path but does not
// discuss routing deadlock. For wormhole/virtual-cut-through NoCs the
// classic Dally–Seitz criterion applies: the topology+routing is
// deadlock-free iff the channel dependency graph (CDG) — one vertex per
// link, an edge l1 -> l2 whenever some flow traverses l2 immediately after
// l1 — is acyclic. vinoc's synthesized topologies are hierarchical
// (island-local switches plus direct or intermediate-VI crossings), which
// makes cycles unlikely but not impossible; this verifier proves it per
// design point and the test suite gates on it for every benchmark.
#pragma once

#include "vinoc/core/topology.hpp"
#include "vinoc/graph/digraph.hpp"

namespace vinoc::core {

/// Channel dependency graph of a routed topology: node i = links[i];
/// edge (a, b) = some flow uses link b directly after link a. Edge::user
/// holds the index of one witnessing flow.
[[nodiscard]] graph::Digraph build_channel_dependency_graph(const NocTopology& topo);

/// True iff the CDG is acyclic (Dally–Seitz: no routing deadlock possible).
[[nodiscard]] bool is_deadlock_free(const NocTopology& topo);

}  // namespace vinoc::core
