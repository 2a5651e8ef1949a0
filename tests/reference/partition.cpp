#include "partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

namespace vinoc::reference {

namespace {

using graph::Digraph;
using graph::NodeId;

/// Symmetric adjacency with merged parallel edges, restricted to a node
/// subset given as original ids. Local ids are 0..subset.size()-1.
struct LocalGraph {
  std::vector<NodeId> to_orig;
  std::vector<std::vector<std::pair<int, double>>> adj;  // (local nbr, weight)

  [[nodiscard]] std::size_t size() const { return to_orig.size(); }
};

LocalGraph build_local(const Digraph& undirected, const std::vector<NodeId>& subset) {
  LocalGraph lg;
  lg.to_orig = subset;
  lg.adj.resize(subset.size());
  std::vector<int> local_of(undirected.node_count(), -1);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    local_of[static_cast<std::size_t>(subset[i])] = static_cast<int>(i);
  }
  for (const auto& e : undirected.edges()) {
    const int a = local_of[static_cast<std::size_t>(e.src)];
    const int b = local_of[static_cast<std::size_t>(e.dst)];
    if (a < 0 || b < 0 || a == b) continue;
    lg.adj[static_cast<std::size_t>(a)].emplace_back(b, e.weight);
    lg.adj[static_cast<std::size_t>(b)].emplace_back(a, e.weight);
  }
  return lg;
}

double side_cut(const LocalGraph& lg, const std::vector<int>& side) {
  double cut = 0.0;
  for (std::size_t u = 0; u < lg.size(); ++u) {
    for (const auto& [v, w] : lg.adj[u]) {
      if (static_cast<std::size_t>(v) > u && side[u] != side[static_cast<std::size_t>(v)]) {
        cut += w;
      }
    }
  }
  return cut;
}

/// One FM pass over a bisection with side-size bounds [lo0, hi0] for side 0.
/// Moves every node at most once, tracks the best prefix, rolls back the
/// rest. Returns the gain achieved (>= 0).
double fm_pass(const LocalGraph& lg, std::vector<int>& side, std::size_t lo0,
               std::size_t hi0) {
  const std::size_t n = lg.size();
  std::vector<double> gain(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto& [v, w] : lg.adj[u]) {
      gain[u] += (side[u] != side[static_cast<std::size_t>(v)]) ? w : -w;
    }
  }
  std::vector<bool> locked(n, false);
  std::size_t size0 = static_cast<std::size_t>(std::count(side.begin(), side.end(), 0));

  struct Move {
    std::size_t node;
    double cum_gain;
  };
  std::vector<Move> moves;
  double cum = 0.0;

  for (std::size_t step = 0; step < n; ++step) {
    // Pick the unlocked node with max gain whose move keeps sides legal.
    int pick = -1;
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < n; ++u) {
      if (locked[u]) continue;
      const std::size_t new_size0 = side[u] == 0 ? size0 - 1 : size0 + 1;
      if (new_size0 < lo0 || new_size0 > hi0) continue;
      if (gain[u] > best) {
        best = gain[u];
        pick = static_cast<int>(u);
      }
    }
    if (pick < 0) break;
    const auto u = static_cast<std::size_t>(pick);
    locked[u] = true;
    side[u] = 1 - side[u];
    size0 += side[u] == 0 ? 1 : std::size_t(-1);
    cum += gain[u];
    moves.push_back({u, cum});
    for (const auto& [v, w] : lg.adj[u]) {
      const auto vi = static_cast<std::size_t>(v);
      // v's gain changes by +-2w depending on whether it now matches u.
      gain[vi] += (side[u] != side[vi]) ? 2.0 * w : -2.0 * w;
    }
  }

  // Keep the best prefix of moves.
  double best_cum = 0.0;
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (moves[i].cum_gain > best_cum + 1e-12) {
      best_cum = moves[i].cum_gain;
      best_len = i + 1;
    }
  }
  for (std::size_t i = moves.size(); i > best_len; --i) {
    const std::size_t u = moves[i - 1].node;
    side[u] = 1 - side[u];
  }
  return best_cum;
}

/// Balanced bisection of `lg` into sides of exactly (n0, n-n0) nodes, with a
/// slack of +-`slack` tolerated during refinement (final sizes still within
/// [n0 - slack, n0 + slack]).
std::vector<int> bisect(const LocalGraph& lg, std::size_t n0, std::size_t slack,
                        int passes, int restarts, std::mt19937& rng) {
  const std::size_t n = lg.size();
  const std::size_t lo0 = n0 > slack ? n0 - slack : 0;
  const std::size_t hi0 = std::min(n, n0 + slack);

  std::vector<int> best_side;
  double best_cut = std::numeric_limits<double>::infinity();

  for (int r = 0; r < std::max(restarts, 1); ++r) {
    std::vector<int> side(n, 1);
    // Seeded BFS growth: start from a random node, greedily absorb the
    // neighbour with the strongest connection to side 0 until n0 nodes.
    std::vector<double> attraction(n, 0.0);
    std::vector<bool> in0(n, false);
    std::uniform_int_distribution<std::size_t> pickd(0, n - 1);
    std::size_t seed_node = pickd(rng);
    std::size_t count0 = 0;
    while (count0 < n0) {
      std::size_t u = seed_node;
      if (count0 > 0) {
        double best_attr = -1.0;
        u = n;  // invalid
        for (std::size_t v = 0; v < n; ++v) {
          if (!in0[v] && attraction[v] > best_attr) {
            best_attr = attraction[v];
            u = v;
          }
        }
        if (u == n) break;
      }
      in0[u] = true;
      side[u] = 0;
      ++count0;
      for (const auto& [v, w] : lg.adj[u]) {
        attraction[static_cast<std::size_t>(v)] += w;
      }
    }
    for (int p = 0; p < passes; ++p) {
      if (fm_pass(lg, side, lo0, hi0) <= 1e-12) break;
    }
    const double cut = side_cut(lg, side);
    if (cut < best_cut) {
      best_cut = cut;
      best_side = side;
    }
  }
  return best_side;
}

/// Recursive bisection into `blocks` blocks, each at most `cap` nodes
/// (cap = 0 means unbounded). Writes block ids into `block_of` starting at
/// `first_block`.
void recurse(const Digraph& undirected, const std::vector<NodeId>& subset,
             int blocks, std::size_t cap, int first_block, int passes,
             int restarts, std::mt19937& rng, std::vector<int>& block_of) {
  if (blocks <= 1 || subset.size() <= 1) {
    for (const NodeId v : subset) {
      block_of[static_cast<std::size_t>(v)] = first_block;
    }
    return;
  }
  const int k0 = blocks / 2;
  const int k1 = blocks - k0;
  const std::size_t n = subset.size();
  // Side sizes proportional to block counts, clamped so each side can still
  // host its blocks under the cap.
  std::size_t n0 = (n * static_cast<std::size_t>(k0) + static_cast<std::size_t>(blocks) - 1) /
                   static_cast<std::size_t>(blocks);
  if (cap > 0) {
    const std::size_t max0 = cap * static_cast<std::size_t>(k0);
    const std::size_t max1 = cap * static_cast<std::size_t>(k1);
    if (n > max1) n0 = std::max(n0, n - max1);
    n0 = std::min(n0, max0);
  }
  n0 = std::min(std::max<std::size_t>(n0, 1), n - 1);

  const LocalGraph lg = build_local(undirected, subset);
  // Slack lets FM wiggle but the cap side bound stays hard.
  std::size_t slack = std::max<std::size_t>(1, n / 10);
  if (cap > 0) {
    const std::size_t max0 = cap * static_cast<std::size_t>(k0);
    const std::size_t max1 = cap * static_cast<std::size_t>(k1);
    slack = std::min({slack, max0 >= n0 ? max0 - n0 : 0,
                      (n - n0) <= max1 ? std::min(slack, n0 - 1) : 0});
  }
  const std::vector<int> side = bisect(lg, n0, slack, passes, restarts, rng);

  std::vector<NodeId> sub0;
  std::vector<NodeId> sub1;
  for (std::size_t i = 0; i < n; ++i) {
    (side[i] == 0 ? sub0 : sub1).push_back(subset[i]);
  }
  recurse(undirected, sub0, k0, cap, first_block, passes, restarts, rng, block_of);
  recurse(undirected, sub1, k1, cap, first_block + k0, passes, restarts, rng, block_of);
}

/// Pairwise FM refinement between every block pair: builds the local graph
/// of the two blocks' nodes and lets fm_pass move nodes across, with side
/// bounds derived from the size cap. The best-prefix rollback inside
/// fm_pass guarantees the cut never worsens.
void pairwise_refine(const Digraph& undirected, int blocks, std::size_t cap,
                     int passes, int rounds, std::vector<int>& block_of) {
  for (int round = 0; round < rounds; ++round) {
    bool improved = false;
    for (int a = 0; a < blocks; ++a) {
      for (int b = a + 1; b < blocks; ++b) {
        std::vector<NodeId> subset;
        std::vector<int> side;
        for (std::size_t v = 0; v < block_of.size(); ++v) {
          if (block_of[v] == a || block_of[v] == b) {
            subset.push_back(static_cast<NodeId>(v));
            side.push_back(block_of[v] == a ? 0 : 1);
          }
        }
        if (subset.size() < 2) continue;
        const LocalGraph lg = build_local(undirected, subset);
        const std::size_t n = subset.size();
        // Both blocks must stay non-empty (the caller asked for `blocks`
        // switches; merging them would silently change the design point)
        // and within the size cap.
        const std::size_t hi0 = std::min(n - 1, cap > 0 ? cap : n - 1);
        const std::size_t lo0 = std::max<std::size_t>(1, cap > 0 && n > cap ? n - cap : 1);
        if (lo0 > hi0) continue;
        double gain = 0.0;
        for (int p = 0; p < passes; ++p) {
          const double g = fm_pass(lg, side, lo0, hi0);
          gain += g;
          if (g <= 1e-12) break;
        }
        if (gain > 1e-12) {
          improved = true;
          for (std::size_t i = 0; i < subset.size(); ++i) {
            block_of[static_cast<std::size_t>(subset[i])] = side[i] == 0 ? a : b;
          }
        }
      }
    }
    if (!improved) break;
  }
}

}  // namespace

partition::PartitionResult kway_mincut(const Digraph& g,
                                       const partition::KwayOptions& options) {
  if (options.blocks < 1) throw std::invalid_argument("kway_mincut: blocks < 1");
  const std::size_t n = g.node_count();
  partition::PartitionResult result;
  result.blocks = options.blocks;
  if (options.max_block_size > 0 &&
      static_cast<std::size_t>(options.blocks) * options.max_block_size < n) {
    throw std::invalid_argument(
        "kway_mincut: blocks * max_block_size < node_count (cannot fit)");
  }
  result.block_of.assign(n, 0);
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  const Digraph undirected = g.undirected_view();
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::mt19937 rng(options.seed);
  recurse(undirected, all, options.blocks, options.max_block_size, 0,
          options.refinement_passes, options.restarts, rng, result.block_of);
  if (options.pairwise_refinement && options.blocks > 2) {
    pairwise_refine(undirected, options.blocks, options.max_block_size,
                    options.refinement_passes, options.pairwise_rounds,
                    result.block_of);
  }

  result.cut_weight = undirected.cut_weight(result.block_of);
  result.feasible = true;
  if (options.max_block_size > 0) {
    std::vector<std::size_t> sizes(static_cast<std::size_t>(options.blocks), 0);
    for (const int b : result.block_of) ++sizes[static_cast<std::size_t>(b)];
    for (const std::size_t s : sizes) {
      if (s > options.max_block_size) result.feasible = false;
    }
  }
  return result;
}

}  // namespace vinoc::reference
