#include "vinoc/partition/kway.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <tuple>

namespace vinoc::partition {

namespace {

using graph::Digraph;
using graph::NodeId;

/// One neighbour in an adjacency row.
struct Arc {
  int to;
  double weight;
};

/// Symmetric adjacency in CSR form: row u is arcs[offset[u], offset[u+1]),
/// neighbours in ascending id order, no self loops.
struct Adjacency {
  std::vector<std::size_t> offset;
  std::vector<Arc> arcs;

  [[nodiscard]] std::size_t size() const { return offset.size() - 1; }
  [[nodiscard]] std::span<const Arc> row(std::size_t u) const {
    return {arcs.data() + offset[u], arcs.data() + offset[u + 1]};
  }
};

/// An undirected pair lo < hi with the summed weight of every edge between
/// them, in either direction.
struct Pair {
  int lo;
  int hi;
  double weight;
};

/// Coalesces `g` into its undirected pairs in (lo, hi) order. These are the
/// pairs, the order and the double sums of the oracle's
/// reference::undirected_view() in tests/reference/partition.hpp (a
/// std::map keyed by (min, max) whose value starts at 0.0 and adds the
/// pair's edges in edge order) minus its self loops, which no cut, gain or
/// merge ever counts.
std::vector<Pair> coalesce(const Digraph& g) {
  std::vector<Pair> keyed;  // one per edge, in edge order
  for (const graph::Edge& e : g.edges()) {
    if (e.src != e.dst) {
      keyed.push_back({std::min(e.src, e.dst), std::max(e.src, e.dst), e.weight});
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const Pair& a, const Pair& b) {
    return std::tie(a.lo, a.hi) < std::tie(b.lo, b.hi);
  });
  std::vector<Pair> pairs;
  for (const Pair& e : keyed) {
    if (pairs.empty() || pairs.back().lo != e.lo || pairs.back().hi != e.hi) {
      pairs.push_back({e.lo, e.hi, 0.0});
    }
    pairs.back().weight += e.weight;
  }
  return pairs;
}

/// The adjacency of `n` nodes joined by `pairs`. Rows come out in
/// ascending neighbour order because the pairs are in (lo, hi) order.
Adjacency adjacency(std::size_t n, const std::vector<Pair>& pairs) {
  Adjacency adj;
  adj.offset.assign(n + 1, 0);
  for (const Pair& p : pairs) {
    ++adj.offset[static_cast<std::size_t>(p.lo) + 1];
    ++adj.offset[static_cast<std::size_t>(p.hi) + 1];
  }
  std::partial_sum(adj.offset.begin(), adj.offset.end(), adj.offset.begin());
  adj.arcs.resize(adj.offset[n]);
  std::vector<std::size_t> fill(adj.offset.begin(), adj.offset.end() - 1);
  for (const Pair& p : pairs) {
    adj.arcs[fill[static_cast<std::size_t>(p.lo)]++] = {p.hi, p.weight};
    adj.arcs[fill[static_cast<std::size_t>(p.hi)]++] = {p.lo, p.weight};
  }
  return adj;
}

/// Undirected cut of `block_of`: the pairs' weights summed in (lo, hi)
/// order, as the oracle's reference::cut_weight() adds them over
/// reference::undirected_view().
double cut_weight(const std::vector<Pair>& pairs, const std::vector<int>& block_of) {
  double cut = 0.0;
  for (const Pair& p : pairs) {
    if (block_of[static_cast<std::size_t>(p.lo)] != block_of[static_cast<std::size_t>(p.hi)]) {
      cut += p.weight;
    }
  }
  return cut;
}

/// True when some node of a bisection with `size0` of its `n` nodes on
/// side 0 can switch sides without leaving side 0's bounds [lo0, hi0]. When
/// none can, an FM pass moves nothing: only the sizes matter.
bool has_legal_move(std::size_t size0, std::size_t n, std::size_t lo0, std::size_t hi0) {
  const bool from0 = size0 > 0 && size0 - 1 >= lo0 && size0 - 1 <= hi0;
  const bool from1 = size0 < n && size0 + 1 >= lo0 && size0 + 1 <= hi0;
  return from0 || from1;
}

/// Per-call state: the coalesced graph plus scratch buffers that every
/// bisection, FM pass and block pair reuses. One per kway_mincut() call, so
/// concurrent calls share nothing.
struct Partitioner {
  const KwayOptions& options;
  std::vector<Pair> pairs;
  Adjacency whole;  ///< the whole graph
  std::mt19937 rng;

  /// Local graph of the subset being bisected or refined: local ids
  /// 0..m-1 follow the subset's ascending original ids, so each local row
  /// keeps the graph row's neighbour order.
  Adjacency local;
  std::vector<int> local_of;  ///< original id -> local id, -1 outside
  std::vector<NodeId> subset;
  std::vector<NodeId> spill;
  std::vector<std::vector<NodeId>> members;  ///< per block, ascending ids
  std::vector<char> settled;                 ///< per block pair a < b
  std::vector<int> side;
  std::vector<int> best_side;
  std::vector<int> starts;  ///< grown start of each restart, back to back
  std::vector<double> attraction;
  std::vector<double> gain;
  std::vector<std::size_t> unlocked;  ///< FM: unmoved nodes, ascending
  struct Move {
    std::size_t node;
    double cum_gain;
  };
  std::vector<Move> moves;

  Partitioner(const Digraph& g, const KwayOptions& opts)
      : options(opts),
        pairs(coalesce(g)),
        whole(adjacency(g.node_count(), pairs)),
        rng(opts.seed),
        local_of(g.node_count(), -1) {}

  /// Builds `local` for `nodes` (ascending original ids) in O(sum of deg).
  void build_local(std::span<const NodeId> nodes) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      local_of[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);
    }
    local.offset.assign(1, 0);
    local.arcs.clear();
    for (const NodeId u : nodes) {
      for (const Arc& a : whole.row(static_cast<std::size_t>(u))) {
        const int b = local_of[static_cast<std::size_t>(a.to)];
        if (b >= 0) local.arcs.push_back({b, a.weight});
      }
      local.offset.push_back(local.arcs.size());
    }
    for (const NodeId u : nodes) local_of[static_cast<std::size_t>(u)] = -1;
  }

  [[nodiscard]] double side_cut() const {
    double cut = 0.0;
    for (std::size_t u = 0; u < local.size(); ++u) {
      for (const Arc& a : local.row(u)) {
        if (static_cast<std::size_t>(a.to) > u && side[u] != side[static_cast<std::size_t>(a.to)]) {
          cut += a.weight;
        }
      }
    }
    return cut;
  }

  /// One FM pass over the bisection `side` of `local` with side-size bounds
  /// [lo0, hi0] for side 0. Moves every node at most once, tracks the best
  /// prefix, rolls back the rest. Returns the gain achieved (>= 0).
  double fm_pass(std::size_t lo0, std::size_t hi0) {
    const std::size_t n = local.size();
    std::size_t size0 = static_cast<std::size_t>(std::count(side.begin(), side.end(), 0));
    if (!has_legal_move(size0, n, lo0, hi0)) return 0.0;
    gain.assign(n, 0.0);
    for (std::size_t u = 0; u < n; ++u) {
      for (const Arc& a : local.row(u)) {
        gain[u] += (side[u] != side[static_cast<std::size_t>(a.to)]) ? a.weight : -a.weight;
      }
    }
    unlocked.resize(n);
    std::iota(unlocked.begin(), unlocked.end(), std::size_t{0});
    moves.clear();
    double cum = 0.0;

    for (std::size_t step = 0; step < n; ++step) {
      // Pick the unlocked node with max gain whose move keeps sides legal
      // (the first such node in id order on ties).
      const bool legal[2] = {size0 - 1 >= lo0 && size0 - 1 <= hi0,
                             size0 + 1 >= lo0 && size0 + 1 <= hi0};
      std::size_t pick = unlocked.size();
      double best = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < unlocked.size(); ++i) {
        const std::size_t u = unlocked[i];
        if (legal[side[u]] && gain[u] > best) {
          best = gain[u];
          pick = i;
        }
      }
      if (pick == unlocked.size()) break;
      const std::size_t u = unlocked[pick];
      unlocked.erase(unlocked.begin() + static_cast<std::ptrdiff_t>(pick));
      side[u] = 1 - side[u];
      size0 += side[u] == 0 ? 1 : std::size_t(-1);
      cum += gain[u];
      moves.push_back({u, cum});
      for (const Arc& a : local.row(u)) {
        const auto vi = static_cast<std::size_t>(a.to);
        // v's gain changes by +-2w depending on whether it now matches u.
        gain[vi] += (side[u] != side[vi]) ? 2.0 * a.weight : -2.0 * a.weight;
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

  /// Balanced bisection of `local` into sides of (n0, n-n0) nodes, with a
  /// slack of +-`slack` tolerated during refinement. Leaves the best
  /// restart's sides in `best_side`. A restart whose grown start equals an
  /// earlier one's is skipped: FM would repeat that restart exactly and
  /// its cut, being no lower, could not replace the best (strict <). Its
  /// seed node is still drawn, so the random stream is unchanged.
  void bisect(std::size_t n0, std::size_t slack) {
    const std::size_t n = local.size();
    const std::size_t lo0 = n0 > slack ? n0 - slack : 0;
    const std::size_t hi0 = std::min(n, n0 + slack);

    double best_cut = std::numeric_limits<double>::infinity();
    starts.clear();
    for (int r = 0; r < std::max(options.restarts, 1); ++r) {
      side.assign(n, 1);
      // Seeded BFS growth: start from a random node, greedily absorb the
      // neighbour with the strongest connection to side 0 until n0 nodes.
      attraction.assign(n, 0.0);
      std::uniform_int_distribution<std::size_t> pickd(0, n - 1);
      std::size_t seed_node = pickd(rng);
      std::size_t count0 = 0;
      while (count0 < n0) {
        std::size_t u = seed_node;
        if (count0 > 0) {
          double best_attr = -1.0;
          u = n;  // invalid
          for (std::size_t v = 0; v < n; ++v) {
            if (side[v] == 1 && attraction[v] > best_attr) {
              best_attr = attraction[v];
              u = v;
            }
          }
          if (u == n) break;
        }
        side[u] = 0;
        ++count0;
        for (const Arc& a : local.row(u)) {
          attraction[static_cast<std::size_t>(a.to)] += a.weight;
        }
      }
      bool repeat = false;
      for (std::size_t s = 0; s < starts.size() && !repeat; s += n) {
        repeat = std::equal(side.begin(), side.end(),
                            starts.begin() + static_cast<std::ptrdiff_t>(s));
      }
      if (repeat) continue;
      starts.insert(starts.end(), side.begin(), side.end());

      for (int p = 0; p < options.refinement_passes; ++p) {
        if (fm_pass(lo0, hi0) <= 1e-12) break;
      }
      const double cut = side_cut();
      if (cut < best_cut) {
        best_cut = cut;
        best_side = side;
      }
    }
  }

  /// Recursive bisection of `nodes` (ascending original ids) into `blocks`
  /// blocks, each at most the cap. Writes block ids into `block_of`
  /// starting at `first_block`; reorders `nodes` side 0 first, each side
  /// still ascending.
  void recurse(std::span<NodeId> nodes, int blocks, int first_block,
               std::vector<int>& block_of) {
    const std::size_t cap = options.max_block_size;
    if (blocks <= 1 || nodes.size() <= 1) {
      for (const NodeId v : nodes) block_of[static_cast<std::size_t>(v)] = first_block;
      return;
    }
    const int k0 = blocks / 2;
    const int k1 = blocks - k0;
    const std::size_t n = nodes.size();
    // Side sizes proportional to block counts, clamped so each side can
    // still host its blocks under the cap.
    std::size_t n0 = (n * static_cast<std::size_t>(k0) + static_cast<std::size_t>(blocks) - 1) /
                     static_cast<std::size_t>(blocks);
    if (cap > 0) {
      const std::size_t max0 = cap * static_cast<std::size_t>(k0);
      const std::size_t max1 = cap * static_cast<std::size_t>(k1);
      if (n > max1) n0 = std::max(n0, n - max1);
      n0 = std::min(n0, max0);
    }
    n0 = std::min(std::max<std::size_t>(n0, 1), n - 1);

    build_local(nodes);
    // Slack lets FM wiggle but the cap side bound stays hard.
    std::size_t slack = std::max<std::size_t>(1, n / 10);
    if (cap > 0) {
      const std::size_t max0 = cap * static_cast<std::size_t>(k0);
      const std::size_t max1 = cap * static_cast<std::size_t>(k1);
      slack = std::min({slack, max0 >= n0 ? max0 - n0 : 0,
                        (n - n0) <= max1 ? std::min(slack, n0 - 1) : 0});
    }
    bisect(n0, slack);

    // Stable split: side 0 to the front, side 1 behind it.
    spill.clear();
    std::size_t m0 = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (best_side[i] == 0) {
        nodes[m0++] = nodes[i];
      } else {
        spill.push_back(nodes[i]);
      }
    }
    std::copy(spill.begin(), spill.end(), nodes.begin() + static_cast<std::ptrdiff_t>(m0));
    recurse(nodes.first(m0), k0, first_block, block_of);
    recurse(nodes.subspan(m0), k1, first_block + k0, block_of);
  }

  /// FM between every pair of blocks, with side bounds derived from the
  /// size cap, until a round improves no pair (bounded rounds). The
  /// best-prefix rollback inside fm_pass guarantees the cut never worsens.
  /// FM on a pair depends only on the two blocks' node sets, so a pair
  /// whose FM moved nothing stays settled until one of its blocks changes:
  /// running it again would repeat the same no-op. Pairs that share no edge
  /// are still refined: FM can count rounding noise above its threshold as
  /// a gain there, and skipping them would change results.
  void pairwise_refine(std::vector<int>& block_of) {
    const int blocks = options.blocks;
    const auto k = static_cast<std::size_t>(blocks);
    const std::size_t cap = options.max_block_size;
    members.assign(k, {});
    for (std::size_t v = 0; v < block_of.size(); ++v) {
      members[static_cast<std::size_t>(block_of[v])].push_back(static_cast<NodeId>(v));
    }
    settled.assign(k * k, 0);
    for (int round = 0; round < options.pairwise_rounds; ++round) {
      bool improved = false;
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a + 1; b < k; ++b) {
          if (settled[a * k + b]) continue;
          // Both blocks' nodes in ascending id order, side 0 = block a.
          subset.clear();
          side.clear();
          const std::vector<NodeId>& ma = members[a];
          const std::vector<NodeId>& mb = members[b];
          for (std::size_t i = 0, j = 0; i < ma.size() || j < mb.size();) {
            const bool from_a = j == mb.size() || (i < ma.size() && ma[i] < mb[j]);
            subset.push_back(from_a ? ma[i++] : mb[j++]);
            side.push_back(from_a ? 0 : 1);
          }
          if (subset.size() < 2) continue;
          const std::size_t n = subset.size();
          // Both blocks must stay non-empty (the caller asked for `blocks`
          // switches; merging them would silently change the design point)
          // and within the size cap.
          const std::size_t hi0 = std::min(n - 1, cap > 0 ? cap : n - 1);
          const std::size_t lo0 = std::max<std::size_t>(1, cap > 0 && n > cap ? n - cap : 1);
          if (lo0 > hi0) continue;
          if (!has_legal_move(ma.size(), n, lo0, hi0)) {
            settled[a * k + b] = 1;
            continue;
          }
          build_local(subset);
          double total = 0.0;
          for (int p = 0; p < options.refinement_passes; ++p) {
            const double g = fm_pass(lo0, hi0);
            total += g;
            if (g <= 1e-12) break;
          }
          if (total <= 1e-12) {
            settled[a * k + b] = 1;
            continue;
          }
          improved = true;
          members[a].clear();
          members[b].clear();
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t blk = side[i] == 0 ? a : b;
            members[blk].push_back(subset[i]);
            block_of[static_cast<std::size_t>(subset[i])] = static_cast<int>(blk);
          }
          for (std::size_t c = 0; c < k; ++c) {
            settled[std::min(a, c) * k + std::max(a, c)] = 0;
            settled[std::min(b, c) * k + std::max(b, c)] = 0;
          }
        }
      }
      if (!improved) break;
    }
  }
};

}  // namespace

PartitionResult kway_mincut(const Digraph& g, const KwayOptions& options) {
  if (options.blocks < 1) throw std::invalid_argument("kway_mincut: blocks < 1");
  const std::size_t n = g.node_count();
  PartitionResult result;
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

  Partitioner part(g, options);
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), 0);
  part.recurse(all, options.blocks, 0, result.block_of);
  if (options.pairwise_refinement && options.blocks > 2) {
    part.pairwise_refine(result.block_of);
  }

  result.cut_weight = cut_weight(part.pairs, result.block_of);
  result.feasible = true;
  if (options.max_block_size > 0) {
    for (const std::size_t s : block_sizes(result.block_of, options.blocks)) {
      if (s > options.max_block_size) result.feasible = false;
    }
  }
  return result;
}

PartitionResult agglomerative_cluster(const Digraph& g, int clusters,
                                      std::size_t max_cluster_size) {
  if (clusters < 1) throw std::invalid_argument("agglomerative_cluster: clusters < 1");
  const std::size_t n = g.node_count();
  PartitionResult result;
  result.blocks = clusters;
  result.block_of.assign(n, 0);
  if (n == 0) {
    result.feasible = true;
    return result;
  }
  if (static_cast<std::size_t>(clusters) > n) {
    throw std::invalid_argument("agglomerative_cluster: clusters > node_count");
  }
  if (max_cluster_size > 0 &&
      static_cast<std::size_t>(clusters) * max_cluster_size < n) {
    throw std::invalid_argument("agglomerative_cluster: size cap cannot fit");
  }

  // Inter-cluster weights in one flat symmetric matrix, from the coalesced
  // pairs (self loops never count toward a merge).
  const std::vector<Pair> pairs = coalesce(g);
  std::vector<double> w(n * n, 0.0);
  for (const Pair& p : pairs) {
    const auto a = static_cast<std::size_t>(p.lo);
    const auto b = static_cast<std::size_t>(p.hi);
    w[a * n + b] += p.weight;
    w[b * n + a] += p.weight;
  }
  // cluster id per node; clusters are merged by relabelling.
  std::vector<int> cl(n);
  std::iota(cl.begin(), cl.end(), 0);
  std::vector<std::size_t> size(n, 1);
  std::vector<bool> dead(n, false);
  int alive = static_cast<int>(n);
  const auto fits = [&](std::size_t a, std::size_t b) {
    return max_cluster_size == 0 || size[a] + size[b] <= max_cluster_size;
  };

  // Each live row a keeps its best partner b > a: the first b in ascending
  // order with the largest weight above -1 among live pairs within the cap.
  // The heaviest pair overall is then the first row holding the largest
  // row best, the pair a full scan in (a, b) order with a strict > would
  // pick. Merging b into a changes row a, and in any other row c only the
  // entry (c, a) (weight and fit) and the entry (c, b) (now dead). A row c
  // whose best partner was neither a nor b keeps every other entry, so its
  // new best is the old one or (c, a). One whose best was a or b, worth w,
  // had every entry before that best below w and every other one at most
  // w; since a < b, a fitting (c, a) worth at least w is its new best.
  // Only the remaining rows are rescanned.
  struct RowBest {
    double w = -1.0;
    int b = -1;
  };
  std::vector<RowBest> best(n);
  const auto rescan = [&](std::size_t a) {
    RowBest r;
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!dead[b] && fits(a, b) && w[a * n + b] > r.w) r = {w[a * n + b], static_cast<int>(b)};
    }
    best[a] = r;
  };
  for (std::size_t a = 0; a < n; ++a) rescan(a);

  while (alive > clusters) {
    int best_a = -1;
    double best_w = -1.0;
    for (std::size_t a = 0; a < n; ++a) {
      if (!dead[a] && best[a].b >= 0 && best[a].w > best_w) {
        best_w = best[a].w;
        best_a = static_cast<int>(a);
      }
    }
    if (best_a < 0) {
      result.feasible = false;  // cap made further merging impossible
      break;
    }
    const auto a = static_cast<std::size_t>(best_a);
    const int best_b = best[a].b;
    const auto b = static_cast<std::size_t>(best_b);
    for (std::size_t c = 0; c < n; ++c) {
      if (dead[c] || c == a || c == b) continue;
      const double merged = w[a * n + c] + w[b * n + c];
      w[a * n + c] = merged;
      w[c * n + a] = merged;
    }
    size[a] += size[b];
    dead[b] = true;
    --alive;
    for (std::size_t v = 0; v < n; ++v) {
      if (cl[v] == best_b) cl[v] = best_a;
    }
    rescan(a);
    for (std::size_t c = 0; c < n; ++c) {
      if (dead[c] || c == a) continue;
      RowBest& r = best[c];
      const bool lost = r.b == best_a || r.b == best_b;
      if (c < a && fits(c, a)) {
        const double wa = w[c * n + a];
        if (lost ? wa >= r.w : wa > r.w || (r.b >= 0 && wa == r.w && best_a < r.b)) {
          r = {wa, best_a};
          continue;
        }
      }
      if (lost) rescan(c);
    }
  }

  // Compact cluster ids to [0, clusters).
  std::vector<int> remap(n, -1);
  int next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (remap[static_cast<std::size_t>(cl[v])] == -1) {
      remap[static_cast<std::size_t>(cl[v])] = next++;
    }
    result.block_of[v] = remap[static_cast<std::size_t>(cl[v])];
  }
  result.blocks = next;
  if (alive == clusters) result.feasible = true;
  result.cut_weight = cut_weight(pairs, result.block_of);
  return result;
}

std::vector<std::size_t> block_sizes(const std::vector<int>& block_of, int blocks) {
  std::vector<std::size_t> sizes(static_cast<std::size_t>(std::max(blocks, 0)), 0);
  for (const int b : block_of) {
    if (b >= 0 && b < blocks) ++sizes[static_cast<std::size_t>(b)];
  }
  return sizes;
}

}  // namespace vinoc::partition
