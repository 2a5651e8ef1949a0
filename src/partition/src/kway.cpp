#include "vinoc/partition/kway.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

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

/// The raw output stream of std::mt19937(seed), counted by position. The
/// first draws come from a prefix the memo generated once; past it, a
/// private engine continues from the state the prefix ended in. The
/// stream has the engine's result type and range, so a distribution draws
/// from it exactly what it would draw from a freshly seeded engine.
class Draws {
 public:
  using result_type = std::mt19937::result_type;
  static constexpr result_type min() { return std::mt19937::min(); }
  static constexpr result_type max() { return std::mt19937::max(); }

  Draws(std::span<const result_type> prefix, const std::mt19937& after_prefix)
      : prefix_(prefix), after_prefix_(after_prefix) {}

  result_type operator()() {
    const std::size_t at = pos_++;
    if (at < prefix_.size()) return prefix_[at];
    if (!engine_) {
      engine_.emplace(after_prefix_);
      engine_->discard(at - prefix_.size());
    }
    return (*engine_)();
  }
  /// Moves past `count` draws without producing them.
  void skip(std::size_t count) {
    pos_ += count;
    if (engine_) engine_->discard(count);
  }
  /// Raw draws taken so far.
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  std::span<const result_type> prefix_;
  const std::mt19937& after_prefix_;
  std::optional<std::mt19937> engine_;
  std::size_t pos_ = 0;
};

/// 64-bit hash of an int sequence: FNV-1a over the values, then a
/// splitmix64 finaliser so that the top bits pick a shard evenly.
std::uint64_t hash_ints(std::span<const int> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int v : values) {
    h ^= static_cast<std::uint32_t>(v);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Results of one kind of memoised step, keyed by int sequences. A 64-bit
/// hash indexes the entries and every hit is checked against the full key,
/// so a hash collision costs a comparison, never a wrong result. The table
/// is split into shards by hash, each under its own mutex, so concurrent
/// partitions of one graph seldom wait for each other. A shard keeps its
/// keys back to back in one array, so an entry costs one index node.
template <class Value>
class MemoTable {
 public:
  /// Calls `on_hit(value)` and returns true when `key` is stored.
  template <class OnHit>
  bool find(std::uint64_t hash, std::span<const int> key, OnHit&& on_hit) {
    Shard& s = shard(hash);
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (const Entry* e = s.find(hash, key)) {
      on_hit(e->value);
      return true;
    }
    return false;
  }

  /// Stores `value` under `key`. When a concurrent call stored the key
  /// first, its value is the same one, and the table keeps it.
  void insert(std::uint64_t hash, std::span<const int> key, Value value) {
    Shard& s = shard(hash);
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (s.find(hash, key) != nullptr) return;
    s.index.emplace(hash, Entry{s.keys.size(), key.size(), std::move(value)});
    s.keys.insert(s.keys.end(), key.begin(), key.end());
  }

  /// Distinct keys stored.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      n += s.index.size();
    }
    return n;
  }

 private:
  struct Entry {
    std::size_t key_offset;  ///< into the shard's `keys`
    std::size_t key_size;
    Value value;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::vector<int> keys;
    std::unordered_multimap<std::uint64_t, Entry> index;

    [[nodiscard]] const Entry* find(std::uint64_t hash, std::span<const int> key) const {
      const auto [first, last] = index.equal_range(hash);
      for (auto it = first; it != last; ++it) {
        const Entry& e = it->second;
        if (std::ranges::equal(std::span(keys).subspan(e.key_offset, e.key_size), key)) {
          return &e;
        }
      }
      return nullptr;
    }
  };
  static constexpr int kShardBits = 4;

  Shard& shard(std::uint64_t hash) { return shards_[hash >> (64 - kShardBits)]; }

  std::array<Shard, std::size_t{1} << kShardBits> shards_;
};

/// A bisection's outcome: the winning restart's sides and the raw draws
/// its restarts took.
struct Bisection {
  std::vector<char> best_side;
  std::size_t draws = 0;
};

/// A block pair's FM refinement: its total gain and, when FM kept any move,
/// the sides it ends with. Most pairs keep none and store no sides.
struct Refinement {
  std::vector<char> side;
  double gain = 0.0;
};

/// What every partition of one graph shares: the coalesced graph, the
/// first draws of mt19937(seed), and the memoised bisections and pair
/// refinements.
struct MemoState {
  /// Raw draws generated up front: one state block of the engine, more
  /// than any partition of a graph of up to ~150 nodes takes at the
  /// default 4 restarts. Larger graphs continue from `after_prefix`.
  static constexpr std::size_t kPrefixDraws = std::mt19937::state_size;

  KwayOptions options;
  std::size_t node_count;
  std::vector<Pair> pairs;
  Adjacency whole;  ///< the whole graph
  std::vector<Draws::result_type> prefix;
  std::mt19937 after_prefix;
  MemoTable<Bisection> bisections;
  MemoTable<Refinement> refinements;

  MemoState(const Digraph& g, const KwayOptions& opts)
      : options(opts),
        node_count(g.node_count()),
        pairs(coalesce(g)),
        whole(adjacency(g.node_count(), pairs)),
        prefix(kPrefixDraws),
        after_prefix(opts.seed) {
    for (Draws::result_type& d : prefix) d = after_prefix();
  }
};

/// Per-call state: the memo of the graph plus scratch buffers that every
/// bisection, FM pass and block pair of the call reuses. One per
/// partition() call, so concurrent calls share only the memo.
struct Partitioner {
  MemoState& memo;
  KwayOptions options;  ///< the memo's, with this call's blocks and cap
  Draws rng;

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
  std::vector<int> key;  ///< memo key being looked up

  Partitioner(MemoState& m, int blocks, std::size_t max_block_size)
      : memo(m), options(m.options), rng(m.prefix, m.after_prefix), local_of(m.node_count, -1) {
    options.blocks = blocks;
    options.max_block_size = max_block_size;
  }

  /// Builds `local` for `nodes` (ascending original ids) in O(sum of deg).
  void build_local(std::span<const NodeId> nodes) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      local_of[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);
    }
    local.offset.assign(1, 0);
    local.arcs.clear();
    for (const NodeId u : nodes) {
      for (const Arc& a : memo.whole.row(static_cast<std::size_t>(u))) {
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

  /// Balanced bisection of `nodes` (ascending original ids) into sides of
  /// (n0, n-n0) nodes, with a slack of +-`slack` tolerated during
  /// refinement. Leaves the best restart's sides in `best_side`. A
  /// restart whose grown start equals an earlier one's is skipped: FM
  /// would repeat that restart exactly and its cut, being no lower, could
  /// not replace the best (strict <). Its seed node is still drawn, so the
  /// random stream is unchanged.
  ///
  /// The outcome depends only on the subset, n0, slack and the draws that
  /// follow the current stream position, so it is memoised under exactly
  /// those: a hit copies the sides and skips the draws the restarts took.
  void bisect(std::span<const NodeId> nodes, std::size_t n0, std::size_t slack) {
    key.assign({static_cast<int>(n0), static_cast<int>(slack),
                static_cast<int>(rng.position())});
    key.insert(key.end(), nodes.begin(), nodes.end());
    const std::uint64_t hash = hash_ints(key);
    if (memo.bisections.find(hash, key, [&](const Bisection& b) {
          best_side.assign(b.best_side.begin(), b.best_side.end());
          rng.skip(b.draws);
        })) {
      return;
    }
    const std::size_t first_draw = rng.position();
    build_local(nodes);
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
    memo.bisections.insert(hash, key,
                           {{best_side.begin(), best_side.end()}, rng.position() - first_draw});
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

    // Slack lets FM wiggle but the cap side bound stays hard.
    std::size_t slack = std::max<std::size_t>(1, n / 10);
    if (cap > 0) {
      const std::size_t max0 = cap * static_cast<std::size_t>(k0);
      const std::size_t max1 = cap * static_cast<std::size_t>(k1);
      slack = std::min({slack, max0 >= n0 ? max0 - n0 : 0,
                        (n - n0) <= max1 ? std::min(slack, n0 - 1) : 0});
    }
    bisect(nodes, n0, slack);

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
  /// FM on a pair depends only on the two blocks' node sets and the side
  /// bounds, so its outcome is memoised under exactly those, and a pair
  /// whose FM moved nothing stays settled until one of its blocks changes:
  /// running it again would repeat the same no-op. Pairs that share no
  /// edge are still refined: FM can count rounding noise above its
  /// threshold as a gain there, and skipping them would change results.
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
          key.assign({static_cast<int>(lo0), static_cast<int>(hi0)});
          for (std::size_t i = 0; i < n; ++i) key.push_back(2 * subset[i] + side[i]);
          const std::uint64_t hash = hash_ints(key);
          double total = 0.0;
          if (!memo.refinements.find(hash, key, [&](const Refinement& r) {
                if (!r.side.empty()) side.assign(r.side.begin(), r.side.end());
                total = r.gain;
              })) {
            build_local(subset);
            for (int p = 0; p < options.refinement_passes; ++p) {
              const double g = fm_pass(lo0, hi0);
              total += g;
              if (g <= 1e-12) break;
            }
            // FM keeps a move only for a gain above 1e-12, so a total at or
            // below it left every side as it was.
            Refinement r{{}, total};
            if (total > 1e-12) r.side.assign(side.begin(), side.end());
            memo.refinements.insert(hash, key, std::move(r));
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

struct KwayMemo::Impl : MemoState {
  using MemoState::MemoState;
};

KwayMemo::KwayMemo(const Digraph& g, const KwayOptions& options)
    : impl_(std::make_unique<Impl>(g, options)) {}

KwayMemo::~KwayMemo() = default;

PartitionResult KwayMemo::partition(int blocks, std::size_t max_block_size) {
  if (blocks < 1) throw std::invalid_argument("kway_mincut: blocks < 1");
  const std::size_t n = impl_->node_count;
  PartitionResult result;
  result.blocks = blocks;
  if (max_block_size > 0 && static_cast<std::size_t>(blocks) * max_block_size < n) {
    throw std::invalid_argument(
        "kway_mincut: blocks * max_block_size < node_count (cannot fit)");
  }
  result.block_of.assign(n, 0);
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  Partitioner part(*impl_, blocks, max_block_size);
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), 0);
  part.recurse(all, blocks, 0, result.block_of);
  if (part.options.pairwise_refinement && blocks > 2) {
    part.pairwise_refine(result.block_of);
  }

  result.cut_weight = cut_weight(impl_->pairs, result.block_of);
  result.feasible = true;
  if (max_block_size > 0) {
    for (const std::size_t s : block_sizes(result.block_of, blocks)) {
      if (s > max_block_size) result.feasible = false;
    }
  }
  return result;
}

std::size_t KwayMemo::bisections() const { return impl_->bisections.size(); }

std::size_t KwayMemo::pair_refinements() const { return impl_->refinements.size(); }

PartitionResult kway_mincut(const Digraph& g, const KwayOptions& options) {
  return KwayMemo(g, options).partition(options.blocks, options.max_block_size);
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
