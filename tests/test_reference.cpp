// Differential test against an independent oracle: the seed's plain
// Algorithm 1 (tests/reference/), which shares no routing, evaluation or
// merge code with the engine — its own dense-Dijkstra router, switch
// build, compaction, refinement, signature dedup and Pareto merge, calling
// only the leaf modules (soc, floorplan, partition + VCG, frequency,
// metrics, deadlock). Every other bit-identity test compares two paths of
// the engine that share its router's relaxation kernel, so a change to the
// shared kernel moves both sides together; this test says which side is
// right.
//
// On every configuration the engine (prune off, delta on, threads 1 and 4)
// must reproduce the oracle exactly: the saved points (switch counts,
// k_int, core attachment, link endpoints, routes, every Metrics field),
// the Pareto indices and every outcome counter. With prune on, the Pareto
// front's metrics must still equal the oracle's. The d26/l4 width sweep
// must match a per-width oracle run entry by entry, infeasible exactly
// where the oracle rejects the width.
//
// The oracle runs are the slow part (seconds each on d64), so they are
// computed once, four at a time, before the first comparison.
//
// The engine's min-cut partitioner is diffed against the oracle's (the
// seed's kway_mincut) on its own: every distinct partition problem the
// benchmark inputs issue, plus seeded random graphs, must give the same
// blocks, the same cut bits and the same feasibility.
//
// So is the engine's greedy clustering into communication-based islands,
// against the first version of it, on every campaign-mix SoC and on seeded
// random graphs.
//
// So is the engine's router, against the oracle's dense-Dijkstra router,
// on seeded hand-built topologies small enough to run thousands of: grid
// positions make many paths cost bit-equal, so a search shortcut that
// breaks a tie differently, or prunes a path it should not, shows up. One
// case in four is routed again with its switches shuffled, so islands
// interleave in the switch array.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "reference/algorithm1.hpp"
#include "reference/partition.hpp"
#include "reference/routing.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/frequency.hpp"
#include "vinoc/core/router.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/core/vcg.hpp"
#include "vinoc/partition/kway.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc {
namespace {

soc::SocSpec logical(const soc::Benchmark& bm, int islands) {
  return soc::with_logical_islands(bm.soc, islands, bm.use_cases);
}

soc::SocSpec synthetic(int cores, int hubs, unsigned seed, unsigned perturb,
                       int islands) {
  soc::SyntheticParams params;
  params.cores = cores;
  params.hubs = hubs;
  params.seed = seed;
  return logical(
      soc::make_synthetic_soc(soc::perturb_synthetic_params(params, perturb)),
      islands);
}

struct Config {
  std::string name;
  soc::SocSpec spec;
  int width = 32;
};

/// The differential matrix, slowest oracle runs first so the four workers
/// finish together. The synthetic 64-core SoC at l4 is where the engine's
/// cross-island delta certificate rejects most often at w32; at w128 it
/// proves every delta member identical to its reference before routing.
const std::vector<Config>& configs() {
  static const std::vector<Config> all = [] {
    const soc::Benchmark d26 = soc::make_d26_media_soc();
    const soc::Benchmark d36 = soc::make_d36_settop_soc();
    const soc::Benchmark d64 = soc::make_d64_tile_soc();
    std::vector<Config> c;
    c.push_back({"syn64_h4_s7_l4_w128", synthetic(64, 4, 7, 0, 4), 128});
    c.push_back({"d64_l4_w32", logical(d64, 4), 32});
    c.push_back({"d64_l4_w64", logical(d64, 4), 64});
    c.push_back({"d64_l2_w32", logical(d64, 2), 32});
    c.push_back({"syn64_h4_s7_l4_w32", synthetic(64, 4, 7, 0, 4), 32});
    c.push_back({"syn36_h4_s5_p3_l2_w64", synthetic(36, 4, 5, 3, 2), 64});
    c.push_back({"syn24_h3_s1_p7_l3_w32", synthetic(24, 3, 1, 7, 3), 32});
    for (const int width : {32, 64}) {
      const std::string w = "_w" + std::to_string(width);
      c.push_back({"d26_l2" + w, logical(d26, 2), width});
      c.push_back({"d26_l4" + w, logical(d26, 4), width});
      c.push_back({"d36_l2" + w, logical(d36, 2), width});
      c.push_back({"d36_l5" + w, logical(d36, 5), width});
    }
    return c;
  }();
  return all;
}

/// The d26/l4 width sweep compared entry by entry (16 is infeasible).
const std::vector<int> kSweepWidths = {16, 32, 64, 128};

core::SynthesisOptions options_at(int width) {
  core::SynthesisOptions opt;
  opt.link_width_bits = width;
  return opt;
}

/// One oracle run: its result, or the message of the std::invalid_argument
/// it threw (a rejected width).
struct OracleRun {
  reference::Result result;
  std::string error;
};

OracleRun run_oracle(const soc::SocSpec& spec, int width) {
  OracleRun run;
  try {
    run.result = reference::synthesize(spec, options_at(width));
  } catch (const std::invalid_argument& e) {
    run.error = e.what();
  }
  return run;
}

/// Oracle runs for configs() followed by the d26/l4 sweep widths, computed
/// on four threads the first time any test asks.
const std::vector<OracleRun>& oracle_runs() {
  static const std::vector<OracleRun> runs = [] {
    std::vector<std::pair<const soc::SocSpec*, int>> jobs;
    for (const Config& c : configs()) jobs.emplace_back(&c.spec, c.width);
    static const soc::SocSpec d26_l4 = logical(soc::make_d26_media_soc(), 4);
    for (const int w : kSweepWidths) jobs.emplace_back(&d26_l4, w);

    std::vector<OracleRun> out(jobs.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
          try {
            out[i] = run_oracle(*jobs[i].first, jobs[i].second);
          } catch (const std::exception& e) {
            out[i].error = std::string("unexpected: ") + e.what();
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    return out;
  }();
  return runs;
}

auto metrics_tuple(const core::Metrics& m) {
  return std::tie(m.noc_dynamic_w, m.switch_dynamic_w, m.link_dynamic_w,
                  m.ni_dynamic_w, m.fifo_dynamic_w, m.noc_leakage_w,
                  m.noc_area_mm2, m.avg_latency_cycles, m.max_latency_cycles,
                  m.total_wire_mm, m.switch_count, m.link_count, m.fifo_count,
                  m.max_switch_ports);
}

/// First difference between two saved points, or "" when equal.
std::string point_diff(const core::DesignPoint& a, const core::DesignPoint& b) {
  if (a.switches_per_island != b.switches_per_island) return "switches_per_island";
  if (a.intermediate_switches != b.intermediate_switches) return "k_int";
  const core::NocTopology& ta = a.topology;
  const core::NocTopology& tb = b.topology;
  if (ta.switches.size() != tb.switches.size()) return "switch count";
  if (ta.switch_of_core != tb.switch_of_core) return "core attachment";
  if (ta.links.size() != tb.links.size()) return "link count";
  for (std::size_t l = 0; l < ta.links.size(); ++l) {
    if (ta.links[l].src_switch != tb.links[l].src_switch ||
        ta.links[l].dst_switch != tb.links[l].dst_switch) {
      return "link " + std::to_string(l) + " endpoints";
    }
  }
  if (ta.routes.size() != tb.routes.size()) return "route count";
  for (std::size_t f = 0; f < ta.routes.size(); ++f) {
    if (ta.routes[f].links != tb.routes[f].links) {
      return "route of flow " + std::to_string(f);
    }
  }
  if (metrics_tuple(a.metrics) != metrics_tuple(b.metrics)) return "metrics";
  return "";
}

/// Full equality of an engine result (prune off) with an oracle result.
void expect_matches_oracle(const std::string& where,
                           const core::SynthesisResult& head,
                           const reference::Result& ref) {
  const core::SynthesisStats& h = head.stats;
  const reference::Stats& r = ref.stats;
  EXPECT_EQ(h.configs_explored, r.configs_explored) << where;
  EXPECT_EQ(h.configs_routed, r.configs_routed) << where;
  EXPECT_EQ(h.configs_saved, r.configs_saved) << where;
  EXPECT_EQ(h.rejected_unroutable, r.rejected_unroutable) << where;
  EXPECT_EQ(h.rejected_latency, r.rejected_latency) << where;
  EXPECT_EQ(h.rejected_duplicate, r.rejected_duplicate) << where;
  EXPECT_EQ(h.rejected_deadlock, r.rejected_deadlock) << where;
  EXPECT_EQ(h.rejected_pruned, 0) << where;

  ASSERT_EQ(head.points.size(), ref.points.size()) << where << ": saved points";
  for (std::size_t i = 0; i < ref.points.size(); ++i) {
    const std::string diff = point_diff(head.points[i], ref.points[i]);
    ASSERT_EQ(diff, "") << where << ": point " << i << " of "
                        << ref.points.size() << " differs";
  }
  EXPECT_EQ(head.pareto, ref.pareto) << where << ": Pareto indices";
}

class ReferenceDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReferenceDiff, EngineReproducesOracle) {
  const Config& c = configs()[GetParam()];
  const OracleRun& oracle = oracle_runs()[GetParam()];
  ASSERT_EQ(oracle.error, "") << c.name;
  ASSERT_FALSE(oracle.result.points.empty()) << c.name;

  for (const int threads : {1, 4}) {
    core::SynthesisOptions opt = options_at(c.width);
    opt.prune = false;
    opt.delta_eval = true;
    opt.threads = threads;
    expect_matches_oracle(c.name + " threads " + std::to_string(threads),
                          core::synthesize(c.spec, opt), oracle.result);
  }

  // Pruning drops dominated interior points only: the front is the
  // oracle's, point for point.
  core::SynthesisOptions pruned = options_at(c.width);
  pruned.prune = true;
  const core::SynthesisResult head = core::synthesize(c.spec, pruned);
  ASSERT_EQ(head.pareto.size(), oracle.result.pareto.size()) << c.name;
  for (std::size_t i = 0; i < head.pareto.size(); ++i) {
    EXPECT_TRUE(metrics_tuple(head.points[head.pareto[i]].metrics) ==
                metrics_tuple(oracle.result.points[oracle.result.pareto[i]].metrics))
        << c.name << ": prune-on front point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReferenceDiff, ::testing::Range<std::size_t>(0, configs().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return configs()[info.param].name;
    });

TEST(ReferenceSweep, D26L4EntriesMatchPerWidthOracle) {
  const soc::SocSpec spec = logical(soc::make_d26_media_soc(), 4);
  const std::size_t first = configs().size();
  for (const int threads : {1, 4}) {
    core::SynthesisOptions opt;
    opt.prune = false;
    opt.threads = threads;
    const core::WidthSweepResult sweep =
        core::explore_link_widths(spec, kSweepWidths, opt);
    ASSERT_EQ(sweep.entries.size(), kSweepWidths.size());
    for (std::size_t i = 0; i < kSweepWidths.size(); ++i) {
      const std::string where = "d26/l4 sweep width " +
                                std::to_string(kSweepWidths[i]) + " threads " +
                                std::to_string(threads);
      const OracleRun& oracle = oracle_runs()[first + i];
      const core::WidthSweepEntry& e = sweep.entries[i];
      ASSERT_EQ(e.feasible, oracle.error.empty()) << where << " " << oracle.error;
      if (e.feasible) expect_matches_oracle(where, e.result, oracle.result);
    }
  }
  EXPECT_FALSE(oracle_runs()[first].error.empty())
      << "width 16 should be infeasible on d26/l4";
}

// --- Partitioner ----------------------------------------------------------

/// One min-cut problem: a graph and the options it is partitioned with.
/// Problems with the same `group` share one graph and all options but
/// blocks and max_block_size, and are partitioned through one shared
/// partition::KwayMemo, as the engine shares one per island.
struct PartitionProblem {
  std::string where;
  std::shared_ptr<const graph::Digraph> graph;  ///< shared within a group
  partition::KwayOptions options;
  std::size_t group = 0;
};

/// Appends every distinct (island, switch count, block cap) problem that
/// synthesizing `spec` at each of `widths` asks the partitioner, once per
/// partition seed 1-4. Infeasible widths issue none. Each (island, seed)
/// is one group across all widths, as in one synthesize_width_set() call.
void add_synthesis_problems(const std::string& name, const soc::SocSpec& spec,
                            const std::vector<int>& widths,
                            std::vector<PartitionProblem>& out, std::size_t& groups) {
  const core::VcgScaling scaling = core::vcg_scaling(spec);
  const std::size_t first_group = groups;
  groups += 4 * spec.islands.size();
  std::set<std::tuple<int, int, std::size_t>> seen;
  for (const int width : widths) {
    const core::SynthesisOptions opt = options_at(width);
    const std::vector<core::IslandNocParams> params =
        core::derive_island_params(spec, opt.tech, width, opt.port_reserve);
    if (std::any_of(params.begin(), params.end(), [](const core::IslandNocParams& p) {
          return p.core_count > 0 && p.max_sw_size == 0;
        })) {
      continue;
    }
    for (const core::CandidateConfig& cand : core::enumerate_candidates(spec, params, opt)) {
      for (std::size_t isl = 0; isl < cand.switches_per_island.size(); ++isl) {
        if (params[isl].core_count == 0) continue;
        const int k = cand.switches_per_island[isl];
        const auto cap = static_cast<std::size_t>(
            std::max(params[isl].max_sw_size - opt.port_reserve, 1));
        if (!seen.emplace(static_cast<int>(isl), k, cap).second) continue;
        const auto vcg = std::make_shared<const graph::Digraph>(
            core::build_vcg(spec, static_cast<soc::IslandId>(isl), opt.alpha, scaling));
        for (unsigned seed = 1; seed <= 4; ++seed) {
          partition::KwayOptions kopts;
          kopts.blocks = k;
          kopts.max_block_size = cap;
          kopts.seed = seed;
          out.push_back({name + " island " + std::to_string(isl) + " k " +
                             std::to_string(k) + " cap " + std::to_string(cap) +
                             " seed " + std::to_string(seed),
                         vcg, kopts, first_group + 4 * isl + (seed - 1)});
        }
      }
    }
  }
}

/// The problems of the benchmark inputs: d26 and d64 at several island
/// counts and widths, and the campaign-mix synthetic SoCs.
std::vector<PartitionProblem> benchmark_problems() {
  std::vector<PartitionProblem> out;
  std::size_t groups = 0;
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::Benchmark d64 = soc::make_d64_tile_soc();
  for (int islands = 2; islands <= 6; ++islands) {
    add_synthesis_problems("d26_l" + std::to_string(islands), logical(d26, islands),
                           {16, 32, 64, 128}, out, groups);
  }
  for (const int islands : {2, 4, 6}) {
    add_synthesis_problems("d64_l" + std::to_string(islands), logical(d64, islands),
                           {32, 64, 128, 256}, out, groups);
  }
  const auto add_synthetic = [&](int cores, int hubs, unsigned seed, int perturbations) {
    soc::SyntheticParams params;
    params.cores = cores;
    params.hubs = hubs;
    params.seed = seed;
    for (int v = 0; v <= perturbations; ++v) {
      const soc::Benchmark b = soc::make_synthetic_soc(
          soc::perturb_synthetic_params(params, static_cast<unsigned>(v)));
      const std::string base = "syn" + std::to_string(cores) + "_h" +
                               std::to_string(hubs) + "_p" + std::to_string(v);
      for (const int islands : {2, 3}) {
        const std::string l = "_l" + std::to_string(islands);
        add_synthesis_problems(base + "_logical" + l,
                               soc::with_logical_islands(b.soc, islands, b.use_cases),
                               {32, 64}, out, groups);
        add_synthesis_problems(base + "_comm" + l,
                               soc::with_communication_islands(b.soc, islands, b.use_cases),
                               {32, 64}, out, groups);
      }
    }
  };
  add_synthetic(24, 3, 1, 7);
  add_synthetic(36, 4, 5, 3);
  return out;
}

/// A seeded random graph of 1-40 nodes covering the corners the benchmark
/// inputs do not: self loops, parallel and antiparallel edges, zero
/// weights, and weights of the given scale.
graph::Digraph random_graph(std::mt19937& rng, double scale) {
  const int n = std::uniform_int_distribution<int>(1, 40)(rng);
  graph::Digraph g(static_cast<std::size_t>(n));
  const int edges = std::uniform_int_distribution<int>(0, 3 * n)(rng);
  std::uniform_int_distribution<int> node(0, n - 1);
  std::uniform_real_distribution<double> weight(0.0, 1.0);
  for (int e = 0; e < edges; ++e) {
    const int a = node(rng);
    const int b = node(rng);
    const double w = rng() % 8 == 0 ? 0.0 : weight(rng) * scale;
    g.add_edge(a, b, w);
    if (rng() % 6 == 0) g.add_edge(rng() % 2 == 0 ? a : b, rng() % 2 == 0 ? a : b, w);
  }
  return g;
}

constexpr double kWeightScales[] = {1.0, 1e3, 1e6, 1e9};

/// Seeded random graphs, each its own group (partitioned by one
/// kway_mincut() call), with weights up to ~1e9, no cap or a tight one,
/// and every block count from 1 to n.
std::vector<PartitionProblem> random_problems(std::size_t count) {
  std::vector<PartitionProblem> out;
  out.reserve(count);
  std::mt19937 rng(20091);
  for (std::size_t i = 0; i < count; ++i) {
    auto g = std::make_shared<const graph::Digraph>(random_graph(rng, kWeightScales[i % 4]));
    const auto n = static_cast<int>(g->node_count());
    partition::KwayOptions kopts;
    // Every block count up to n occurs, but pairwise refinement costs
    // O(k^2) passes, so three graphs in four stay at k <= 8.
    const int max_blocks = rng() % 4 == 0 ? n : std::min(n, 8);
    kopts.blocks = std::uniform_int_distribution<int>(1, max_blocks)(rng);
    const std::size_t tight = (static_cast<std::size_t>(n) +
                               static_cast<std::size_t>(kopts.blocks) - 1) /
                              static_cast<std::size_t>(kopts.blocks);
    switch (rng() % 3) {
      case 0: kopts.max_block_size = 0; break;
      case 1: kopts.max_block_size = tight; break;
      default: kopts.max_block_size = tight + rng() % 3; break;
    }
    kopts.seed = static_cast<unsigned>(rng() % 1000);
    out.push_back({"random graph " + std::to_string(i) + " n " + std::to_string(n) +
                       " k " + std::to_string(kopts.blocks),
                   std::move(g), kopts, i});
  }
  return out;
}

/// Seeded random graphs, each partitioned for every block count 1..n under
/// no cap, the tightest cap that fits and a looser one: one group per
/// graph, so every problem of a graph goes through one shared memo.
std::vector<PartitionProblem> random_memo_problems(std::size_t graphs) {
  std::vector<PartitionProblem> out;
  std::mt19937 rng(27182);
  for (std::size_t i = 0; i < graphs; ++i) {
    const auto g =
        std::make_shared<const graph::Digraph>(random_graph(rng, kWeightScales[i % 4]));
    const auto n = static_cast<int>(g->node_count());
    const auto seed = static_cast<unsigned>(rng() % 1000);
    for (int k = 1; k <= n; ++k) {
      const std::size_t tight = (static_cast<std::size_t>(n) + static_cast<std::size_t>(k) - 1) /
                                static_cast<std::size_t>(k);
      for (const std::size_t cap : {std::size_t{0}, tight, tight + 1 + rng() % 2}) {
        partition::KwayOptions kopts;
        kopts.blocks = k;
        kopts.max_block_size = cap;
        kopts.seed = seed;
        out.push_back({"random graph " + std::to_string(i) + " n " + std::to_string(n) +
                           " k " + std::to_string(k) + " cap " + std::to_string(cap),
                       g, kopts, i});
      }
    }
  }
  return out;
}

/// Partitions every problem with the oracle and through its group's shared
/// memo (kway_mincut() for a group of one), four threads at a time; returns
/// the number that differ in blocks, cut bits or feasibility and reports
/// the first few. The groups run in a seeded shuffled order and so do the
/// problems within each group, a group's problems back to back: the four
/// threads share its memo at once, and the memo is dropped after its last
/// problem.
std::size_t partition_mismatches(const std::vector<PartitionProblem>& problems,
                                 bool require_feasible) {
  struct Verdict {
    bool same = false;
    bool feasible = false;
    partition::PartitionResult head;
  };
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::size_t g = problems[i].group;
    if (g >= groups.size()) groups.resize(g + 1);
    groups[g].push_back(i);
  }
  std::vector<std::unique_ptr<partition::KwayMemo>> memos(groups.size());
  std::vector<std::atomic<std::size_t>> remaining(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    remaining[g] = groups[g].size();
    if (groups[g].size() > 1) {
      const PartitionProblem& p = problems[groups[g].front()];
      memos[g] = std::make_unique<partition::KwayMemo>(*p.graph, p.options);
    }
  }
  std::mt19937 shuffle_rng(4711);
  std::shuffle(groups.begin(), groups.end(), shuffle_rng);
  std::vector<std::size_t> order;
  order.reserve(problems.size());
  for (std::vector<std::size_t>& g : groups) {
    std::shuffle(g.begin(), g.end(), shuffle_rng);
    order.insert(order.end(), g.begin(), g.end());
  }
  std::vector<Verdict> verdicts(problems.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t j; (j = next.fetch_add(1)) < order.size();) {
        const std::size_t i = order[j];
        const PartitionProblem& p = problems[i];
        partition::PartitionResult head =
            memos[p.group] != nullptr
                ? memos[p.group]->partition(p.options.blocks, p.options.max_block_size)
                : partition::kway_mincut(*p.graph, p.options);
        const partition::PartitionResult ref = reference::kway_mincut(*p.graph, p.options);
        verdicts[i].same = head.block_of == ref.block_of && head.blocks == ref.blocks &&
                           std::bit_cast<std::uint64_t>(head.cut_weight) ==
                               std::bit_cast<std::uint64_t>(ref.cut_weight) &&
                           head.feasible == ref.feasible;
        verdicts[i].feasible = ref.feasible;
        if (!verdicts[i].same) verdicts[i].head = std::move(head);
        if (remaining[p.group].fetch_sub(1) == 1) memos[p.group].reset();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const PartitionProblem& p = problems[i];
    if (!verdicts[i].same && ++mismatches <= 5) {
      const partition::PartitionResult ref = reference::kway_mincut(*p.graph, p.options);
      ADD_FAILURE() << p.where << ": cut " << verdicts[i].head.cut_weight << " vs oracle "
                    << ref.cut_weight << ", feasible " << verdicts[i].head.feasible
                    << " vs " << ref.feasible;
    }
    if (require_feasible) {
      EXPECT_TRUE(verdicts[i].feasible) << p.where;
    }
  }
  return mismatches;
}

TEST(ReferencePartition, BenchmarkProblemsMatchOracle) {
  const std::vector<PartitionProblem> problems = benchmark_problems();
  ASSERT_GT(problems.size(), 10000u);
  EXPECT_EQ(partition_mismatches(problems, true), 0u)
      << "of " << problems.size() << " problems";
}

TEST(ReferencePartition, RandomGraphsMatchOracle) {
  const std::vector<PartitionProblem> problems = random_problems(20000);
  EXPECT_EQ(partition_mismatches(problems, false), 0u)
      << "of " << problems.size() << " problems";
}

TEST(ReferencePartition, SharedMemoMatchesOracle) {
  // Every block count and three caps per graph, in shuffled order on four
  // threads, through one memo per graph: a memo key that misses an input
  // of the memoised step (the draw position, the slack, the pair's side
  // bounds) hands one problem another's result.
  const std::vector<PartitionProblem> problems = random_memo_problems(1000);
  ASSERT_GT(problems.size(), 40000u);
  EXPECT_EQ(partition_mismatches(problems, false), 0u)
      << "of " << problems.size() << " problems";
}

/// One clustering problem: a graph, a cluster count and a size cap.
struct ClusterProblem {
  std::string where;
  graph::Digraph graph;
  int clusters = 2;
  std::size_t cap = 0;
};

/// The core graph of every campaign-mix SoC (the perfbench matrix: a 24-core
/// family with 7 perturbations and a 36-core one with 3) for input seeds
/// 0-23, at 2-4 clusters under the communication-island cap.
std::vector<ClusterProblem> campaign_cluster_problems() {
  std::vector<ClusterProblem> out;
  const auto add = [&](int cores, int hubs, unsigned seed, int perturbations) {
    soc::SyntheticParams params;
    params.cores = cores;
    params.hubs = hubs;
    params.seed = seed;
    for (int v = 0; v <= perturbations; ++v) {
      const soc::Benchmark b = soc::make_synthetic_soc(
          soc::perturb_synthetic_params(params, static_cast<unsigned>(v)));
      for (int k = 2; k <= 4; ++k) {
        out.push_back({b.soc.name + " p" + std::to_string(v) + " k" + std::to_string(k),
                       b.soc.core_graph(), k,
                       soc::communication_cluster_cap(b.soc.cores.size(), k)});
      }
    }
  };
  for (unsigned seed = 0; seed < 24; ++seed) {
    add(24, 3, seed, 7);
    add(36, 4, seed + 4, 3);
  }
  return out;
}

/// Seeded random clustering problems: integer weights 0-3 on one graph in
/// four and -2-3 on another (many tied pairs), real ones up to 1e6 on the
/// rest, heavy disjoint pairs on one in four, zero weights,
/// self loops, parallel and antiparallel edges, and no cap, the tightest cap
/// that fits or one a little above it (a tight cap often strands the greedy
/// merge short of its cluster count).
std::vector<ClusterProblem> random_cluster_problems(std::size_t count) {
  std::vector<ClusterProblem> out;
  out.reserve(count);
  std::mt19937 rng(2609);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const int n = pick(1, 30);
    graph::Digraph g(static_cast<std::size_t>(n));
    const bool integer = i % 2 == 0;
    // Half the integer graphs also draw negative weights: a merge can then
    // make a pair lighter, and pairs at or below -1 never merge.
    const int lowest = i % 4 == 2 ? -2 : 0;
    // One graph in four first joins nodes 2j and 2j+1 by a heavy edge: the
    // greedy merge pairs them up before anything else, and an odd cap then
    // cannot join two pairs.
    const bool paired = i % 4 == 1;
    if (paired) {
      for (int a = 0; a + 1 < n; a += 2) g.add_edge(a, a + 1, 1e7 + pick(0, 3));
    }
    const int edges = pick(0, 3 * n);
    for (int e = 0; e < edges; ++e) {
      const int a = pick(0, n - 1);
      const int b = pick(0, 5) == 0 ? a : pick(0, n - 1);
      const double w = pick(0, 7) == 0 ? 0.0
                       : integer       ? static_cast<double>(pick(lowest, 3))
                                       : std::uniform_real_distribution<double>(0.0, 1e6)(rng);
      g.add_edge(a, b, w);
      if (pick(0, 3) == 0) g.add_edge(pick(0, 1) == 0 ? a : b, pick(0, 1) == 0 ? a : b, w);
    }
    // Few clusters of many nodes each are where a tight cap strands merges.
    const int k = !paired && pick(0, 1) == 0 ? pick(1, n)
                                             : std::min(n, pick(2, std::max(2, n / 3)));
    const std::size_t tight =
        (static_cast<std::size_t>(n) + static_cast<std::size_t>(k) - 1) / static_cast<std::size_t>(k);
    std::size_t cap = 0;
    switch (pick(0, 2)) {
      case 0: cap = 0; break;
      case 1: cap = tight; break;
      default: cap = tight + static_cast<std::size_t>(pick(1, 2)); break;
    }
    out.push_back({"random graph " + std::to_string(i) + " n " + std::to_string(n) + " k " +
                       std::to_string(k) + " cap " + std::to_string(cap),
                   std::move(g), k, cap});
  }
  return out;
}

/// Runs both clusterings on every problem; returns the number that differ
/// in blocks, block count, feasibility or cut bits and reports the first
/// few. `infeasible` receives how many the oracle left short of k.
std::size_t cluster_mismatches(const std::vector<ClusterProblem>& problems,
                               std::size_t* infeasible) {
  std::size_t mismatches = 0;
  *infeasible = 0;
  for (const ClusterProblem& p : problems) {
    const partition::PartitionResult head =
        partition::agglomerative_cluster(p.graph, p.clusters, p.cap);
    const partition::PartitionResult ref =
        reference::agglomerative_cluster(p.graph, p.clusters, p.cap);
    *infeasible += ref.feasible ? 0 : 1;
    const bool same = head.block_of == ref.block_of && head.blocks == ref.blocks &&
                      head.feasible == ref.feasible &&
                      std::bit_cast<std::uint64_t>(head.cut_weight) ==
                          std::bit_cast<std::uint64_t>(ref.cut_weight);
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << p.where << ": cut " << head.cut_weight << " vs oracle "
                    << ref.cut_weight << ", blocks " << head.blocks << " vs "
                    << ref.blocks << ", feasible " << head.feasible << " vs "
                    << ref.feasible;
    }
  }
  return mismatches;
}

TEST(ReferenceCluster, CampaignSocsMatchOracle) {
  const std::vector<ClusterProblem> problems = campaign_cluster_problems();
  std::size_t infeasible = 0;
  EXPECT_EQ(cluster_mismatches(problems, &infeasible), 0u)
      << "of " << problems.size() << " problems";
}

TEST(ReferenceCluster, RandomGraphsMatchOracle) {
  const std::vector<ClusterProblem> problems = random_cluster_problems(12000);
  std::size_t infeasible = 0;
  EXPECT_EQ(cluster_mismatches(problems, &infeasible), 0u)
      << "of " << problems.size() << " problems";
  // Coverage floor: the caps must strand some merges short of k.
  EXPECT_GT(infeasible, problems.size() / 50) << "of " << problems.size();
}

/// One hand-built routing problem of the random router diff.
struct RoutingCase {
  soc::SocSpec spec;
  core::NocTopology topo;
  std::vector<int> max_ports;
  double alpha = 0.7;
  int width = 32;
  bool wire_timing = true;
  models::Technology tech = models::Technology::cmos65nm();
};

/// A seeded random routing problem: 2-4 islands of 1-4 switches and 0-6
/// intermediate switches on an integer grid (bit-equal path costs), up to
/// two cores per switch, port limits a few ports above the core count
/// (the greedy pass often strands a flow and the retry pass runs), and
/// random flows, bandwidths, latency budgets, alpha, width and wire-timing
/// rule. One case in eight puts the intermediate switches first, which
/// the router cannot iterate by island ranges. Every other case zeroes the
/// idle, per-port and leakage coefficients, so that path costs depend on
/// length, hop and crossing counts alone and a lower bound on them is tight
/// to the last bits (where a bound without rounding slack goes wrong).
RoutingCase random_routing_case(std::mt19937& rng) {
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  constexpr double kFreqs[] = {300e6, 500e6, 800e6, 1e9};
  RoutingCase c;
  c.spec.name = "random";
  const int islands = pick(2, 4);
  for (int i = 0; i < islands; ++i) {
    c.spec.islands.push_back({std::to_string(i), 1.0, true});
    c.topo.island_freq_hz.push_back(kFreqs[pick(0, 3)]);
  }
  c.topo.intermediate_freq_hz = kFreqs[pick(0, 3)];
  auto add_switch = [&](soc::IslandId island, double freq) {
    core::SwitchInst sw;
    sw.island = island;
    sw.freq_hz = freq;
    sw.pos = {static_cast<double>(pick(0, 10)), static_cast<double>(pick(0, 10))};
    c.topo.switches.push_back(sw);
  };
  const int ring = pick(0, 6);
  const bool ring_first = pick(0, 7) == 0;
  if (ring_first) {
    for (int k = 0; k < ring; ++k) add_switch(core::kIntermediateIsland, c.topo.intermediate_freq_hz);
  }
  for (int i = 0; i < islands; ++i) {
    const int first = static_cast<int>(c.topo.switches.size());
    const int n_sw = pick(1, 4);
    for (int s = 0; s < n_sw; ++s) add_switch(i, c.topo.island_freq_hz[static_cast<std::size_t>(i)]);
    const int n_cores = pick(1, 2 * n_sw);
    for (int k = 0; k < n_cores; ++k) {
      const auto core = static_cast<soc::CoreId>(c.spec.cores.size());
      soc::CoreSpec cs;
      cs.island = i;
      c.spec.cores.push_back(cs);
      const int sw = first + pick(0, n_sw - 1);
      c.topo.switches[static_cast<std::size_t>(sw)].cores.push_back(core);
      c.topo.switch_of_core.push_back(sw);
      c.topo.ni_wire_mm.push_back(0.5);
    }
  }
  if (!ring_first) {
    for (int k = 0; k < ring; ++k) add_switch(core::kIntermediateIsland, c.topo.intermediate_freq_hz);
  }
  for (const core::SwitchInst& sw : c.topo.switches) {
    c.max_ports.push_back(sw.island == core::kIntermediateIsland
                              ? pick(2, 6)
                              : static_cast<int>(sw.cores.size()) + pick(1, 3));
  }
  const int cores = static_cast<int>(c.spec.cores.size());
  const int flows = pick(2, 14);
  for (int f = 0; f < flows; ++f) {
    soc::Flow fl;
    fl.src = pick(0, cores - 1);
    fl.dst = (fl.src + pick(1, cores - 1)) % cores;
    fl.bandwidth_bits_per_s = std::array{1e8, 2e8, 3e8, 5e8, 8e8}[static_cast<std::size_t>(pick(0, 4))];
    fl.max_latency_cycles = pick(6, 30) + (pick(0, 1) != 0 ? 0.5 : 0.0);
    fl.label = std::to_string(f);
    c.spec.flows.push_back(fl);
  }
  c.alpha = std::array{0.0, 0.3, 0.7, 1.0}[static_cast<std::size_t>(pick(0, 3))];
  c.width = std::array{8, 16, 32}[static_cast<std::size_t>(pick(0, 2))];
  c.wire_timing = pick(0, 1) != 0;
  if (pick(0, 1) == 0) {
    c.tech.sw_idle_power_per_port_w_per_hz = 0.0;
    c.tech.sw_energy_per_port_pj_per_bit = 0.0;
    c.tech.link_leakage_mw_per_wire_mm = 0.0;
    c.tech.fifo_leakage_mw = 0.0;
  }
  return c;
}

/// `c` with its switch order permuted by `rng`: switch_of_core, the cores
/// of each switch and max_ports follow their switches.
RoutingCase shuffled_switches(const RoutingCase& c, std::mt19937& rng) {
  const std::size_t n = c.topo.switches.size();
  std::vector<int> new_index(n);
  for (std::size_t s = 0; s < n; ++s) new_index[s] = static_cast<int>(s);
  std::shuffle(new_index.begin(), new_index.end(), rng);
  RoutingCase out = c;
  for (std::size_t s = 0; s < n; ++s) {
    const auto t = static_cast<std::size_t>(new_index[s]);
    out.topo.switches[t] = c.topo.switches[s];
    out.max_ports[t] = c.max_ports[s];
  }
  for (int& sw : out.topo.switch_of_core) {
    sw = new_index[static_cast<std::size_t>(sw)];
  }
  return out;
}

/// True when some island's (or the intermediate VI's) switches are not
/// index-consecutive.
bool islands_interleave(const core::NocTopology& topo) {
  std::set<soc::IslandId> closed;
  for (std::size_t s = 1; s < topo.switches.size(); ++s) {
    const soc::IslandId prev = topo.switches[s - 1].island;
    if (topo.switches[s].island == prev) continue;
    closed.insert(prev);
    if (closed.count(topo.switches[s].island) != 0) return true;
  }
  return false;
}

/// First difference between the engine's and the oracle's routing of one
/// case, or "" when they agree bit for bit. Topologies are compared on
/// success only: a failed routing leaves them unspecified.
std::string routing_diff(const core::RouteOutcome& e, const core::NocTopology& et,
                         const reference::RouteOutcome& r,
                         const core::NocTopology& rt) {
  if (e.success != r.success) return "success";
  if (e.latency_violation != r.latency_violation) return "latency_violation";
  if (e.flows_routed != r.flows_routed) return "flows_routed";
  if (!e.success) return "";
  if (et.links.size() != rt.links.size()) return "link count";
  for (std::size_t l = 0; l < rt.links.size(); ++l) {
    const core::TopLink& a = et.links[l];
    const core::TopLink& b = rt.links[l];
    if (a.src_switch != b.src_switch || a.dst_switch != b.dst_switch ||
        std::bit_cast<std::uint64_t>(a.carried_bw_bits_per_s) !=
            std::bit_cast<std::uint64_t>(b.carried_bw_bits_per_s)) {
      return "link " + std::to_string(l);
    }
  }
  for (std::size_t f = 0; f < rt.routes.size(); ++f) {
    if (et.routes[f].links != rt.routes[f].links ||
        std::bit_cast<std::uint64_t>(et.routes[f].latency_cycles) !=
            std::bit_cast<std::uint64_t>(rt.routes[f].latency_cycles)) {
      return "route of flow " + std::to_string(f);
    }
  }
  return "";
}

TEST(ReferenceRouter, RandomTopologiesMatchOracle) {
  std::mt19937 rng(23);
  // The shuffles draw from their own stream, so the cases above do not move.
  std::mt19937 shuffle_rng(24);
  core::RouterScratch scratch;  // one arena across every case
  int mismatches = 0;
  int routed = 0;
  int latency_failures = 0;
  int ring_routed = 0;
  int interleaved = 0;
  constexpr int kCases = 20000;
  // Routes `c` through both routers; returns the oracle's outcome and
  // topology.
  auto diff_case = [&](const RoutingCase& c, int i, const char* layout) {
    core::RouterOptions eo;
    eo.alpha_power = c.alpha;
    eo.link_width_bits = c.width;
    eo.tech = c.tech;
    eo.max_ports = c.max_ports;
    eo.enforce_wire_timing = c.wire_timing;
    reference::RouterOptions ro;
    ro.alpha_power = c.alpha;
    ro.link_width_bits = c.width;
    ro.tech = c.tech;
    ro.max_ports = c.max_ports;
    ro.enforce_wire_timing = c.wire_timing;
    core::NocTopology et = c.topo;
    core::NocTopology rt = c.topo;
    const core::RouteOutcome e = core::route_all_flows(et, c.spec, eo, &scratch);
    reference::RouteOutcome r = reference::route_all_flows(rt, c.spec, ro);
    const std::string diff = routing_diff(e, et, r, rt);
    if (!diff.empty() && ++mismatches <= 5) {
      ADD_FAILURE() << "random routing case " << i << " (" << layout
                    << " layout, alpha " << c.alpha << ", width " << c.width
                    << ", " << c.topo.switches.size() << " switches, "
                    << c.spec.flows.size() << " flows): " << diff;
    }
    return std::make_pair(std::move(r), std::move(rt));
  };
  for (int i = 0; i < kCases; ++i) {
    const RoutingCase c = random_routing_case(rng);
    const auto [r, rt] = diff_case(c, i, "generated");
    if (std::uniform_int_distribution<int>(0, 3)(shuffle_rng) == 0) {
      const RoutingCase shuffled = shuffled_switches(c, shuffle_rng);
      interleaved += islands_interleave(shuffled.topo) ? 1 : 0;
      (void)diff_case(shuffled, i, "shuffled");
    }
    routed += r.success ? 1 : 0;
    latency_failures += r.latency_violation ? 1 : 0;
    if (r.success) {
      for (const core::TopLink& l : rt.links) {
        if (rt.switches[static_cast<std::size_t>(l.src_switch)].island ==
            core::kIntermediateIsland) {
          ++ring_routed;
          break;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kCases << " cases";
  // The generator reaches every outcome: routed designs, routes through
  // the intermediate switches, latency and structural failures.
  EXPECT_GT(routed, kCases / 5);
  EXPECT_GT(ring_routed, kCases / 100);
  EXPECT_GT(latency_failures, kCases / 50);
  EXPECT_GT(kCases - routed - latency_failures, kCases / 50);
  // The shuffled layouts interleave islands (one case in four is shuffled).
  EXPECT_GT(interleaved, kCases / 5);
}

}  // namespace
}  // namespace vinoc
