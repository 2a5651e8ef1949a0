// Differential test against an independent oracle: the seed's plain
// Algorithm 1 (tests/reference/), which shares no routing, evaluation or
// merge code with the engine — its own dense-Dijkstra router, switch
// build, compaction, refinement, signature dedup and Pareto merge, calling
// only the leaf modules (soc, floorplan, partition + VCG, frequency,
// metrics, deadlock). Every other bit-identity test compares two paths of
// the engine that share Router::choose_hop, so a change to the shared
// kernel moves both sides together; this test says which side is right.
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
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "reference/algorithm1.hpp"
#include "reference/partition.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/frequency.hpp"
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
struct PartitionProblem {
  std::string where;
  graph::Digraph graph;
  partition::KwayOptions options;
};

/// Appends every distinct (island, switch count, block cap) problem that
/// synthesizing `spec` at each of `widths` asks the partitioner, once per
/// partition seed 1-4. Infeasible widths issue none.
void add_synthesis_problems(const std::string& name, const soc::SocSpec& spec,
                            const std::vector<int>& widths,
                            std::vector<PartitionProblem>& out) {
  const core::VcgScaling scaling = core::vcg_scaling(spec);
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
        const graph::Digraph vcg =
            core::build_vcg(spec, static_cast<soc::IslandId>(isl), opt.alpha, scaling);
        for (unsigned seed = 1; seed <= 4; ++seed) {
          partition::KwayOptions kopts;
          kopts.blocks = k;
          kopts.max_block_size = cap;
          kopts.seed = seed;
          out.push_back({name + " island " + std::to_string(isl) + " k " +
                             std::to_string(k) + " cap " + std::to_string(cap) +
                             " seed " + std::to_string(seed),
                         vcg, kopts});
        }
      }
    }
  }
}

/// The problems of the benchmark inputs: d26 and d64 at several island
/// counts and widths, and the campaign-mix synthetic SoCs.
std::vector<PartitionProblem> benchmark_problems() {
  std::vector<PartitionProblem> out;
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::Benchmark d64 = soc::make_d64_tile_soc();
  for (int islands = 2; islands <= 6; ++islands) {
    add_synthesis_problems("d26_l" + std::to_string(islands), logical(d26, islands),
                           {16, 32, 64, 128}, out);
  }
  for (const int islands : {2, 4, 6}) {
    add_synthesis_problems("d64_l" + std::to_string(islands), logical(d64, islands),
                           {32, 64, 128, 256}, out);
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
                               {32, 64}, out);
        add_synthesis_problems(base + "_comm" + l,
                               soc::with_communication_islands(b.soc, islands, b.use_cases),
                               {32, 64}, out);
      }
    }
  };
  add_synthetic(24, 3, 1, 7);
  add_synthetic(36, 4, 5, 3);
  return out;
}

/// Seeded random graphs covering the corners the benchmark inputs do not:
/// self loops, parallel and antiparallel edges, zero weights, weights up to
/// ~1e9, no cap or a tight one, and every block count from 1 to n.
std::vector<PartitionProblem> random_problems(std::size_t count) {
  std::vector<PartitionProblem> out;
  out.reserve(count);
  std::mt19937 rng(20091);
  const double scales[] = {1.0, 1e3, 1e6, 1e9};
  for (std::size_t i = 0; i < count; ++i) {
    const int n = std::uniform_int_distribution<int>(1, 40)(rng);
    graph::Digraph g(static_cast<std::size_t>(n));
    const double scale = scales[i % 4];
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
                   std::move(g), kopts});
  }
  return out;
}

/// Runs both partitioners on every problem, four threads at a time;
/// returns the number that differ in blocks, cut bits or feasibility and
/// reports the first few.
std::size_t partition_mismatches(const std::vector<PartitionProblem>& problems,
                                 bool require_feasible) {
  struct Verdict {
    bool same = false;
    bool feasible = false;
  };
  std::vector<Verdict> verdicts(problems.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < problems.size();) {
        const PartitionProblem& p = problems[i];
        const partition::PartitionResult head = partition::kway_mincut(p.graph, p.options);
        const partition::PartitionResult ref = reference::kway_mincut(p.graph, p.options);
        verdicts[i].same = head.block_of == ref.block_of && head.blocks == ref.blocks &&
                           std::bit_cast<std::uint64_t>(head.cut_weight) ==
                               std::bit_cast<std::uint64_t>(ref.cut_weight) &&
                           head.feasible == ref.feasible;
        verdicts[i].feasible = ref.feasible;
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const PartitionProblem& p = problems[i];
    if (!verdicts[i].same && ++mismatches <= 5) {
      const partition::PartitionResult head = partition::kway_mincut(p.graph, p.options);
      const partition::PartitionResult ref = reference::kway_mincut(p.graph, p.options);
      ADD_FAILURE() << p.where << ": cut " << head.cut_weight << " vs oracle "
                    << ref.cut_weight << ", feasible " << head.feasible << " vs "
                    << ref.feasible;
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

}  // namespace
}  // namespace vinoc
