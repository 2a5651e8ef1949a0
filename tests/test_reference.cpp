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
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "reference/algorithm1.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/synthesis.hpp"
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

}  // namespace
}  // namespace vinoc
