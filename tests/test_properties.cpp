// End-to-end property tests: for a grid of random synthetic SoCs and
// islanding variants, for the seed benchmarks d26/l4, d36/l5 and d64/l2,
// and for every feasible entry of a d26/l4 width sweep, every design point
// the synthesizer saves must satisfy the full invariant set the paper's
// claims rest on:
//   1. the topology is structurally consistent (validate());
//   2. shutdown safety: no flow transits a third gateable island;
//   3. no routing deadlock (CDG acyclic);
//   4. every flow meets its latency budget;
//   5. bandwidth headroom >= 1 (no over-committed link or NI);
//   6. switch port counts respect the frequency-derived caps;
//   7. the reported cut/power metrics are internally consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "vinoc/core/deadlock.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/shutdown_safety.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/sim/simulator.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc {
namespace {

/// Checks invariants 1-7 on every saved point of `result`, synthesized
/// from `spec` at `link_width_bits`. `where` labels failures.
void expect_invariants_on_every_point(const soc::SocSpec& spec,
                                      const core::SynthesisResult& result,
                                      int link_width_bits,
                                      const std::string& where) {
  ASSERT_FALSE(result.points.empty()) << where;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const core::DesignPoint& p = result.points[i];
    SCOPED_TRACE(where + " point " + std::to_string(i));
    // 1. structural consistency
    const auto problems = p.topology.validate(spec);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
    // 2. shutdown safety
    EXPECT_TRUE(core::verify_shutdown_safety(p.topology, spec).empty());
    // 3. deadlock freedom
    EXPECT_TRUE(core::is_deadlock_free(p.topology));
    // 4. latency budgets
    for (std::size_t f = 0; f < spec.flows.size(); ++f) {
      EXPECT_LE(p.topology.routes[f].latency_cycles,
                spec.flows[f].max_latency_cycles + 1e-9);
    }
    // 5. bandwidth headroom
    EXPECT_GE(sim::find_saturation_scale(p.topology, spec, link_width_bits),
              1.0 - 1e-9);
    // 6. port caps
    for (std::size_t s = 0; s < p.topology.switches.size(); ++s) {
      const soc::IslandId isl = p.topology.switches[s].island;
      const int cap =
          isl == core::kIntermediateIsland
              ? result.intermediate_params.max_sw_size
              : result.island_params[static_cast<std::size_t>(isl)].max_sw_size;
      EXPECT_LE(p.topology.switch_ports_in(static_cast<int>(s)), cap);
      EXPECT_LE(p.topology.switch_ports_out(static_cast<int>(s)), cap);
    }
    // 7. metric consistency
    const core::Metrics fresh =
        core::compute_metrics(p.topology, spec, core::SynthesisOptions{}.tech,
                              link_width_bits);
    EXPECT_NEAR(fresh.noc_dynamic_w, p.metrics.noc_dynamic_w,
                1e-9 * std::max(1.0, p.metrics.noc_dynamic_w));
    EXPECT_NEAR(fresh.avg_latency_cycles, p.metrics.avg_latency_cycles, 1e-9);
  }
}

struct Case {
  int cores;
  int hubs;
  unsigned seed;
  int islands;
  bool comm;  ///< communication-based (vs. logical) islanding
};

class RandomSocPropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(RandomSocPropertyTest, AllInvariantsHoldOnEveryDesignPoint) {
  const Case c = GetParam();
  soc::SyntheticParams params;
  params.cores = c.cores;
  params.hubs = c.hubs;
  params.seed = c.seed;
  params.flows_per_core = 2.2;
  const soc::Benchmark bm = soc::make_synthetic_soc(params);
  const soc::SocSpec spec =
      c.comm ? soc::with_communication_islands(bm.soc, c.islands, bm.use_cases)
             : soc::with_logical_islands(bm.soc, c.islands, bm.use_cases);
  ASSERT_TRUE(spec.validate().empty());
  expect_invariants_on_every_point(
      spec, core::synthesize(spec), core::SynthesisOptions{}.link_width_bits,
      "cores=" + std::to_string(c.cores) + " seed=" + std::to_string(c.seed) +
          " islands=" + std::to_string(c.islands));
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  unsigned seed = 1000;
  for (const int cores : {10, 16, 24, 40}) {
    for (const int islands : {2, 3, 5}) {
      for (const bool comm : {false, true}) {
        cases.push_back(Case{cores, std::max(1, cores / 10), ++seed, islands, comm});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, RandomSocPropertyTest,
                         ::testing::ValuesIn(make_cases()));

// The seed benchmarks at the scale the engine's shortcuts (delta replay,
// member skips, pruning) actually fire, and a width sweep whose widths
// change island frequencies and port caps.
TEST(SeedBenchmarkProperties, AllInvariantsHoldOnEveryDesignPoint) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::Benchmark d36 = soc::make_d36_settop_soc();
  const soc::Benchmark d64 = soc::make_d64_tile_soc();
  const struct {
    const char* name;
    soc::SocSpec spec;
  } cases[] = {
      {"d26/l4", soc::with_logical_islands(d26.soc, 4, d26.use_cases)},
      {"d36/l5", soc::with_logical_islands(d36.soc, 5, d36.use_cases)},
      {"d64/l2", soc::with_logical_islands(d64.soc, 2, d64.use_cases)},
  };
  const core::SynthesisOptions opt;
  for (const auto& c : cases) {
    ASSERT_TRUE(c.spec.validate().empty()) << c.name;
    expect_invariants_on_every_point(c.spec, core::synthesize(c.spec, opt),
                                     opt.link_width_bits, c.name);
  }

  const soc::SocSpec& d26_l4 = cases[0].spec;
  int feasible = 0;
  for (const core::WidthSweepEntry& e :
       core::explore_link_widths(d26_l4, {16, 32, 64, 128}, opt).entries) {
    if (!e.feasible) continue;
    ++feasible;
    expect_invariants_on_every_point(
        d26_l4, e.result, e.width_bits,
        "d26/l4 sweep width " + std::to_string(e.width_bits));
  }
  EXPECT_GE(feasible, 3);
}

// Separately: the synthesizer's determinism over the same random SoC.
TEST(RandomSocDeterminism, IdenticalResultsAcrossRuns) {
  soc::SyntheticParams params;
  params.cores = 20;
  params.seed = 77;
  const soc::Benchmark bm = soc::make_synthetic_soc(params);
  const soc::SocSpec spec = soc::with_logical_islands(bm.soc, 4, bm.use_cases);
  const core::SynthesisResult a = core::synthesize(spec);
  const core::SynthesisResult b = core::synthesize(spec);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].metrics.noc_dynamic_w,
                     b.points[i].metrics.noc_dynamic_w);
    EXPECT_EQ(a.points[i].topology.links.size(), b.points[i].topology.links.size());
  }
  EXPECT_EQ(a.pareto, b.pareto);
}

}  // namespace
}  // namespace vinoc
