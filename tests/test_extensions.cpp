// Tests for the extension modules: deadlock-freedom verification, link-width
// exploration, power-gating transition overhead, and gnuplot emitters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "vinoc/core/deadlock.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/io/plots.hpp"
#include "vinoc/power/transitions.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc {
namespace {

// ---- Deadlock freedom -------------------------------------------------------

core::NocTopology three_switch_ring_topology(soc::SocSpec& spec) {
  // One island, three switches, three cores; links 0->1, 1->2, 2->0.
  spec = soc::SocSpec{};
  spec.name = "ring";
  spec.islands = {{"vi0", 1.0, false}};
  core::NocTopology topo;
  topo.island_freq_hz = {400e6};
  for (int i = 0; i < 3; ++i) {
    soc::CoreSpec c;
    c.name = "c" + std::to_string(i);
    c.island = 0;
    spec.cores.push_back(c);
    core::SwitchInst sw;
    sw.island = 0;
    sw.freq_hz = 400e6;
    sw.cores = {static_cast<soc::CoreId>(i)};
    topo.switches.push_back(sw);
    topo.switch_of_core.push_back(i);
    topo.ni_wire_mm.push_back(0.5);
  }
  for (int i = 0; i < 3; ++i) {
    core::TopLink l;
    l.src_switch = i;
    l.dst_switch = (i + 1) % 3;
    l.carried_bw_bits_per_s = 1e9;
    topo.links.push_back(l);
  }
  return topo;
}

TEST(Deadlock, TwoHopRoutesAreAcyclic) {
  soc::SocSpec spec;
  core::NocTopology topo = three_switch_ring_topology(spec);
  // Flows 0->2 (via links 0,1) only: chain dependency, no cycle.
  soc::Flow f;
  f.src = 0;
  f.dst = 2;
  f.bandwidth_bits_per_s = 1e9;
  f.max_latency_cycles = 30;
  f.label = "f0";
  spec.flows.push_back(f);
  core::FlowRoute r;
  r.src_switch = 0;
  r.dst_switch = 2;
  r.links = {0, 1};
  topo.links[0].flows = {0};
  topo.links[1].flows = {0};
  topo.routes = {r};
  EXPECT_TRUE(core::is_deadlock_free(topo));
}

TEST(Deadlock, CyclicRingDependencyDetected) {
  soc::SocSpec spec;
  core::NocTopology topo = three_switch_ring_topology(spec);
  // Three 2-hop flows chasing each other around the ring: 0->2 uses links
  // (0,1), 1->0 uses (1,2), 2->1 uses (2,0) — the CDG is the full cycle.
  auto add_flow = [&spec](int s, int d) {
    soc::Flow f;
    f.src = s;
    f.dst = d;
    f.bandwidth_bits_per_s = 1e9;
    f.max_latency_cycles = 30;
    f.label = "f" + std::to_string(spec.flows.size());
    spec.flows.push_back(f);
  };
  add_flow(0, 2);
  add_flow(1, 0);
  add_flow(2, 1);
  topo.routes.resize(3);
  topo.routes[0] = {0, 2, {0, 1}, 0, 0};
  topo.routes[1] = {1, 0, {1, 2}, 0, 0};
  topo.routes[2] = {2, 1, {2, 0}, 0, 0};
  EXPECT_FALSE(core::is_deadlock_free(topo));
}

TEST(Deadlock, SameLinkTwiceInARowIsASelfLoopCycle) {
  soc::SocSpec spec;
  core::NocTopology topo = three_switch_ring_topology(spec);
  // A route that takes link 0 and then link 0 again depends on itself: the
  // CDG gets the self-loop 0 -> 0, a one-link cycle.
  topo.routes = {{0, 1, {0, 0}, 0, 0}};
  const graph::Digraph cdg = core::build_channel_dependency_graph(topo);
  ASSERT_EQ(cdg.edge_count(), 1u);
  EXPECT_EQ(cdg.edges()[0].src, 0);
  EXPECT_EQ(cdg.edges()[0].dst, 0);
  EXPECT_FALSE(core::is_deadlock_free(topo));
}

TEST(Deadlock, SharedDependencyPairCountedOnceAndFree) {
  soc::SocSpec spec;
  core::NocTopology topo = three_switch_ring_topology(spec);
  // Two flows both go link 0 -> link 1: one CDG edge, witnessed by the
  // first flow, and still a chain.
  topo.routes = {{0, 2, {0, 1}, 0, 0}, {0, 2, {0, 1}, 0, 0}};
  const graph::Digraph cdg = core::build_channel_dependency_graph(topo);
  ASSERT_EQ(cdg.edge_count(), 1u);
  EXPECT_EQ(cdg.edges()[0].user, 0);
  EXPECT_TRUE(core::is_deadlock_free(topo));
}

TEST(Deadlock, CdgStructureMatchesRoutes) {
  soc::SocSpec spec;
  core::NocTopology topo = three_switch_ring_topology(spec);
  topo.routes.resize(1);
  topo.routes[0] = {0, 2, {0, 1}, 0, 0};
  spec.flows.resize(1);
  const graph::Digraph cdg = core::build_channel_dependency_graph(topo);
  EXPECT_EQ(cdg.node_count(), topo.links.size());
  ASSERT_EQ(cdg.edge_count(), 1u);
  EXPECT_EQ(cdg.edges()[0].src, 0);
  EXPECT_EQ(cdg.edges()[0].dst, 1);
  EXPECT_EQ(cdg.edges()[0].user, 0);  // witnessing flow
}

class DeadlockFreedomTest : public ::testing::TestWithParam<int> {};

TEST_P(DeadlockFreedomTest, AllD26DesignPointsDeadlockFree) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec =
      soc::with_logical_islands(d26.soc, GetParam(), d26.use_cases);
  const core::SynthesisResult r = core::synthesize(spec);
  ASSERT_FALSE(r.points.empty());
  for (const core::DesignPoint& p : r.points) {
    EXPECT_TRUE(core::is_deadlock_free(p.topology));
  }
}

INSTANTIATE_TEST_SUITE_P(IslandCounts, DeadlockFreedomTest,
                         ::testing::Values(1, 3, 6, 7, 26));

TEST(Deadlock, AllBenchmarksDeadlockFree) {
  for (const soc::Benchmark& bm : soc::all_benchmarks()) {
    const soc::SocSpec spec = soc::with_logical_islands(bm.soc, 4, bm.use_cases);
    const core::SynthesisResult r = core::synthesize(spec);
    ASSERT_FALSE(r.points.empty()) << bm.soc.name;
    EXPECT_TRUE(core::is_deadlock_free(r.best_power().topology)) << bm.soc.name;
  }
}

// ---- Link-width exploration -------------------------------------------------

TEST(WidthSweep, MergesDesignSpacesAcrossWidths) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec = soc::with_logical_islands(d26.soc, 6, d26.use_cases);
  const core::WidthSweepResult sweep =
      core::explore_link_widths(spec, {16, 32, 64});
  ASSERT_EQ(sweep.entries.size(), 3u);
  EXPECT_FALSE(sweep.entries[0].feasible);  // 16-bit: NI link overloads
  EXPECT_TRUE(sweep.entries[1].feasible);
  EXPECT_TRUE(sweep.entries[2].feasible);
  ASSERT_FALSE(sweep.pareto.empty());
  // The merged front must be at least as good as either single-width front.
  const double best32 =
      sweep.entries[1].result.best_power().metrics.noc_dynamic_w;
  const double best64 =
      sweep.entries[2].result.best_power().metrics.noc_dynamic_w;
  const double merged_best =
      sweep.point(sweep.pareto.front()).metrics.noc_dynamic_w;
  EXPECT_LE(merged_best, std::min(best32, best64) + 1e-12);
}

TEST(WidthSweep, ParetoIsNonDominatedAndCarriesWidths) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec = soc::with_logical_islands(d26.soc, 4, d26.use_cases);
  const core::WidthSweepResult sweep = core::explore_link_widths(spec, {32, 64});
  double prev_power = -1.0;
  double prev_lat = std::numeric_limits<double>::infinity();
  for (const core::GlobalPointRef& ref : sweep.pareto) {
    const core::Metrics& m = sweep.point(ref).metrics;
    EXPECT_GE(m.noc_dynamic_w, prev_power);
    EXPECT_LT(m.avg_latency_cycles, prev_lat);
    prev_power = m.noc_dynamic_w;
    prev_lat = m.avg_latency_cycles;
    EXPECT_TRUE(sweep.width_of(ref) == 32 || sweep.width_of(ref) == 64);
  }
}

TEST(WidthSweep, RejectsBadArguments) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec = soc::with_logical_islands(d26.soc, 2, d26.use_cases);
  EXPECT_THROW((void)core::explore_link_widths(spec, {}), std::invalid_argument);
  EXPECT_THROW((void)core::explore_link_widths(spec, {0}), std::invalid_argument);
}

// ---- Gating transition overhead ---------------------------------------------

struct TransitionFixture {
  soc::SocSpec spec;
  power::ShutdownReport report;

  TransitionFixture() {
    const soc::Benchmark d26 = soc::make_d26_media_soc();
    spec = soc::with_logical_islands(d26.soc, 7, d26.use_cases);
    const core::SynthesisResult r = core::synthesize(spec);
    report = power::evaluate_shutdown_savings(
        spec, r.best_power().topology, models::Technology::cmos65nm());
  }
};

TEST(Transitions, SecondLongDwellKeepsMostSavings) {
  const TransitionFixture fx;
  const power::TransitionReport t =
      power::evaluate_transition_overhead(fx.spec, fx.report);
  EXPECT_GT(t.wakeups_per_s, 0.0);
  EXPECT_GT(t.transition_power_w, 0.0);
  // At 1 s dwell the transition tax must be well under 5% of the savings.
  EXPECT_GT(t.net_saved_w, fx.report.saved_w * 0.95);
  EXPECT_GT(t.breakeven_dwell_s, 0.0);
  EXPECT_LT(t.breakeven_dwell_s, 1.0);
}

TEST(Transitions, ShortDwellEatsSavings) {
  const TransitionFixture fx;
  power::TransitionModel fast;
  fast.scenario_dwell_s = 1e-5;  // absurd 10 us dwell
  const power::TransitionReport t =
      power::evaluate_transition_overhead(fx.spec, fx.report, fast);
  EXPECT_LT(t.net_saved_w, fx.report.saved_w);
  EXPECT_LT(t.net_saved_w, 0.0);  // gating is counterproductive here
}

TEST(Transitions, BreakevenConsistentWithModel) {
  const TransitionFixture fx;
  const power::TransitionReport base =
      power::evaluate_transition_overhead(fx.spec, fx.report);
  // Evaluating exactly at the break-even dwell must give ~zero net savings.
  power::TransitionModel at_breakeven;
  at_breakeven.scenario_dwell_s = base.breakeven_dwell_s;
  const power::TransitionReport t =
      power::evaluate_transition_overhead(fx.spec, fx.report, at_breakeven);
  EXPECT_NEAR(t.net_saved_w, 0.0, fx.report.saved_w * 1e-6);
}

TEST(Transitions, RejectsBadInputs) {
  const TransitionFixture fx;
  soc::SocSpec no_scen = fx.spec;
  no_scen.scenarios.clear();
  EXPECT_THROW(
      (void)power::evaluate_transition_overhead(no_scen, fx.report),
      std::invalid_argument);
  power::TransitionModel bad;
  bad.scenario_dwell_s = 0.0;
  EXPECT_THROW(
      (void)power::evaluate_transition_overhead(fx.spec, fx.report, bad),
      std::invalid_argument);
}

// ---- Gnuplot emitters ---------------------------------------------------------

TEST(Plots, DataHasOneIndexBlockPerSeries) {
  io::PlotSpec plot;
  plot.title = "t";
  plot.series = {{"a", {{1, 2}, {2, 3}}}, {"b", {{1, 5}}}};
  const std::string dat = io::plot_data(plot);
  EXPECT_NE(dat.find("# series: a"), std::string::npos);
  EXPECT_NE(dat.find("# series: b"), std::string::npos);
  EXPECT_NE(dat.find("1 2"), std::string::npos);
  EXPECT_NE(dat.find("2 3"), std::string::npos);
  // Index separator: a blank double-newline between blocks.
  EXPECT_NE(dat.find("\n\n\n"), std::string::npos);
}

TEST(Plots, ScriptReferencesEverySeries) {
  io::PlotSpec plot;
  plot.title = "Figure 2";
  plot.xlabel = "islands";
  plot.ylabel = "mW";
  plot.series = {{"logical", {{1, 60}}}, {"comm", {{1, 55}}}};
  const std::string gp = io::plot_script(plot, "f.dat", "f.png");
  EXPECT_NE(gp.find("set output 'f.png'"), std::string::npos);
  EXPECT_NE(gp.find("index 0"), std::string::npos);
  EXPECT_NE(gp.find("index 1"), std::string::npos);
  EXPECT_NE(gp.find("title 'logical'"), std::string::npos);
  EXPECT_NE(gp.find("title 'comm'"), std::string::npos);
}

TEST(Plots, WritePlotEmitsBothFiles) {
  io::PlotSpec plot;
  plot.title = "t";
  plot.series = {{"s", {{0, 0}, {1, 1}}}};
  const std::string base = ::testing::TempDir() + "/vinoc_plot_test";
  io::write_plot(base, plot);
  std::ifstream dat(base + ".dat");
  std::ifstream gp(base + ".gp");
  EXPECT_TRUE(dat.good());
  EXPECT_TRUE(gp.good());
  std::remove((base + ".dat").c_str());
  std::remove((base + ".gp").c_str());
  io::PlotSpec empty;
  EXPECT_THROW(io::write_plot(base, empty), std::runtime_error);
}

}  // namespace
}  // namespace vinoc
