// Tests for the VI communication graph (Definition 1) and the frequency /
// switch-size derivation (Algorithm 1 steps 1-2).
#include <gtest/gtest.h>

#include "vinoc/core/frequency.hpp"
#include "vinoc/core/vcg.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

soc::SocSpec two_island_spec() {
  soc::SocSpec s;
  // Not `= "t"`: GCC 12 at -O3 reports a false -Wrestrict on that here.
  s.name = std::string("t");
  s.islands = {{"vi0", 1.0, false}, {"vi1", 1.0, true}};
  auto add = [&s](const char* name, soc::IslandId isl) {
    soc::CoreSpec c;
    c.name = name;
    c.island = isl;
    s.cores.push_back(c);
  };
  add("a", 0);
  add("b", 0);
  add("c", 0);
  add("d", 1);
  auto flow = [&s](int src, int dst, double bw, double lat) {
    soc::Flow f;
    f.src = src;
    f.dst = dst;
    f.bandwidth_bits_per_s = bw;
    f.max_latency_cycles = lat;
    f.label = std::to_string(src) + "->" + std::to_string(dst);
    s.flows.push_back(f);
  };
  flow(0, 1, 4e9, 20);  // a->b, heavy
  flow(1, 2, 1e9, 10);  // b->c, tight latency
  flow(0, 3, 2e9, 40);  // a->d, crosses islands
  return s;
}

TEST(VcgScalingTest, ExtremesOverAllFlows) {
  const VcgScaling s = vcg_scaling(two_island_spec());
  EXPECT_DOUBLE_EQ(s.max_bw_bits_per_s, 4e9);
  EXPECT_DOUBLE_EQ(s.min_lat_cycles, 10.0);
}

TEST(VcgScalingTest, EmptySpecGetsNeutralScaling) {
  soc::SocSpec s;
  const VcgScaling sc = vcg_scaling(s);
  EXPECT_GT(sc.max_bw_bits_per_s, 0.0);
  EXPECT_GT(sc.min_lat_cycles, 0.0);
}

TEST(BuildVcg, OnlyIntraIslandEdges) {
  const soc::SocSpec s = two_island_spec();
  const graph::Digraph vcg = build_vcg(s, 0, 0.5, vcg_scaling(s));
  EXPECT_EQ(vcg.node_count(), 3u);  // a, b, c
  EXPECT_EQ(vcg.edge_count(), 2u);  // a->b and b->c; a->d crosses
  EXPECT_EQ(vcg.edges()[1].src, 1);  // node i = cores_in_island(0)[i]: b
  EXPECT_EQ(vcg.edges()[1].dst, 2);  // c
}

TEST(BuildVcg, DefinitionOneWeights) {
  const soc::SocSpec s = two_island_spec();
  const double alpha = 0.6;
  const graph::Digraph vcg = build_vcg(s, 0, alpha, vcg_scaling(s));
  // h(a->b) = 0.6 * 4e9/4e9 + 0.4 * 10/20 = 0.6 + 0.2 = 0.8
  // h(b->c) = 0.6 * 1e9/4e9 + 0.4 * 10/10 = 0.15 + 0.4 = 0.55
  EXPECT_NEAR(vcg.edges()[0].weight, 0.8, 1e-12);
  EXPECT_NEAR(vcg.edges()[1].weight, 0.55, 1e-12);
  // Edge::user carries the flow index.
  EXPECT_EQ(vcg.edges()[0].user, 0);
  EXPECT_EQ(vcg.edges()[1].user, 1);
}

TEST(BuildVcg, AlphaExtremes) {
  const soc::SocSpec s = two_island_spec();
  // alpha = 1: pure bandwidth.
  const graph::Digraph bw_only = build_vcg(s, 0, 1.0, vcg_scaling(s));
  EXPECT_NEAR(bw_only.edges()[0].weight, 1.0, 1e-12);
  EXPECT_NEAR(bw_only.edges()[1].weight, 0.25, 1e-12);
  // alpha = 0: pure latency tightness.
  const graph::Digraph lat_only = build_vcg(s, 0, 0.0, vcg_scaling(s));
  EXPECT_NEAR(lat_only.edges()[0].weight, 0.5, 1e-12);
  EXPECT_NEAR(lat_only.edges()[1].weight, 1.0, 1e-12);
}

TEST(BuildVcg, RejectsBadAlphaAndScaling) {
  const soc::SocSpec s = two_island_spec();
  const VcgScaling scaling = vcg_scaling(s);
  EXPECT_THROW((void)build_vcg(s, 0, -0.1, scaling), std::invalid_argument);
  EXPECT_THROW((void)build_vcg(s, 0, 1.1, scaling), std::invalid_argument);
  EXPECT_THROW((void)build_vcg(s, 0, 0.5, VcgScaling{0.0, 1.0}),
               std::invalid_argument);
}

TEST(BuildVcg, D26IslandNodeCountsMatch) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec = soc::with_logical_islands(d26.soc, 6, d26.use_cases);
  std::size_t total_nodes = 0;
  for (std::size_t isl = 0; isl < spec.island_count(); ++isl) {
    total_nodes += build_vcg(spec, static_cast<soc::IslandId>(isl), 0.6,
                             vcg_scaling(spec))
                       .node_count();
  }
  EXPECT_EQ(total_nodes, spec.core_count());
}

// ---- Frequency derivation (Algorithm 1, steps 1-2) ------------------------

TEST(Frequency, IslandClockSetByHungriestNiLink) {
  const soc::SocSpec s = two_island_spec();
  const models::Technology tech = models::Technology::cmos65nm();
  const auto params = derive_island_params(s, tech, 32);
  ASSERT_EQ(params.size(), 2u);
  // Island 0: core a sends 4e9 + 2e9 = 6e9 bits/s => 187.5 MHz => 200 MHz.
  EXPECT_DOUBLE_EQ(params[0].freq_hz, 200e6);
  // Island 1: core d receives 2e9 => 62.5 MHz => 100 MHz.
  EXPECT_DOUBLE_EQ(params[1].freq_hz, 100e6);
  EXPECT_EQ(params[0].core_count, 3);
  EXPECT_EQ(params[1].core_count, 1);
}

TEST(Frequency, WiderLinksLowerTheClock) {
  const soc::SocSpec s = two_island_spec();
  const models::Technology tech = models::Technology::cmos65nm();
  const auto narrow = derive_island_params(s, tech, 32);
  const auto wide = derive_island_params(s, tech, 64);
  EXPECT_LE(wide[0].freq_hz, narrow[0].freq_hz);
}

TEST(Frequency, MaxSwitchSizeDecreasesWithClock) {
  const soc::SocSpec s = two_island_spec();
  const models::Technology tech = models::Technology::cmos65nm();
  const auto params = derive_island_params(s, tech, 32);
  const models::SwitchModel sw(tech);
  for (const IslandNocParams& p : params) {
    EXPECT_EQ(p.max_sw_size, sw.max_ports_at(p.freq_hz));
    EXPECT_GE(p.max_sw_size, 2);
  }
}

TEST(Frequency, MinSwitchesCoversCores) {
  // 9 cores in one island with enough traffic to cap switches at few ports.
  soc::SocSpec s;
  s.islands = {{"vi0", 1.0, false}};
  for (int i = 0; i < 9; ++i) {
    soc::CoreSpec c;
    c.name = std::string("c") + std::to_string(i);
    c.island = 0;
    s.cores.push_back(c);
  }
  // One very hot core pushes the island clock high (=> small switches).
  soc::Flow f;
  f.src = 0;
  f.dst = 1;
  f.bandwidth_bits_per_s = 25.6e9;  // 800 MHz at 32 bits
  f.max_latency_cycles = 30;
  s.flows.push_back(f);
  const models::Technology tech = models::Technology::cmos65nm();
  const auto params = derive_island_params(s, tech, 32, /*port_reserve=*/1);
  ASSERT_EQ(params.size(), 1u);
  const int usable = params[0].max_sw_size - 1;
  EXPECT_EQ(params[0].min_switches, (9 + usable - 1) / usable);
  EXPECT_GE(params[0].min_switches, 1);
}

TEST(Frequency, OverloadedNiLinkFlagged) {
  soc::SocSpec s = two_island_spec();
  s.flows[0].bandwidth_bits_per_s = 40e9;  // > 32 bits * 1 GHz
  const models::Technology tech = models::Technology::cmos65nm();
  const auto params = derive_island_params(s, tech, 32);
  EXPECT_EQ(params[0].max_sw_size, 0);  // sentinel: widen the links
}

TEST(Frequency, IntermediateRunsAtFastestIslandClock) {
  const soc::SocSpec s = two_island_spec();
  const models::Technology tech = models::Technology::cmos65nm();
  const auto params = derive_island_params(s, tech, 32);
  const IslandNocParams inter = derive_intermediate_params(params, tech);
  EXPECT_DOUBLE_EQ(inter.freq_hz, 200e6);
  EXPECT_EQ(inter.core_count, 0);
  EXPECT_EQ(inter.min_switches, 0);
}

TEST(Frequency, RejectsBadArguments) {
  const soc::SocSpec s = two_island_spec();
  const models::Technology tech = models::Technology::cmos65nm();
  EXPECT_THROW((void)derive_island_params(s, tech, 0), std::invalid_argument);
  EXPECT_THROW((void)derive_island_params(s, tech, 32, -1), std::invalid_argument);
}

}  // namespace
}  // namespace vinoc::core
