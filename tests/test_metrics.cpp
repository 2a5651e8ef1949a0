// Metrics verification: compute_metrics() cross-checked against hand
// calculations on a minimal topology, plus breakdown-consistency properties
// on real synthesized designs.
#include <gtest/gtest.h>

#include "vinoc/core/synthesis.hpp"
#include "vinoc/core/topology.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

/// Two cores, two islands, one switch each, one crossing flow — small enough
/// to evaluate the models by hand.
struct TinyFixture {
  soc::SocSpec spec;
  NocTopology topo;
  models::Technology tech = models::Technology::cmos65nm();
  static constexpr double kBw = 1.0e9;
  static constexpr double kFreq = 400e6;
  static constexpr double kLinkLen = 2.0;
  static constexpr double kNiWire = 0.5;

  TinyFixture() {
    spec.name = "tiny";
    spec.islands = {{"vi0", 1.0, false}, {"vi1", 1.0, true}};
    for (int i = 0; i < 2; ++i) {
      soc::CoreSpec c;
      c.name = std::string("c") + std::to_string(i);
      c.island = i;
      spec.cores.push_back(c);
      SwitchInst sw;
      sw.island = i;
      sw.freq_hz = kFreq;
      sw.pos = {static_cast<double>(i) * kLinkLen, 0.0};
      sw.cores = {static_cast<soc::CoreId>(i)};
      topo.switches.push_back(sw);
      topo.switch_of_core.push_back(i);
      topo.ni_wire_mm.push_back(kNiWire);
    }
    topo.island_freq_hz = {kFreq, kFreq};
    soc::Flow f;
    f.src = 0;
    f.dst = 1;
    f.bandwidth_bits_per_s = kBw;
    f.max_latency_cycles = 20;
    f.label = "c0->c1";
    spec.flows.push_back(f);
    TopLink l;
    l.src_switch = 0;
    l.dst_switch = 1;
    l.crosses_island = true;
    l.length_mm = kLinkLen;
    l.carried_bw_bits_per_s = kBw;
    l.flows = {0};
    topo.links.push_back(l);
    FlowRoute r;
    r.src_switch = 0;
    r.dst_switch = 1;
    r.links = {0};
    r.crossings = 1;
    r.latency_cycles = 8.0;
    topo.routes.push_back(r);
  }
};

TEST(MetricsHandCheck, SwitchDynamicPower) {
  const TinyFixture fx;
  const Metrics m = compute_metrics(fx.topo, fx.spec, fx.tech);
  // Each switch: 2x2 ports (1 core + 1 link each way -> in=2? no: switch 0
  // has 1 core in + 1 link out, 1 core out; in=1, out=2 => ports=2).
  // e_bit = (0.20 + 0.02 * 2) pJ = 0.24 pJ; traffic 1e9 through each of the
  // two switches => 2 * 0.24 mW. Idle: ports(in+out)=3 per switch =>
  // 2 * 3 * 1.5e-12 W/Hz * 400e6 = 3.6 mW.
  const double e_bit = (0.20 + 0.02 * 2) * 1e-12;
  const double expected =
      2.0 * e_bit * TinyFixture::kBw +
      2.0 * 3.0 * fx.tech.sw_idle_power_per_port_w_per_hz * TinyFixture::kFreq;
  EXPECT_NEAR(m.switch_dynamic_w, expected, 1e-12);
}

TEST(MetricsHandCheck, LinkAndFifoDynamicPower) {
  const TinyFixture fx;
  const Metrics m = compute_metrics(fx.topo, fx.spec, fx.tech);
  // NI wires: both cores carry the flow once (out at c0, in at c1):
  // 2 * 0.15 pJ/bit/mm * 0.5 mm * 1e9. Inter-switch wire: 0.15 * 2.0 * 1e9.
  const double e_mm = fx.tech.link_energy_pj_per_bit_mm * 1e-12;
  const double expected_link = 2.0 * e_mm * TinyFixture::kNiWire * TinyFixture::kBw +
                               e_mm * TinyFixture::kLinkLen * TinyFixture::kBw;
  EXPECT_NEAR(m.link_dynamic_w, expected_link, 1e-12);
  const double expected_fifo =
      fx.tech.fifo_energy_pj_per_bit * 1e-12 * TinyFixture::kBw;
  EXPECT_NEAR(m.fifo_dynamic_w, expected_fifo, 1e-15);
  EXPECT_EQ(m.fifo_count, 1);
}

TEST(MetricsHandCheck, NiDynamicPower) {
  const TinyFixture fx;
  const Metrics m = compute_metrics(fx.topo, fx.spec, fx.tech);
  // Each NI sees the flow once: 2 * 0.30 pJ/bit * 1e9.
  EXPECT_NEAR(m.ni_dynamic_w, 2.0 * 0.30e-12 * TinyFixture::kBw, 1e-15);
}

TEST(MetricsHandCheck, AreaAndLeakage) {
  const TinyFixture fx;
  const Metrics m = compute_metrics(fx.topo, fx.spec, fx.tech);
  // Two 2-port switches + two NIs + one FIFO.
  const double sw_area = fx.tech.sw_area_base_um2 +
                         fx.tech.sw_area_per_port2_um2 * 4.0 +
                         fx.tech.sw_area_per_port_um2 * 2.0;
  const double expected_area =
      (2.0 * sw_area + 2.0 * fx.tech.ni_area_um2 + fx.tech.fifo_area_um2) * 1e-6;
  EXPECT_NEAR(m.noc_area_mm2, expected_area, 1e-12);

  const double sw_leak =
      (fx.tech.sw_leakage_base_mw + fx.tech.sw_leakage_per_port_mw * 2.0) * 1e-3;
  const double wire_leak =
      fx.tech.link_leakage_mw_per_wire_mm * 1e-3 * 32.0 *
      (2.0 * TinyFixture::kNiWire + TinyFixture::kLinkLen);
  const double expected_leak = 2.0 * sw_leak + 2.0 * fx.tech.ni_leakage_mw * 1e-3 +
                               fx.tech.fifo_leakage_mw * 1e-3 + wire_leak;
  EXPECT_NEAR(m.noc_leakage_w, expected_leak, 1e-12);
}

TEST(MetricsHandCheck, LatencyStatistics) {
  const TinyFixture fx;
  const Metrics m = compute_metrics(fx.topo, fx.spec, fx.tech);
  EXPECT_DOUBLE_EQ(m.avg_latency_cycles, 8.0);
  EXPECT_DOUBLE_EQ(m.max_latency_cycles, 8.0);
  EXPECT_DOUBLE_EQ(m.total_wire_mm, 2.0 * TinyFixture::kNiWire + TinyFixture::kLinkLen);
}

TEST(MetricsHandCheck, SwitchAggregateBandwidth) {
  const TinyFixture fx;
  EXPECT_DOUBLE_EQ(fx.topo.switch_aggregate_bw(0, fx.spec), TinyFixture::kBw);
  EXPECT_DOUBLE_EQ(fx.topo.switch_aggregate_bw(1, fx.spec), TinyFixture::kBw);
}

TEST(MetricsHandCheck, PortCounts) {
  const TinyFixture fx;
  EXPECT_EQ(fx.topo.switch_ports_in(0), 1);   // core only
  EXPECT_EQ(fx.topo.switch_ports_out(0), 2);  // core + link
  EXPECT_EQ(fx.topo.switch_ports_in(1), 2);
  EXPECT_EQ(fx.topo.switch_ports_out(1), 1);
}

// Property: on every synthesized design point, the dynamic-power breakdown
// sums to the total, the paper metric excludes exactly the NI share, and all
// components are non-negative.
class BreakdownTest : public ::testing::TestWithParam<int> {};

TEST_P(BreakdownTest, ComponentsSumToTotal) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec =
      soc::with_logical_islands(d26.soc, GetParam(), d26.use_cases);
  const SynthesisResult r = synthesize(spec);
  ASSERT_FALSE(r.points.empty());
  for (const DesignPoint& p : r.points) {
    const Metrics& m = p.metrics;
    EXPECT_NEAR(m.noc_dynamic_w,
                m.switch_dynamic_w + m.link_dynamic_w + m.ni_dynamic_w +
                    m.fifo_dynamic_w,
                1e-12);
    EXPECT_NEAR(m.paper_noc_dynamic_w(), m.noc_dynamic_w - m.ni_dynamic_w, 1e-12);
    EXPECT_GE(m.switch_dynamic_w, 0.0);
    EXPECT_GE(m.link_dynamic_w, 0.0);
    EXPECT_GE(m.ni_dynamic_w, 0.0);
    EXPECT_GE(m.fifo_dynamic_w, 0.0);
    EXPECT_GE(m.noc_leakage_w, 0.0);
    EXPECT_GE(m.noc_area_mm2, 0.0);
    // FIFO power iff crossings exist.
    EXPECT_EQ(m.fifo_dynamic_w > 0.0, m.fifo_count > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(IslandCounts, BreakdownTest, ::testing::Values(1, 4, 7));

TEST(TopologyValidate, CatchesCorruptedStructures) {
  TinyFixture fx;
  EXPECT_TRUE(fx.topo.validate(fx.spec).empty());
  // Corrupt: wrong carried bandwidth.
  NocTopology bad_bw = fx.topo;
  bad_bw.links[0].carried_bw_bits_per_s *= 2.0;
  EXPECT_FALSE(bad_bw.validate(fx.spec).empty());
  // Corrupt: crossing flag wrong.
  NocTopology bad_cross = fx.topo;
  bad_cross.links[0].crosses_island = false;
  EXPECT_FALSE(bad_cross.validate(fx.spec).empty());
  // Corrupt: route endpoint mismatch.
  NocTopology bad_route = fx.topo;
  bad_route.routes[0].dst_switch = 0;
  EXPECT_FALSE(bad_route.validate(fx.spec).empty());
  // Corrupt: core attached to a switch of another island.
  NocTopology bad_attach = fx.topo;
  bad_attach.switch_of_core[0] = 1;
  EXPECT_FALSE(bad_attach.validate(fx.spec).empty());
}

}  // namespace
}  // namespace vinoc::core
