// Tests for the flow router (Algorithm 1, step 15): link admissibility,
// link opening/reuse, capacity, latency budgets, and the structural
// shutdown-safety rule.
#include <gtest/gtest.h>

#include "vinoc/core/router.hpp"
#include "vinoc/core/topology.hpp"

namespace vinoc::core {
namespace {

// A hand-built fixture: two shutdown-capable islands (0, 1) with one switch
// each, plus optionally an intermediate switch. One core per switch.
struct Fixture {
  soc::SocSpec spec;
  NocTopology topo;
  RouterOptions opts;

  explicit Fixture(int islands = 2, int intermediate_switches = 0,
                   int max_ports = 8) {
    spec.name = "fx";
    for (int i = 0; i < islands; ++i) {
      spec.islands.push_back({"vi" + std::to_string(i), 1.0, true});
    }
    topo.island_freq_hz.assign(static_cast<std::size_t>(islands), 400e6);
    topo.intermediate_freq_hz = 400e6;
    for (int i = 0; i < islands; ++i) {
      soc::CoreSpec c;
      c.name = "core" + std::to_string(i);
      c.island = i;
      spec.cores.push_back(c);

      SwitchInst sw;
      sw.island = i;
      sw.freq_hz = 400e6;
      sw.pos = {static_cast<double>(i) * 2.0, 0.0};
      sw.cores = {static_cast<soc::CoreId>(i)};
      topo.switches.push_back(sw);
      topo.switch_of_core.push_back(i);
      topo.ni_wire_mm.push_back(0.5);
    }
    for (int k = 0; k < intermediate_switches; ++k) {
      SwitchInst sw;
      sw.island = kIntermediateIsland;
      sw.freq_hz = 400e6;
      sw.pos = {1.0, 1.0 + k};
      topo.switches.push_back(sw);
    }
    opts.max_ports.assign(topo.switches.size(), max_ports);
  }

  void add_flow(int src, int dst, double bw, double lat) {
    soc::Flow f;
    f.src = src;
    f.dst = dst;
    f.bandwidth_bits_per_s = bw;
    f.max_latency_cycles = lat;
    f.label = "f" + std::to_string(spec.flows.size());
    spec.flows.push_back(f);
  }
};

TEST(LinkAdmissible, IntraIslandFlowNeverLeaves) {
  // Flow 0 -> 0: only hops inside island 0 allowed.
  EXPECT_TRUE(link_admissible(0, 0, 0, 0));
  EXPECT_FALSE(link_admissible(0, 1, 0, 0));
  EXPECT_FALSE(link_admissible(0, kIntermediateIsland, 0, 0));
  EXPECT_FALSE(link_admissible(kIntermediateIsland, kIntermediateIsland, 0, 0));
}

TEST(LinkAdmissible, CrossIslandDirectAndViaIntermediate) {
  // Flow 0 -> 1.
  EXPECT_TRUE(link_admissible(0, 1, 0, 1));                      // direct
  EXPECT_TRUE(link_admissible(0, kIntermediateIsland, 0, 1));    // to NoC VI
  EXPECT_TRUE(link_admissible(kIntermediateIsland, 1, 0, 1));    // from NoC VI
  EXPECT_TRUE(link_admissible(kIntermediateIsland, kIntermediateIsland, 0, 1));
  EXPECT_TRUE(link_admissible(0, 0, 0, 1));  // hop inside source island
  EXPECT_TRUE(link_admissible(1, 1, 0, 1));  // hop inside destination island
}

TEST(LinkAdmissible, ThirdIslandForbidden) {
  // Flow 0 -> 1 must never touch island 2 (the shutdown-safety property).
  EXPECT_FALSE(link_admissible(0, 2, 0, 1));
  EXPECT_FALSE(link_admissible(2, 1, 0, 1));
  EXPECT_FALSE(link_admissible(2, 2, 0, 1));
  EXPECT_FALSE(link_admissible(kIntermediateIsland, 2, 0, 1));
  // Reverse direction (1 -> 0) is also not admissible for a 0 -> 1 flow.
  EXPECT_FALSE(link_admissible(1, 0, 0, 1));
}

TEST(Router, SameSwitchFlowNeedsNoLinks) {
  Fixture fx(2);
  // Put a second core on switch 0.
  soc::CoreSpec c;
  c.name = "extra";
  c.island = 0;
  fx.spec.cores.push_back(c);
  fx.topo.switches[0].cores.push_back(2);
  fx.topo.switch_of_core.push_back(0);
  fx.topo.ni_wire_mm.push_back(0.4);
  fx.add_flow(0, 2, 1e9, 20);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_TRUE(fx.topo.links.empty());
  EXPECT_TRUE(fx.topo.routes[0].links.empty());
  // Latency: NI->sw (1) + switch (1) + sw->NI (1) = 3 cycles.
  EXPECT_DOUBLE_EQ(fx.topo.routes[0].latency_cycles, 3.0);
}

TEST(Router, CrossIslandOpensFifoLink) {
  Fixture fx(2);
  fx.add_flow(0, 1, 1e9, 20);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  ASSERT_EQ(fx.topo.links.size(), 1u);
  EXPECT_TRUE(fx.topo.links[0].crosses_island);
  EXPECT_DOUBLE_EQ(fx.topo.links[0].carried_bw_bits_per_s, 1e9);
  // Latency: 2 NI links + 2 switches + 4-cycle FIFO link = 8.
  EXPECT_DOUBLE_EQ(fx.topo.routes[0].latency_cycles, 8.0);
  EXPECT_EQ(fx.topo.routes[0].crossings, 1);
  EXPECT_TRUE(fx.topo.validate(fx.spec).empty());
}

TEST(Router, ReusesExistingLinkForSecondFlow) {
  Fixture fx(2);
  fx.add_flow(0, 1, 1e9, 20);
  fx.add_flow(0, 1, 2e9, 20);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_EQ(fx.topo.links.size(), 1u);
  EXPECT_DOUBLE_EQ(fx.topo.links[0].carried_bw_bits_per_s, 3e9);
  EXPECT_EQ(fx.topo.links[0].flows.size(), 2u);
}

TEST(Router, SaturatedLinkGetsParallelLink) {
  Fixture fx(2);
  // Capacity at 400 MHz x 32 bit = 12.8e9. Two flows of 8e9 cannot share.
  fx.add_flow(0, 1, 8e9, 20);
  fx.add_flow(0, 1, 8e9, 20);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_EQ(fx.topo.links.size(), 2u);
  EXPECT_TRUE(fx.topo.validate(fx.spec).empty());
}

TEST(Router, FlowExceedingLinkCapacityFails) {
  Fixture fx(2);
  fx.add_flow(0, 1, 20e9, 20);  // > 12.8e9 capacity
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  EXPECT_FALSE(out.success);
  EXPECT_FALSE(out.failure_reason.empty());
}

TEST(Router, LatencyBudgetViolationFails) {
  Fixture fx(2);
  fx.add_flow(0, 1, 1e9, 7.0);  // needs 8 cycles
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("latency"), std::string::npos);
}

TEST(Router, PortExhaustionRoutesViaIntermediate) {
  // Three islands sending to island 0, but switch 0 may only have
  // 1 core + 2 in-ports. With an intermediate switch the three flows
  // concentrate; without it, routing must fail.
  auto build = [](int intermediate) {
    Fixture fx(4, intermediate, /*max_ports=*/3);
    fx.add_flow(1, 0, 1e9, 30);
    fx.add_flow(2, 0, 1e9, 30);
    fx.add_flow(3, 0, 1e9, 30);
    return fx;
  };
  Fixture without = build(0);
  const RouteOutcome fail = route_all_flows(without.topo, without.spec, without.opts);
  EXPECT_FALSE(fail.success);

  Fixture with = build(1);
  const RouteOutcome ok = route_all_flows(with.topo, with.spec, with.opts);
  ASSERT_TRUE(ok.success) << ok.failure_reason;
  // At least one route must pass through the intermediate switch (index 4).
  bool via_intermediate = false;
  for (const FlowRoute& r : with.topo.routes) {
    for (const int l : r.links) {
      if (with.topo.links[static_cast<std::size_t>(l)].dst_switch == 4 ||
          with.topo.links[static_cast<std::size_t>(l)].src_switch == 4) {
        via_intermediate = true;
      }
    }
  }
  EXPECT_TRUE(via_intermediate);
  EXPECT_TRUE(with.topo.validate(with.spec).empty());
}

TEST(Router, NoPathThroughThirdIsland) {
  // Flow 0 -> 1 with islands 0,1,2; even if a detour through island 2's
  // switch were cheap (it sits between them), it must not be taken.
  Fixture fx(3);
  fx.topo.switches[2].pos = {1.0, 0.0};  // between switch 0 (x=0) and 1 (x=2)
  fx.add_flow(0, 1, 1e9, 30);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  for (const int l : fx.topo.routes[0].links) {
    const TopLink& link = fx.topo.links[static_cast<std::size_t>(l)];
    EXPECT_NE(fx.topo.switches[static_cast<std::size_t>(link.src_switch)].island, 2);
    EXPECT_NE(fx.topo.switches[static_cast<std::size_t>(link.dst_switch)].island, 2);
  }
}

TEST(Router, BandwidthOrderIsDeterministic) {
  Fixture a(2);
  a.add_flow(0, 1, 1e9, 20);
  a.add_flow(1, 0, 3e9, 20);
  Fixture b(2);
  b.add_flow(0, 1, 1e9, 20);
  b.add_flow(1, 0, 3e9, 20);
  ASSERT_TRUE(route_all_flows(a.topo, a.spec, a.opts).success);
  ASSERT_TRUE(route_all_flows(b.topo, b.spec, b.opts).success);
  ASSERT_EQ(a.topo.links.size(), b.topo.links.size());
  for (std::size_t l = 0; l < a.topo.links.size(); ++l) {
    EXPECT_EQ(a.topo.links[l].src_switch, b.topo.links[l].src_switch);
    EXPECT_EQ(a.topo.links[l].dst_switch, b.topo.links[l].dst_switch);
  }
}

TEST(Router, WireTimingRejectsOverlongIntraIslandLinks) {
  // Two switches in the same island, far apart. At 400 MHz a wire may be
  // ~13.9 mm; place them 40 mm apart (unrealistic, but makes the point).
  Fixture fx(1, 0, 8);
  soc::CoreSpec c;
  c.name = "far";
  c.island = 0;
  fx.spec.cores.push_back(c);
  SwitchInst sw;
  sw.island = 0;
  sw.freq_hz = 400e6;
  sw.pos = {40.0, 0.0};
  sw.cores = {1};
  fx.topo.switches.push_back(sw);
  fx.topo.switch_of_core.push_back(1);
  fx.topo.ni_wire_mm.push_back(0.5);
  fx.opts.max_ports.assign(fx.topo.switches.size(), 8);
  fx.add_flow(0, 1, 1e9, 30);

  fx.opts.enforce_wire_timing = true;
  NocTopology strict = fx.topo;
  EXPECT_FALSE(route_all_flows(strict, fx.spec, fx.opts).success);

  fx.opts.enforce_wire_timing = false;
  NocTopology lax = fx.topo;
  EXPECT_TRUE(route_all_flows(lax, fx.spec, fx.opts).success);
}

TEST(Router, MaxPortsSizeMismatchReported) {
  Fixture fx(2);
  fx.add_flow(0, 1, 1e9, 20);
  fx.opts.max_ports.pop_back();
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("max_ports"), std::string::npos);
}

TEST(Router, MultiHopWithinIslandWhenDirectPortsRunOut) {
  // One island, three switches in a row; direct 0->2 link would exceed the
  // port cap on switch 0 after other links, forcing a 0->1->2 path. Here we
  // simply verify multi-hop intra-island routing works at all.
  Fixture fx(1, 0, 3);
  for (int i = 1; i < 3; ++i) {
    soc::CoreSpec c;
    c.name = std::string("c") + std::to_string(i);
    c.island = 0;
    fx.spec.cores.push_back(c);
    SwitchInst sw;
    sw.island = 0;
    sw.freq_hz = 400e6;
    sw.pos = {static_cast<double>(i) * 2.0, 0.0};
    sw.cores = {static_cast<soc::CoreId>(i)};
    fx.topo.switches.push_back(sw);
    fx.topo.switch_of_core.push_back(i);
    fx.topo.ni_wire_mm.push_back(0.5);
  }
  fx.opts.max_ports.assign(fx.topo.switches.size(), 3);
  fx.add_flow(0, 1, 1e9, 30);
  fx.add_flow(1, 2, 1e9, 30);
  fx.add_flow(0, 2, 1e9, 30);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_TRUE(fx.topo.validate(fx.spec).empty());
  // All links intra-island: no FIFOs.
  for (const TopLink& l : fx.topo.links) EXPECT_FALSE(l.crosses_island);
}

TEST(Router, LatencyInfeasibleFlowIsReportedStructurally) {
  Fixture fx(2);
  fx.add_flow(0, 1, 1e9, 30.0);  // routable
  fx.add_flow(1, 0, 2e9, 7.0);   // needs 8 cycles: infeasible
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  EXPECT_FALSE(out.success);
  EXPECT_FALSE(out.pruned);
  EXPECT_EQ(out.failed_flow, 1);  // the infeasible flow, by spec index
  EXPECT_NE(out.failure_reason.find("latency"), std::string::npos);
  EXPECT_NE(out.failure_reason.find(fx.spec.flows[1].label), std::string::npos);
}

TEST(Router, NoAdmissiblePathReportsFailedFlow) {
  // Flow exceeding every link's capacity: no admissible path anywhere.
  Fixture fx(2);
  fx.add_flow(0, 1, 20e9, 20);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failed_flow, 0);
  EXPECT_EQ(out.failure_reason.find("latency"), std::string::npos);
}

TEST(Router, SuccessLeavesFailedFlowUnset) {
  Fixture fx(2);
  fx.add_flow(0, 1, 1e9, 20);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_EQ(out.failed_flow, -1);
}

TEST(Router, CrossingCountsThroughIntermediateIsland) {
  // Force the flow through the NoC VI: island0 -> intermediate -> island1
  // crosses two island boundaries, and both links carry FIFOs.
  Fixture fx(2, /*intermediate_switches=*/1);
  fx.add_flow(0, 1, 1e9, 30);
  fx.opts.forbid_direct_cross = true;
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  ASSERT_EQ(fx.topo.routes[0].links.size(), 2u);
  EXPECT_EQ(fx.topo.routes[0].crossings, 2);
  for (const int l : fx.topo.routes[0].links) {
    EXPECT_TRUE(fx.topo.links[static_cast<std::size_t>(l)].crosses_island);
  }
  // Latency: 2 NI links + 3 switches + 2 FIFO links = 2 + 3 + 8 = 13.
  EXPECT_DOUBLE_EQ(fx.topo.routes[0].latency_cycles, 13.0);
  EXPECT_TRUE(fx.topo.validate(fx.spec).empty());
}

TEST(Router, ZeroFlowSpecRoutesTrivially) {
  Fixture fx(2, 1);
  const RouteOutcome out = route_all_flows(fx.topo, fx.spec, fx.opts);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_EQ(out.flows_routed, 0);
  EXPECT_EQ(out.failed_flow, -1);
  EXPECT_TRUE(fx.topo.links.empty());
  EXPECT_TRUE(fx.topo.routes.empty());
  EXPECT_TRUE(fx.topo.validate(fx.spec).empty());
}

TEST(Router, SharedScratchAcrossCallsIsBitIdentical) {
  // Route two different fixtures through ONE scratch arena, interleaved with
  // fresh-scratch runs; results must match exactly (reset, not stale reuse).
  RouterScratch scratch;
  for (const int islands : {2, 3, 2, 4}) {
    Fixture shared(islands, 1);
    Fixture fresh(islands, 1);
    for (int i = 0; i + 1 < islands; ++i) {
      shared.add_flow(i, i + 1, 1e9 + i * 1e8, 30);
      fresh.add_flow(i, i + 1, 1e9 + i * 1e8, 30);
    }
    const RouteOutcome a =
        route_all_flows(shared.topo, shared.spec, shared.opts, &scratch);
    const RouteOutcome b = route_all_flows(fresh.topo, fresh.spec, fresh.opts);
    ASSERT_EQ(a.success, b.success);
    ASSERT_EQ(shared.topo.links.size(), fresh.topo.links.size());
    for (std::size_t l = 0; l < shared.topo.links.size(); ++l) {
      EXPECT_EQ(shared.topo.links[l].src_switch, fresh.topo.links[l].src_switch);
      EXPECT_EQ(shared.topo.links[l].dst_switch, fresh.topo.links[l].dst_switch);
      EXPECT_EQ(shared.topo.links[l].carried_bw_bits_per_s,
                fresh.topo.links[l].carried_bw_bits_per_s);
    }
    for (std::size_t f = 0; f < shared.topo.routes.size(); ++f) {
      EXPECT_EQ(shared.topo.routes[f].links, fresh.topo.routes[f].links);
      EXPECT_EQ(shared.topo.routes[f].latency_cycles,
                fresh.topo.routes[f].latency_cycles);
    }
  }
}

TEST(RouteLatency, FormulaMatchesHeaderDoc) {
  Fixture fx(2, 1, 8);
  fx.add_flow(0, 1, 1e9, 30);
  ASSERT_TRUE(route_all_flows(fx.topo, fx.spec, fx.opts).success);
  const models::Technology tech = models::Technology::cmos65nm();
  const FlowRoute& r = fx.topo.routes[0];
  double expected = 2.0;                              // NI links
  expected += static_cast<double>(r.links.size() + 1);  // switch pipelines
  for (const int l : r.links) {
    expected += fx.topo.links[static_cast<std::size_t>(l)].crosses_island ? 4.0 : 1.0;
  }
  EXPECT_DOUBLE_EQ(route_latency_cycles(fx.topo, r, tech), expected);
}

}  // namespace
}  // namespace vinoc::core
