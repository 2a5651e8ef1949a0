// Tests for the flit-level simulator: zero-load agreement with the analytic
// latency model, contention behaviour, and saturation detection.
#include <gtest/gtest.h>

#include <cmath>

#include "vinoc/core/synthesis.hpp"
#include "vinoc/sim/simulator.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::sim {
namespace {

/// A small SoC where every island ends up at the same NoC clock, so the
/// analytic cycle count and the simulator's time-based count coincide.
soc::SocSpec uniform_clock_spec(int islands) {
  soc::SocSpec s;
  s.name = "uniform";
  for (int i = 0; i < islands; ++i) {
    s.islands.push_back({"vi" + std::to_string(i), 1.0, i != 0});
  }
  for (int i = 0; i < islands * 2; ++i) {
    soc::CoreSpec c;
    c.name = std::string("c") + std::to_string(i);
    c.island = i % islands;
    c.width_mm = 1.0;
    c.height_mm = 1.0;
    s.cores.push_back(c);
  }
  auto flow = [&s](int src, int dst) {
    soc::Flow f;
    f.src = src;
    f.dst = dst;
    // 3.2e9 bits/s = 100 MHz at 32 bit for every island's hungriest NI.
    f.bandwidth_bits_per_s = 3.2e9;
    f.max_latency_cycles = 40;
    f.label = std::string("f") + std::to_string(s.flows.size());
    s.flows.push_back(f);
  };
  for (int i = 0; i < islands * 2; ++i) {
    flow(i, (i + 1) % (islands * 2));
  }
  return s;
}

core::SynthesisResult synth(const soc::SocSpec& spec) {
  core::SynthesisOptions options;
  return core::synthesize(spec, options);
}

TEST(Simulator, ZeroLoadMatchesAnalyticOnUniformClocks) {
  const soc::SocSpec spec = uniform_clock_spec(3);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  const core::DesignPoint& best = result.best_power();

  SimOptions opts;
  opts.injection_scale = 0.02;
  opts.duration_cycles = 300'000;
  opts.warmup_cycles = 30'000;
  const SimReport report =
      simulate(best.topology, spec, core::SynthesisOptions{}.tech, opts);
  ASSERT_GT(report.packets_delivered, 0);

  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    ASSERT_GT(report.flows[f].packets_delivered, 0) << "flow " << f;
    // At near-zero load the head-flit latency equals the analytic number.
    EXPECT_NEAR(report.flows[f].avg_latency_cycles,
                best.topology.routes[f].latency_cycles, 0.75)
        << "flow " << f;
  }
}

TEST(Simulator, LatencyGrowsWithLoad) {
  const soc::SocSpec spec = uniform_clock_spec(2);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  const core::DesignPoint& best = result.best_power();
  const models::Technology tech = models::Technology::cmos65nm();

  SimOptions low;
  low.injection_scale = 0.05;
  SimOptions high;
  high.injection_scale = 0.9;
  const SimReport r_low = simulate(best.topology, spec, tech, low);
  const SimReport r_high = simulate(best.topology, spec, tech, high);
  EXPECT_GT(r_high.avg_latency_cycles, r_low.avg_latency_cycles);
  EXPECT_GT(r_high.max_link_utilization, r_low.max_link_utilization);
}

TEST(Simulator, SaturationFlaggedWhenDemandExceedsCapacity) {
  const soc::SocSpec spec = uniform_clock_spec(2);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  const core::DesignPoint& best = result.best_power();
  const models::Technology tech = models::Technology::cmos65nm();

  SimOptions opts;
  opts.injection_scale = 1.0;
  EXPECT_FALSE(simulate(best.topology, spec, tech, opts).saturated)
      << "the router's capacity accounting must leave the spec'd load feasible";
  opts.injection_scale = 4.0;
  EXPECT_TRUE(simulate(best.topology, spec, tech, opts).saturated);
}

TEST(Simulator, SynthesizedDesignsNeverSaturateAtSpecLoad) {
  // The router checks capacities; the simulator must agree for the D26
  // best-power designs across islandings.
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const models::Technology tech = models::Technology::cmos65nm();
  for (const int k : {1, 4, 7}) {
    const soc::SocSpec spec = soc::with_logical_islands(d26.soc, k, d26.use_cases);
    const core::SynthesisResult result = synth(spec);
    ASSERT_FALSE(result.points.empty()) << "k=" << k;
    SimOptions opts;
    opts.injection_scale = 1.0;
    opts.duration_cycles = 20'000;
    opts.warmup_cycles = 2'000;
    const SimReport r = simulate(result.best_power().topology, spec, tech, opts);
    EXPECT_FALSE(r.saturated) << "k=" << k;
    EXPECT_LE(r.max_link_utilization, 1.0 + 1e-6) << "k=" << k;
  }
}

TEST(Simulator, OfferedLoadComputedPerFlow) {
  const soc::SocSpec spec = uniform_clock_spec(2);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  const SimReport r = simulate(result.best_power().topology, spec,
                               models::Technology::cmos65nm(), SimOptions{});
  for (const FlowSimStats& fs : r.flows) {
    EXPECT_GT(fs.offered_load, 0.0);
    EXPECT_LE(fs.offered_load, 1.0 + 1e-9);
  }
}

TEST(Simulator, RandomArrivalsStillDeliverEverything) {
  const soc::SocSpec spec = uniform_clock_spec(2);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  SimOptions opts;
  opts.random_arrivals = true;
  opts.injection_scale = 0.3;
  opts.seed = 123;
  const SimReport r = simulate(result.best_power().topology, spec,
                               models::Technology::cmos65nm(), opts);
  EXPECT_GT(r.packets_delivered, 0);
  for (const FlowSimStats& fs : r.flows) {
    EXPECT_GT(fs.packets_delivered, 0);
  }
}

TEST(Simulator, DeterministicForFixedSeed) {
  const soc::SocSpec spec = uniform_clock_spec(2);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  SimOptions opts;
  opts.random_arrivals = true;
  opts.seed = 7;
  const models::Technology tech = models::Technology::cmos65nm();
  const SimReport a = simulate(result.best_power().topology, spec, tech, opts);
  const SimReport b = simulate(result.best_power().topology, spec, tech, opts);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_DOUBLE_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
}

TEST(Simulator, CrossingCostsVisibleInLatency) {
  // Same design, compare a same-switch flow against a cross-island flow.
  const soc::SocSpec spec = uniform_clock_spec(3);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  const core::DesignPoint& best = result.best_power();
  const SimReport r = simulate(best.topology, spec,
                               models::Technology::cmos65nm(), SimOptions{});
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    if (best.topology.routes[f].crossings > 0) {
      EXPECT_GE(r.flows[f].avg_latency_cycles, 7.0) << "flow " << f;
    }
  }
}

TEST(SaturationScale, SynthesizedDesignsHaveHeadroom) {
  const soc::SocSpec spec = uniform_clock_spec(3);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  for (const core::DesignPoint& p : result.points) {
    EXPECT_GE(find_saturation_scale(p.topology, spec), 1.0 - 1e-9);
  }
}

TEST(SaturationScale, AgreesWithSimulatorSaturationFlag) {
  const soc::SocSpec spec = uniform_clock_spec(2);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  const core::DesignPoint& best = result.best_power();
  const double headroom = find_saturation_scale(best.topology, spec);
  ASSERT_TRUE(std::isfinite(headroom));
  const models::Technology tech = models::Technology::cmos65nm();
  SimOptions below;
  below.injection_scale = headroom * 0.95;
  SimOptions above;
  above.injection_scale = headroom * 1.05;
  EXPECT_FALSE(simulate(best.topology, spec, tech, below).saturated);
  EXPECT_TRUE(simulate(best.topology, spec, tech, above).saturated);
}

TEST(SaturationScale, D26HeadroomAtLeastOne) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec = soc::with_logical_islands(d26.soc, 6, d26.use_cases);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  EXPECT_GE(find_saturation_scale(result.best_power().topology, spec), 1.0 - 1e-9);
}

TEST(Simulator, RejectsBadOptionsAndInputs) {
  const soc::SocSpec spec = uniform_clock_spec(2);
  const core::SynthesisResult result = synth(spec);
  ASSERT_FALSE(result.points.empty());
  const models::Technology tech = models::Technology::cmos65nm();
  SimOptions opts;
  opts.packet_flits = 0;
  EXPECT_THROW((void)simulate(result.best_power().topology, spec, tech, opts),
               std::invalid_argument);
  core::NocTopology empty;
  EXPECT_THROW((void)simulate(empty, spec, tech, SimOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vinoc::sim
