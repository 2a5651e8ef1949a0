// Absolute golden pins: literal result_fingerprint values for a fixed
// matrix of synthesize() runs and explore_link_widths() sweeps, and the
// literal job and structure keys of a small campaign. Most
// bit-identity tests compare two paths of the same binary (sweep vs solo,
// delta on vs off), so a change to the shared routing kernel moves both
// sides together and stays invisible there; these pins catch it, and
// test_reference says which side is right. A mismatch prints every actual
// value. The pins are
// deliberately not regenerable from the test: changing one means a result
// changed, which must be explained, not re-recorded.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc {
namespace {

soc::SocSpec logical(const soc::Benchmark& bm, int islands) {
  return soc::with_logical_islands(bm.soc, islands, bm.use_cases);
}

/// A 16-core synthetic SoC in 4 logical islands with every bandwidth
/// divided by 512, so the island frequencies snap to the same grid point
/// at every width of the sweep.
soc::SocSpec low_bandwidth_spec() {
  soc::SyntheticParams params;
  params.cores = 16;
  params.hubs = 2;
  params.seed = 17;
  soc::SocSpec spec = logical(soc::make_synthetic_soc(params), 4);
  for (soc::Flow& f : spec.flows) f.bandwidth_bits_per_s /= 512.0;
  return spec;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Compares actual against pinned fingerprints; on any mismatch lists
/// every actual value so the whole row can be inspected at once.
void expect_pins(const std::string& label, const std::vector<std::uint64_t>& actual,
                 const std::vector<std::uint64_t>& pinned) {
  ASSERT_EQ(actual.size(), pinned.size()) << label;
  if (actual == pinned) return;
  std::string listing;
  for (const std::uint64_t v : actual) listing += "  " + hex(v) + ",\n";
  ADD_FAILURE() << label << ": fingerprints differ from the pins; actual:\n"
                << listing;
}

TEST(Golden, SynthesizeAtWidth32) {
  struct Case {
    const char* name;
    soc::SocSpec spec;
    std::uint64_t prune_on;
    std::uint64_t prune_off;
  };
  const std::vector<Case> cases = {
      {"d26/l4", logical(soc::make_d26_media_soc(), 4), 0x3374b7c964058337ULL,
       0xddacf3557ad33ed6ULL},
      {"d36/l5", logical(soc::make_d36_settop_soc(), 5), 0x134999f30c95e0afULL,
       0x134999f30c95e0afULL},
      {"d64/l4", logical(soc::make_d64_tile_soc(), 4), 0x1cd5d689aeded4f9ULL,
       0x1cd5d689aeded4f9ULL},
  };
  for (const Case& c : cases) {
    std::vector<std::uint64_t> actual;
    for (const bool prune : {true, false}) {
      core::SynthesisOptions opt;
      opt.link_width_bits = 32;
      opt.prune = prune;
      actual.push_back(campaign::result_fingerprint(core::synthesize(c.spec, opt)));
    }
    expect_pins(std::string("synthesize ") + c.name, actual,
                {c.prune_on, c.prune_off});
  }
}

TEST(Golden, WidthSweepEntries) {
  struct Case {
    const char* name;
    soc::SocSpec spec;
    std::vector<int> widths;
    std::vector<std::uint64_t> pins;  // 0 marks an infeasible width
  };
  const std::vector<Case> cases = {
      {"d26/l4", logical(soc::make_d26_media_soc(), 4), {128, 160, 192, 256},
       {0x9ea8cc09283d01c0ULL, 0x78664869f10203c4ULL, 0x297789f84ffee285ULL,
        0x3945144edd1e6a46ULL}},
      {"d24/l5", logical(soc::make_d24_imaging_soc(), 5), {128, 160},
       {0xf335d2b19d0f1606ULL, 0x18a88b0c021aabf7ULL}},
      {"low-bandwidth synthetic", low_bandwidth_spec(), {32, 64, 128},
       {0x799efa8451098b4fULL, 0xc6a3ba5401654283ULL, 0x1eda8a4d15bda158ULL}},
  };
  for (const Case& c : cases) {
    const core::WidthSweepResult sweep =
        core::explore_link_widths(c.spec, c.widths, core::SynthesisOptions{});
    std::vector<std::uint64_t> actual;
    for (const core::WidthSweepEntry& e : sweep.entries) {
      actual.push_back(e.feasible ? campaign::result_fingerprint(e.result) : 0);
    }
    expect_pins(std::string("sweep ") + c.name, actual, c.pins);
  }
}

TEST(Golden, CampaignJobKeys) {
  // Job keys address the on-disk store of every earlier campaign: a key
  // that moves turns each stored record into a miss. The matrix covers the
  // three strategies, the clustering behind "comm" and the width axis.
  campaign::CampaignSpec spec;
  spec.name = "keys";
  spec.benchmarks = {"d26"};
  campaign::SyntheticScenario family;
  family.params.cores = 12;
  family.params.hubs = 2;
  family.params.seed = 5;
  spec.synthetic = {family};
  spec.strategies = {"logical", "comm", "spec"};
  spec.island_counts = {2, 3};
  spec.widths = {32, 64};
  struct Pin {
    const char* name;
    std::uint64_t key;
    std::uint64_t structure_key;
  };
  const std::vector<Pin> pins = {
      {"d26/logical/i2/w32", 0xf3ae58b624026f15ULL, 0x5dbe16662a8a2930ULL},
      {"d26/logical/i2/w64", 0x43eb89156ff84a88ULL, 0x5dbe16662a8a2930ULL},
      {"d26/logical/i3/w32", 0x511eca7d5415fb21ULL, 0x8f923afcf2498cccULL},
      {"d26/logical/i3/w64", 0x91448c38051eb64cULL, 0x8f923afcf2498cccULL},
      {"d26/comm/i2/w32", 0xa632c26023f7dc06ULL, 0x1a18004aa9ce1eb3ULL},
      {"d26/comm/i2/w64", 0xaf73cc15fc2177efULL, 0x1a18004aa9ce1eb3ULL},
      {"d26/comm/i3/w32", 0xd64bad9c36a02b95ULL, 0xec777606cb3a7eb0ULL},
      {"d26/comm/i3/w64", 0x88c75559506d1a08ULL, 0xec777606cb3a7eb0ULL},
      {"d26/spec/w32", 0xeb21389dce5a55e9ULL, 0x8689b90dbc1ae504ULL},
      {"d26/spec/w64", 0xb3fef3311a5cf074ULL, 0x8689b90dbc1ae504ULL},
      {"synthetic_c12_s5/logical/i2/w32", 0x88b3feb25e72c698ULL, 0xd4680731f03a7d09ULL},
      {"synthetic_c12_s5/logical/i2/w64", 0xeb13283496ff66c9ULL, 0xd4680731f03a7d09ULL},
      {"synthetic_c12_s5/logical/i3/w32", 0x07679e1ec3828023ULL, 0x0bd3d347849fdef2ULL},
      {"synthetic_c12_s5/logical/i3/w64", 0x5b3859bfa951a1f6ULL, 0x0bd3d347849fdef2ULL},
      {"synthetic_c12_s5/comm/i2/w32", 0xe7ec9b4576dac9d8ULL, 0x76a89bdbe7354fc9ULL},
      {"synthetic_c12_s5/comm/i2/w64", 0x99fa51089b3e1a89ULL, 0x76a89bdbe7354fc9ULL},
      {"synthetic_c12_s5/comm/i3/w32", 0x750bccd8a3577574ULL, 0xc313a76b17666435ULL},
      {"synthetic_c12_s5/comm/i3/w64", 0x93c2de13e2a2ed7dULL, 0xc313a76b17666435ULL},
      {"synthetic_c12_s5/spec/w32", 0xaa8919e1627dc6a0ULL, 0x5df00472159548e1ULL},
      {"synthetic_c12_s5/spec/w64", 0x7dc4d67dd2bc9f71ULL, 0x5df00472159548e1ULL},
  };
  const std::vector<campaign::CampaignJob> jobs = campaign::expand_jobs(spec);
  ASSERT_EQ(jobs.size(), pins.size());
  std::vector<std::uint64_t> actual;
  std::vector<std::uint64_t> pinned;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].name, pins[i].name);
    actual.insert(actual.end(), {jobs[i].key, jobs[i].structure_key});
    pinned.insert(pinned.end(), {pins[i].key, pins[i].structure_key});
  }
  expect_pins("campaign job keys", actual, pinned);
}

}  // namespace
}  // namespace vinoc
