// The width sweep: bit-identity of explore_link_widths() /
// synthesize_width_set() against per-width synthesize() for every thread
// count and both prune settings, delta-evaluation tallies equal to the solo
// runs', SIMD-vs-scalar relaxation-filter bit-identity, the streaming
// per-width merge's buffer cap, the cross-width partition cache,
// sweep-global progress reporting, and the flat PartitionTable container.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "vinoc/core/router.hpp"

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

soc::SocSpec multi_island_spec(int cores = 16, int islands = 4) {
  soc::SyntheticParams params;
  params.cores = cores;
  params.hubs = std::max(1, cores / 8);
  params.seed = 17;
  const soc::Benchmark bm = soc::make_synthetic_soc(params);
  return soc::with_logical_islands(bm.soc, islands, bm.use_cases);
}

/// Spec whose island frequencies snap to the SAME grid point at every
/// sweep width (bandwidths far below the grid floor): one structural class
/// whose widths differ only in link capacity.
soc::SocSpec low_bandwidth_spec() {
  soc::SocSpec spec = multi_island_spec();
  for (soc::Flow& f : spec.flows) f.bandwidth_bits_per_s /= 512.0;
  return spec;
}

std::uint64_t fp(const SynthesisResult& r) {
  return campaign::result_fingerprint(r);
}

/// Solo fingerprint at one width; 0 for an infeasible width.
std::uint64_t solo_fp(const soc::SocSpec& spec, SynthesisOptions opt, int width) {
  opt.link_width_bits = width;
  try {
    return fp(synthesize(spec, opt));
  } catch (const InfeasibleWidthError&) {
    return 0;
  }
}

soc::SocSpec logical(const soc::Benchmark& bm, int islands) {
  return soc::with_logical_islands(bm.soc, islands, bm.use_cases);
}

struct SweepCase {
  const char* name;
  soc::SocSpec spec;
  std::vector<int> widths;
};

/// Width sets whose derived island frequencies coincide (the low-bandwidth
/// spec), lie close together (d24/l5 at {128, 160}, d26/l4 on the dense
/// grid) or differ per width.
std::vector<SweepCase> sweep_cases() {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  return {
      {"synthetic/l3", multi_island_spec(12, 3), {8, 16, 32, 64, 128}},
      {"low-bandwidth", low_bandwidth_spec(), {8, 16, 32, 64, 128}},
      {"d26/l4 coarse", logical(d26, 4), {32, 64, 128}},
      {"d26/l4 dense", logical(d26, 4), {128, 160, 192, 256}},
      {"d24/l5", logical(soc::make_d24_imaging_soc(), 5), {128, 160}},
  };
}

TEST(WidthSweep, BitIdenticalToPerWidthSynthesizeForThreadsAndPrune) {
  for (const SweepCase& c : sweep_cases()) {
    for (const bool prune : {true, false}) {
      // The solo reference is thread-count independent (synthesize()'s
      // guarantee, enforced elsewhere); compute it once at threads == 1.
      SynthesisOptions ref_opt;
      ref_opt.threads = 1;
      ref_opt.prune = prune;
      std::vector<std::uint64_t> ref;
      for (const int w : c.widths) ref.push_back(solo_fp(c.spec, ref_opt, w));

      for (const int threads : {1, 4}) {
        SynthesisOptions opt;
        opt.threads = threads;
        opt.prune = prune;
        const WidthSweepResult sweep = explore_link_widths(c.spec, c.widths, opt);
        ASSERT_EQ(sweep.entries.size(), c.widths.size());
        for (std::size_t i = 0; i < c.widths.size(); ++i) {
          const WidthSweepEntry& e = sweep.entries[i];
          EXPECT_EQ(e.width_bits, c.widths[i]);
          if (ref[i] == 0) {
            EXPECT_FALSE(e.feasible) << c.name << " width " << c.widths[i];
          } else {
            ASSERT_TRUE(e.feasible) << c.name << " width " << c.widths[i];
            EXPECT_EQ(fp(e.result), ref[i])
                << c.name << " width " << c.widths[i] << " threads " << threads
                << " prune " << prune;
          }
        }
      }
    }
  }
}

TEST(WidthSweep, DeltaTalliesEqualPerWidthSynthesize) {
  // At threads == 1 every width of the sweep evaluates its candidates in
  // enumeration order with its own group references, exactly like a solo
  // synthesize(), so the delta-evaluation tallies must match per entry.
  long long replayed = 0;
  for (const SweepCase& c : sweep_cases()) {
    for (const bool prune : {true, false}) {
      SynthesisOptions opt;
      opt.threads = 1;
      opt.prune = prune;
      const WidthSweepResult sweep = explore_link_widths(c.spec, c.widths, opt);
      for (std::size_t i = 0; i < c.widths.size(); ++i) {
        const WidthSweepEntry& e = sweep.entries[i];
        if (!e.feasible) continue;
        SynthesisOptions solo_opt = opt;
        solo_opt.link_width_bits = c.widths[i];
        const SynthesisStats solo = synthesize(c.spec, solo_opt).stats;
        const SynthesisStats& st = e.result.stats;
        const std::string where = std::string(c.name) + " width " +
                                  std::to_string(c.widths[i]) + " prune " +
                                  std::to_string(prune);
        EXPECT_EQ(st.delta_candidates, solo.delta_candidates) << where;
        EXPECT_EQ(st.delta_flows_reused, solo.delta_flows_reused) << where;
        EXPECT_EQ(st.delta_flows_rerouted, solo.delta_flows_rerouted) << where;
        EXPECT_EQ(st.delta_members_skipped, solo.delta_members_skipped)
            << where;
        replayed += solo.delta_candidates;
      }
    }
  }
  EXPECT_GT(replayed, 0);  // the comparison is not vacuous
}

TEST(WidthSweep, SimdAndScalarRelaxationFiltersAreBitIdentical) {
  // The 4-wide relaxation filter must be a pure accelerant: across the
  // widths x threads x prune matrix, fingerprints with the vector filter
  // must equal the scalar reference's. In VINOC_SIMD_FORCE_SCALAR builds
  // the toggle is a no-op and both passes run the scalar path.
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const std::vector<soc::SocSpec> specs = {
      multi_island_spec(12, 3),
      soc::with_logical_islands(d26.soc, 4, d26.use_cases)};
  const std::vector<int> widths = {32, 64, 128, 160};
  const bool was_enabled = router_simd_enabled();
  for (const soc::SocSpec& spec : specs) {
    for (const bool prune : {true, false}) {
      for (const int threads : {1, 4}) {
        SynthesisOptions opt;
        opt.prune = prune;
        opt.threads = threads;
        std::vector<std::uint64_t> scalar_fps;
        set_router_simd_enabled(false);
        for (const WidthSweepEntry& e :
             explore_link_widths(spec, widths, opt).entries) {
          scalar_fps.push_back(e.feasible ? fp(e.result) : 0);
        }
        set_router_simd_enabled(true);
        std::vector<std::uint64_t> simd_fps;
        for (const WidthSweepEntry& e :
             explore_link_widths(spec, widths, opt).entries) {
          simd_fps.push_back(e.feasible ? fp(e.result) : 0);
        }
        EXPECT_EQ(scalar_fps, simd_fps)
            << "prune " << prune << " threads " << threads;
      }
    }
  }
  set_router_simd_enabled(was_enabled);
}

TEST(WidthSweep, StreamingMergeCapsBufferedOutcomes) {
  // With one thread every candidate merges as soon as it finishes, so the
  // streaming merge never buffers more than one evaluation batch: the
  // sweep's high-water mark is at most the width count, and a solo
  // synthesize() buffers exactly one outcome at a time.
  const soc::SocSpec spec = multi_island_spec(12, 3);
  const std::vector<int> widths = {32, 64, 128};
  SynthesisOptions opt;
  exec::ThreadPool pool(1);
  EvalScratchPool scratch;
  WidthSetStats stats;
  const std::vector<WidthSweepEntry> entries =
      synthesize_width_set(spec, widths, opt, pool, scratch, &stats);
  EXPECT_GT(stats.peak_buffered_outcomes, 0);
  EXPECT_LE(stats.peak_buffered_outcomes, static_cast<int>(widths.size()));
  long long total_outcomes = 0;
  for (const WidthSweepEntry& e : entries) {
    EXPECT_EQ(e.result.stats.peak_buffered_outcomes,
              stats.peak_buffered_outcomes);  // sweep-global, stamped per entry
    total_outcomes += e.result.stats.configs_explored;
  }
  EXPECT_LT(stats.peak_buffered_outcomes, total_outcomes);

  SynthesisOptions solo;
  solo.threads = 1;
  solo.link_width_bits = 64;
  const SynthesisResult r = synthesize(spec, solo);
  EXPECT_EQ(r.stats.peak_buffered_outcomes, 1);

  // Parallel runs may buffer out-of-order completions, but never more than
  // the whole candidate list.
  SynthesisOptions par = solo;
  par.threads = 4;
  const SynthesisResult rp = synthesize(spec, par);
  EXPECT_GE(rp.stats.peak_buffered_outcomes, 1);
  EXPECT_LE(rp.stats.peak_buffered_outcomes, rp.stats.configs_explored);
}

TEST(WidthSweep, CrossWidthPartitionCacheServesRepeatedProblems) {
  // d26 saturates several islands' max switch size across widths, so their
  // (island, k, max block) min-cut problems repeat between the classes.
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec = soc::with_logical_islands(d26.soc, 4, d26.use_cases);
  SynthesisOptions opt;
  exec::ThreadPool pool(1);
  EvalScratchPool scratch;
  WidthSetStats stats;
  (void)synthesize_width_set(spec, {16, 32, 64, 128}, opt, pool, scratch, &stats);
  // Several widths saturate to the same per-island max switch size, so their
  // (island, k, max block) min-cut problems are computed once and reused.
  EXPECT_GT(stats.partition_cache_hits, 0);
}

TEST(WidthSweep, ProgressIsSweepGlobalAndMonotonic) {
  const soc::SocSpec spec = multi_island_spec(12, 3);
  const std::vector<int> widths = {1, 16, 32};  // width 1 is infeasible
  SynthesisOptions opt;
  opt.threads = 4;
  std::mutex mutex;
  std::size_t calls = 0;
  std::size_t last_completed = 0;
  std::size_t reported_total = 0;
  std::set<int> widths_seen;
  opt.on_progress = [&](const SynthesisProgress& p) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++calls;
    EXPECT_EQ(p.completed, last_completed + 1);  // global, strictly monotone
    last_completed = p.completed;
    reported_total = p.total;
    widths_seen.insert(p.link_width_bits);
  };
  const WidthSweepResult sweep = explore_link_widths(spec, widths, opt);
  // Total == every (candidate, width) evaluation over the FEASIBLE widths.
  std::size_t expect_total = 0;
  for (const WidthSweepEntry& e : sweep.entries) {
    if (e.feasible) {
      expect_total += static_cast<std::size_t>(e.result.stats.configs_explored);
    }
  }
  EXPECT_EQ(calls, expect_total);
  EXPECT_EQ(last_completed, reported_total);
  EXPECT_EQ(reported_total, expect_total);
  std::set<int> feasible_widths;
  for (const WidthSweepEntry& e : sweep.entries) {
    if (e.feasible) feasible_widths.insert(e.width_bits);
  }
  EXPECT_FALSE(feasible_widths.count(1));  // infeasible widths stay silent
  EXPECT_EQ(widths_seen, feasible_widths);
}

TEST(WidthSweep, DuplicateWidthsYieldIdenticalEntries) {
  const soc::SocSpec spec = multi_island_spec(12, 3);
  SynthesisOptions opt;
  const WidthSweepResult sweep = explore_link_widths(spec, {32, 32}, opt);
  ASSERT_EQ(sweep.entries.size(), 2u);
  ASSERT_TRUE(sweep.entries[0].feasible);
  ASSERT_TRUE(sweep.entries[1].feasible);
  EXPECT_EQ(fp(sweep.entries[0].result), fp(sweep.entries[1].result));
  EXPECT_EQ(fp(sweep.entries[0].result), solo_fp(spec, opt, 32));
}

TEST(WidthSweep, InfeasibleWidthRecordedAndSpecErrorsPropagate) {
  const soc::SocSpec spec = multi_island_spec(12, 3);
  const WidthSweepResult sweep = explore_link_widths(spec, {1, 32});
  ASSERT_EQ(sweep.entries.size(), 2u);
  EXPECT_FALSE(sweep.entries[0].feasible);
  EXPECT_TRUE(sweep.entries[1].feasible);

  SynthesisOptions bad;
  bad.alpha = 2.0;
  EXPECT_THROW((void)explore_link_widths(spec, {32}, bad), std::invalid_argument);
}

TEST(PartitionTable, FlatSortedContainerSemantics) {
  std::vector<PartitionKey> keys = {{2, 3}, {0, 1}, {2, 3}, {1, 2}, {0, 1}};
  PartitionTable table(std::move(keys));
  ASSERT_EQ(table.size(), 3u);  // deduplicated
  // Sorted ascending by (island, switch count).
  EXPECT_EQ(table.key(0), (PartitionKey{0, 1}));
  EXPECT_EQ(table.key(1), (PartitionKey{1, 2}));
  EXPECT_EQ(table.key(2), (PartitionKey{2, 3}));
  table.slot(1).blocks = {{4, 5}};
  ASSERT_NE(table.find({1, 2}), nullptr);
  EXPECT_EQ(table.at({1, 2}).blocks.size(), 1u);
  EXPECT_EQ(table.find({1, 7}), nullptr);
  EXPECT_THROW((void)table.at({3, 1}), std::out_of_range);
  const PartitionTable empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.find({0, 1}), nullptr);
}

}  // namespace
}  // namespace vinoc::core
