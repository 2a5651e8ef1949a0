// Candidate-level delta evaluation: bit-identity of the config-diff replay
// path against from-scratch evaluation (threads x prune x deterministic_prune
// on seed benchmarks and synthetic multi-island specs), the forced
// route-equivalence certificate (every replayed route — intra-island and
// certified cross-island — re-derived by the flow's own Dijkstra and
// compared hop-by-hop, every whole-member skip re-derived by a full
// evaluation, zero rejects), reuse-counter sanity at threads == 1 (the
// reference always precedes its members), the pinned d64/l2 outcome ledger
// and skip count, the cross-island certificate's miss path, and
// composition with the width sweep on both the default and fine width grids.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/frequency.hpp"
#include "vinoc/core/router.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

soc::SocSpec islanded(const soc::Benchmark& bm, int islands) {
  return soc::with_logical_islands(bm.soc, islands, bm.use_cases);
}

std::uint64_t fp(const SynthesisResult& r) {
  return campaign::result_fingerprint(r);
}

/// Members of d64 / 2 logical islands (partition_seed 1, threads 1) proven
/// identical to their reference before routing.
constexpr int kD64L2Skips = 1118;

/// RAII guard for the process-global forced-certificate knob.
struct ForcedCertGuard {
  explicit ForcedCertGuard(bool enabled) : prev(set_delta_cert_forced(enabled)) {}
  ~ForcedCertGuard() { set_delta_cert_forced(prev); }
  bool prev;
};

TEST(DeltaEval, BitIdenticalToFromScratchForThreadsAndPrune) {
  for (const soc::SocSpec& spec :
       {islanded(soc::make_d26_media_soc(), 4),
        islanded(soc::make_d36_settop_soc(), 3)}) {
    for (const bool prune : {true, false}) {
      // From-scratch reference (delta off, threads == 1).
      SynthesisOptions ref_opt;
      ref_opt.threads = 1;
      ref_opt.prune = prune;
      ref_opt.delta_eval = false;
      const std::uint64_t ref = fp(synthesize(spec, ref_opt));

      for (const int threads : {1, 4}) {
        SynthesisOptions opt;
        opt.threads = threads;
        opt.prune = prune;
        opt.delta_eval = true;
        const SynthesisResult r = synthesize(spec, opt);
        EXPECT_EQ(fp(r), ref) << "threads " << threads << " prune " << prune;
        if (threads == 1) {
          // Sequential evaluation: every group reference finishes before its
          // members start, so replay is always armed and must pay off.
          EXPECT_GT(r.stats.delta_candidates, 0);
          EXPECT_GT(r.stats.delta_flows_reused, 0);
          EXPECT_GT(r.stats.delta_reuse_rate(), 0.0);
        }
        EXPECT_EQ(r.stats.delta_cert_rejects, 0);
      }
    }
  }
}

TEST(DeltaEval, DeterministicPruneOffStaysBitIdentical) {
  const soc::SocSpec spec = islanded(soc::make_d26_media_soc(), 4);
  SynthesisOptions off;
  off.deterministic_prune = false;
  off.delta_eval = false;
  const std::uint64_t ref = fp(synthesize(spec, off));
  SynthesisOptions on = off;
  on.delta_eval = true;
  EXPECT_EQ(fp(synthesize(spec, on)), ref);
}

TEST(DeltaEval, ForcedCertificateAcceptsEveryReplay) {
  // Forced mode re-derives every would-be replayed route with the flow's own
  // solo Dijkstra and compares hop sequences, and every would-be member
  // skip with a full evaluation: the certificates must accept every one
  // (the replay machinery claims bit-identity; here it proves it route by
  // route and member by member), and the result must still match
  // from-scratch.
  const ForcedCertGuard guard(true);
  for (const soc::SocSpec& spec :
       {islanded(soc::make_d64_tile_soc(), 2),
        islanded(soc::make_d64_tile_soc(), 4),
        islanded(soc::make_d26_media_soc(), 4),
        islanded(soc::make_d36_settop_soc(), 5)}) {
    SynthesisOptions ref_opt;
    ref_opt.delta_eval = false;
    const std::uint64_t ref = fp(synthesize(spec, ref_opt));

    SynthesisOptions opt;
    opt.delta_eval = true;
    const SynthesisResult r = synthesize(spec, opt);
    EXPECT_EQ(fp(r), ref);
    EXPECT_GT(r.stats.delta_flows_certified, 0);
    EXPECT_GT(r.stats.delta_members_skipped, 0);  // verified, not taken
    EXPECT_EQ(r.stats.delta_flows_reused, 0);  // forced mode certifies instead
    EXPECT_EQ(r.stats.delta_cert_rejects, 0);
  }
}

TEST(DeltaEval, CrossCertificateBitIdenticalOnD64) {
  // The d64 configurations where the cross-island certificate and the
  // member skip do nearly all the work: delta on must reproduce delta off
  // exactly for every thread count and pruning mode (at threads 4 members
  // read published reference outcomes concurrently).
  for (const int islands : {2, 4}) {
    const soc::SocSpec spec = islanded(soc::make_d64_tile_soc(), islands);
    for (const bool prune : {true, false}) {
      SynthesisOptions ref_opt;
      ref_opt.prune = prune;
      ref_opt.delta_eval = false;
      const std::uint64_t ref = fp(synthesize(spec, ref_opt));
      for (const int threads : {1, 4}) {
        SynthesisOptions opt = ref_opt;
        opt.delta_eval = true;
        opt.threads = threads;
        const SynthesisResult r = synthesize(spec, opt);
        EXPECT_EQ(fp(r), ref) << "l" << islands << " threads " << threads
                              << " prune " << prune;
        if (threads == 1) {
          EXPECT_GT(r.stats.delta_members_skipped, 0);
        }
      }
    }
  }
}

TEST(DeltaEval, D64TwoIslandLedgerAndSkipsArePinned) {
  // Skipping members must not move a single candidate between outcome
  // classes; the skip count itself is deterministic at threads == 1.
  const soc::SocSpec spec = islanded(soc::make_d64_tile_soc(), 2);
  SynthesisOptions opt;
  opt.threads = 1;
  opt.partition_seed = 1;
  const SynthesisResult r = synthesize(spec, opt);
  EXPECT_EQ(r.stats.configs_explored, 1716);
  EXPECT_EQ(r.stats.configs_saved, 93);
  EXPECT_EQ(r.stats.rejected_duplicate, 1111);
  EXPECT_EQ(r.stats.rejected_unroutable, 490);
  EXPECT_EQ(r.stats.rejected_deadlock, 10);
  EXPECT_EQ(r.stats.rejected_pruned, 12);
  EXPECT_EQ(r.stats.delta_members_skipped, kD64L2Skips);
  EXPECT_EQ(r.stats.delta_cert_rejects, 0);
}

TEST(DeltaEval, CrossCertificateMissesRouteLive) {
  // Drives the evaluation stage with synthesize()'s group wiring. Members
  // that replay without being skipped — against a reference whose routing
  // stopped at an unroutable flow, where this input's natural certificate
  // misses sit (a handful of cross flows per input) — must equal a
  // from-scratch evaluation. Then a miss is forced on a member that would
  // otherwise be skipped: exactly that flow routes live, reproduces the
  // record (so nothing taints) and everything else still replays.
  const soc::SocSpec spec = islanded(soc::make_d64_tile_soc(), 2);
  SynthesisOptions opt;
  opt.threads = 1;
  const floorplan::Floorplan plan = floorplan::Floorplan::build(spec, opt.floorplan);
  const std::vector<IslandNocParams> params = derive_island_params(
      spec, opt.tech, opt.link_width_bits, opt.port_reserve);
  const IslandNocParams inter = derive_intermediate_params(params, opt.tech);
  const std::vector<CandidateConfig> cands = enumerate_candidates(spec, params, opt);
  exec::ThreadPool pool(1);
  const PartitionTable parts = compute_partitions(spec, opt, params, cands, pool);
  const std::vector<double> traffic = compute_core_traffic(spec);
  const std::vector<std::size_t> order = bandwidth_descending_order(spec);
  const EvalContext ctx{spec, plan, params, inter, parts, traffic, opt, &order, 0.0};

  auto expect_same = [&](const CandidateOutcome& out, std::size_t i) {
    const CandidateOutcome solo = evaluate_candidate(ctx, cands[i]);
    EXPECT_EQ(out.status, solo.status) << "candidate " << i;
    EXPECT_EQ(out.signature, solo.signature) << "candidate " << i;
    EXPECT_EQ(out.point.metrics.noc_dynamic_w, solo.point.metrics.noc_dynamic_w);
    EXPECT_EQ(out.point.metrics.avg_latency_cycles,
              solo.point.metrics.avg_latency_cycles);
  };

  EvalScratch scratch;
  std::shared_ptr<DeltaReference> ref;
  std::shared_ptr<const DeltaReference> skip_ref;  // first skip's reference
  std::size_t skip_member = 0;
  int partial = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (i == 0 || cands[i].switches_per_island != cands[i - 1].switches_per_island) {
      ref = std::make_shared<DeltaReference>();
      (void)evaluate_candidate(ctx, cands[i], &scratch, nullptr, ref.get());
      continue;
    }
    scratch.delta.ref = ref.get();
    const CandidateOutcome out =
        evaluate_candidate(ctx, cands[i], &scratch, nullptr, nullptr, &scratch.delta);
    const DeltaRouteState& d = scratch.delta;
    if (d.member_skipped && skip_ref == nullptr) {
      skip_ref = ref;
      skip_member = i;
    }
    if (!d.pnorm_matched || d.member_skipped || ref->outcome != nullptr) continue;
    ++partial;
    EXPECT_GT(d.flows_reused, 0);
    expect_same(out, i);
  }
  EXPECT_GT(partial, 0);
  ASSERT_NE(skip_ref, nullptr);

  // Forced miss: the first cross-island flow's recorded distance can no
  // longer beat any bound.
  DeltaReference poisoned = *skip_ref;
  std::size_t pos = 0;
  while (spec.cores[static_cast<std::size_t>(spec.flows[order[pos]].src)].island ==
         spec.cores[static_cast<std::size_t>(spec.flows[order[pos]].dst)].island) {
    ++pos;
  }
  poisoned.records[pos].dist = 1e300;
  scratch.delta.ref = &poisoned;
  const CandidateOutcome out = evaluate_candidate(ctx, cands[skip_member], &scratch,
                                                  nullptr, nullptr, &scratch.delta);
  EXPECT_TRUE(scratch.delta.pnorm_matched);
  EXPECT_FALSE(scratch.delta.member_skipped);
  EXPECT_EQ(scratch.delta.flows_rerouted, 1);
  EXPECT_GT(scratch.delta.flows_reused, 0);
  expect_same(out, skip_member);
}

TEST(DeltaEval, ReuseRateIsMeaningfulOnSeedBenchmarks) {
  // Seed-benchmark sweeps serve most delta-eligible flows from the group
  // reference instead of running Dijkstra: intra-island flows replay, and
  // so do cross-island flows the certificate proves untouched by the
  // intermediate VI. These configurations measure 0.97-1.0 (intra-only
  // replay measured 0.34-0.49).
  for (const auto& [bm, islands] :
       {std::pair{soc::make_d26_media_soc(), 2},
        std::pair{soc::make_d64_tile_soc(), 4}}) {
    const soc::SocSpec spec = islanded(bm, islands);
    SynthesisOptions opt;
    opt.threads = 1;
    const SynthesisResult r = synthesize(spec, opt);
    EXPECT_GT(r.stats.delta_reuse_rate(), 0.9);
  }
}

TEST(DeltaEval, ComposesWithWidthSweepOnDefaultAndFineGrids) {
  const soc::SocSpec spec = islanded(soc::make_d26_media_soc(), 4);
  for (const std::vector<int>& widths :
       {std::vector<int>{32, 64, 128}, std::vector<int>{128, 160, 192, 256}}) {
    SynthesisOptions ref_opt;
    ref_opt.delta_eval = false;
    const WidthSweepResult ref = explore_link_widths(spec, widths, ref_opt);

    for (const int threads : {1, 4}) {
      SynthesisOptions opt;
      opt.threads = threads;
      opt.delta_eval = true;
      const WidthSweepResult sweep = explore_link_widths(spec, widths, opt);
      ASSERT_EQ(sweep.entries.size(), ref.entries.size());
      for (std::size_t i = 0; i < widths.size(); ++i) {
        ASSERT_EQ(sweep.entries[i].feasible, ref.entries[i].feasible)
            << "width " << widths[i];
        if (!ref.entries[i].feasible) continue;
        EXPECT_EQ(fp(sweep.entries[i].result), fp(ref.entries[i].result))
            << "width " << widths[i] << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace vinoc::core
