// Candidate-level delta evaluation: bit-identity of the config-diff replay
// path against from-scratch evaluation (threads x prune x deterministic_prune
// on seed benchmarks and synthetic multi-island specs), with every saved
// point compared field by field on d64 (result_fingerprint hashes only part
// of a topology, and skipped members' points are copied from a shared
// outcome), reuse-counter sanity, delta tallies that do not depend on the
// thread count (one strand runs each group, its reference first), the
// pinned d64/l2 outcome ledger and skip count, skipped members' bound
// checkpoints, the d64/l4 fine sweep's ledger with every member skipped,
// the delta tallies of the synthetic 64- and 128-core SoCs, pruned
// recording leaders (which route once, to the end), the cross-island
// certificate's miss path, and composition with the width sweep on both
// the default and fine width grids. Both sides of these comparisons share
// the engine's router; test_reference checks delta-on results against the
// independent Algorithm 1 oracle instead.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every field of two designs, doubles bit for bit (callers name the design
/// with SCOPED_TRACE).
void expect_same_design(const DesignPoint& a, const DesignPoint& b) {
  EXPECT_EQ(a.switches_per_island, b.switches_per_island);
  EXPECT_EQ(a.intermediate_switches, b.intermediate_switches);
  const NocTopology& ta = a.topology;
  const NocTopology& tb = b.topology;
  EXPECT_EQ(ta.switch_of_core, tb.switch_of_core);
  ASSERT_EQ(ta.switches.size(), tb.switches.size());
  for (std::size_t s = 0; s < ta.switches.size(); ++s) {
    const SwitchInst& x = ta.switches[s];
    const SwitchInst& y = tb.switches[s];
    EXPECT_EQ(x.island, y.island) << "switch " << s;
    EXPECT_EQ(bits(x.freq_hz), bits(y.freq_hz)) << "switch " << s;
    EXPECT_EQ(bits(x.pos.x_mm), bits(y.pos.x_mm)) << "switch " << s;
    EXPECT_EQ(bits(x.pos.y_mm), bits(y.pos.y_mm)) << "switch " << s;
    EXPECT_EQ(x.cores, y.cores) << "switch " << s;
  }
  ASSERT_EQ(ta.links.size(), tb.links.size());
  for (std::size_t l = 0; l < ta.links.size(); ++l) {
    const TopLink& x = ta.links[l];
    const TopLink& y = tb.links[l];
    EXPECT_EQ(x.src_switch, y.src_switch) << "link " << l;
    EXPECT_EQ(x.dst_switch, y.dst_switch) << "link " << l;
    EXPECT_EQ(x.crosses_island, y.crosses_island) << "link " << l;
    EXPECT_EQ(bits(x.length_mm), bits(y.length_mm)) << "link " << l;
    EXPECT_EQ(bits(x.carried_bw_bits_per_s), bits(y.carried_bw_bits_per_s))
        << "link " << l;
    EXPECT_EQ(x.flows, y.flows) << "link " << l;
  }
  ASSERT_EQ(ta.routes.size(), tb.routes.size());
  for (std::size_t f = 0; f < ta.routes.size(); ++f) {
    const FlowRoute& x = ta.routes[f];
    const FlowRoute& y = tb.routes[f];
    EXPECT_EQ(x.src_switch, y.src_switch) << "route " << f;
    EXPECT_EQ(x.dst_switch, y.dst_switch) << "route " << f;
    EXPECT_EQ(x.links, y.links) << "route " << f;
    EXPECT_EQ(bits(x.latency_cycles), bits(y.latency_cycles)) << "route " << f;
    EXPECT_EQ(x.crossings, y.crossings) << "route " << f;
  }
  ASSERT_EQ(ta.ni_wire_mm.size(), tb.ni_wire_mm.size());
  for (std::size_t c = 0; c < ta.ni_wire_mm.size(); ++c) {
    EXPECT_EQ(bits(ta.ni_wire_mm[c]), bits(tb.ni_wire_mm[c])) << "core " << c;
  }
  ASSERT_EQ(ta.island_freq_hz.size(), tb.island_freq_hz.size());
  for (std::size_t i = 0; i < ta.island_freq_hz.size(); ++i) {
    EXPECT_EQ(bits(ta.island_freq_hz[i]), bits(tb.island_freq_hz[i]));
  }
  EXPECT_EQ(bits(ta.intermediate_freq_hz), bits(tb.intermediate_freq_hz));
  const Metrics& ma = a.metrics;
  const Metrics& mb = b.metrics;
  for (const auto& [name, x, y] :
       {std::tuple{"noc_dynamic_w", ma.noc_dynamic_w, mb.noc_dynamic_w},
        std::tuple{"switch_dynamic_w", ma.switch_dynamic_w, mb.switch_dynamic_w},
        std::tuple{"link_dynamic_w", ma.link_dynamic_w, mb.link_dynamic_w},
        std::tuple{"ni_dynamic_w", ma.ni_dynamic_w, mb.ni_dynamic_w},
        std::tuple{"fifo_dynamic_w", ma.fifo_dynamic_w, mb.fifo_dynamic_w},
        std::tuple{"noc_leakage_w", ma.noc_leakage_w, mb.noc_leakage_w},
        std::tuple{"noc_area_mm2", ma.noc_area_mm2, mb.noc_area_mm2},
        std::tuple{"avg_latency_cycles", ma.avg_latency_cycles, mb.avg_latency_cycles},
        std::tuple{"max_latency_cycles", ma.max_latency_cycles, mb.max_latency_cycles},
        std::tuple{"total_wire_mm", ma.total_wire_mm, mb.total_wire_mm}}) {
    EXPECT_EQ(bits(x), bits(y)) << "metrics." << name;
  }
  EXPECT_EQ(ma.switch_count, mb.switch_count);
  EXPECT_EQ(ma.link_count, mb.link_count);
  EXPECT_EQ(ma.fifo_count, mb.fifo_count);
  EXPECT_EQ(ma.max_switch_ports, mb.max_switch_ports);
}

/// Fingerprint, Pareto indices and every saved point, field by field.
void expect_same_result(const SynthesisResult& a, const SynthesisResult& b) {
  EXPECT_EQ(fp(a), fp(b));
  EXPECT_EQ(a.pareto, b.pareto);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    SCOPED_TRACE(testing::Message() << "point " << p);
    expect_same_design(a.points[p], b.points[p]);
  }
}

/// synthesize()'s evaluation-stage inputs for one width, built through the
/// public API (threads 1), for tests that drive evaluate_candidate with the
/// engine's delta-group wiring.
struct Stage {
  explicit Stage(soc::SocSpec s)
      : spec(std::move(s)),
        plan(floorplan::Floorplan::build(spec, opt.floorplan)),
        params(derive_island_params(spec, opt.tech, opt.link_width_bits,
                                    opt.port_reserve)),
        inter(derive_intermediate_params(params, opt.tech)),
        cands(enumerate_candidates(spec, params, opt)),
        parts([this] {
          exec::ThreadPool pool(1);
          return compute_partitions(spec, opt, params, cands, pool);
        }()),
        traffic(compute_core_traffic(spec)),
        order(bandwidth_descending_order(spec)),
        ctx{spec, plan, params, inter, parts, traffic, opt, &order,
            compute_ni_dynamic_base_w(spec, opt.tech)} {}
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// First candidate of an enumeration group (the delta reference).
  [[nodiscard]] bool leader(std::size_t i) const {
    return i == 0 || cands[i].switches_per_island != cands[i - 1].switches_per_island;
  }

  soc::SocSpec spec;
  SynthesisOptions opt;
  floorplan::Floorplan plan;
  std::vector<IslandNocParams> params;
  IslandNocParams inter;
  std::vector<CandidateConfig> cands;
  PartitionTable parts;
  std::vector<double> traffic;
  std::vector<std::size_t> order;
  EvalContext ctx;
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
        // Each group's leader is evaluated before its members on the same
        // strand, so replay is armed and must pay off at any thread count.
        EXPECT_GT(r.stats.delta_candidates, 0);
        EXPECT_GT(r.stats.delta_flows_reused, 0);
        EXPECT_GT(r.stats.delta_reuse_rate(), 0.0);
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

TEST(DeltaEval, CrossCertificateBitIdenticalOnD64) {
  // The d64 configurations where the cross-island certificate and the
  // member skip do nearly all the work: delta on must reproduce delta off
  // exactly, every saved point field by field, for every thread count and
  // pruning mode (at threads 4 members read published reference outcomes
  // concurrently). With prune on, d64/l2 saves points from skipped members
  // whose leader was itself pruned, copied from the leader's shared outcome.
  for (const int islands : {2, 4}) {
    const soc::SocSpec spec = islanded(soc::make_d64_tile_soc(), islands);
    for (const bool prune : {true, false}) {
      SynthesisOptions ref_opt;
      ref_opt.prune = prune;
      ref_opt.delta_eval = false;
      const SynthesisResult ref = synthesize(spec, ref_opt);
      for (const int threads : {1, 4}) {
        SynthesisOptions opt = ref_opt;
        opt.delta_eval = true;
        opt.threads = threads;
        const SynthesisResult r = synthesize(spec, opt);
        SCOPED_TRACE(testing::Message() << "l" << islands << " threads " << threads
                                        << " prune " << prune);
        expect_same_result(r, ref);
        EXPECT_GT(r.stats.delta_members_skipped, 0);
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
}

/// The four delta tallies of one run, then its router work (expansions,
/// relaxations).
using DeltaTallies =
    std::tuple<int, long long, long long, int, long long, long long>;

TEST(DeltaEval, CountersDoNotDependOnThreadCount) {
  // One strand evaluates each delta group, leader first, so every member
  // replays against its leader's reference whatever the thread count, and
  // the same flows route live. With prune on, a member's prune decision
  // depends on the bound snapshot (and a pruned member counts no delta
  // work), so equality is asserted with prune off. The partitioner's work
  // counters count distinct memo entries, which no schedule changes.
  const soc::SocSpec l2 = islanded(soc::make_d64_tile_soc(), 2);
  const soc::SocSpec l4 = islanded(soc::make_d64_tile_soc(), 4);
  std::vector<DeltaTallies> synth, sweep;
  std::vector<std::pair<long long, long long>> partition_work;
  for (const int threads : {1, 4}) {
    SynthesisOptions opt;
    opt.prune = false;
    opt.partition_seed = 1;
    opt.threads = threads;
    opt.link_width_bits = 32;
    {
      exec::ThreadPool pool(threads);
      EvalScratchPool scratch;
      const SynthesisStats s = synthesize(l2, opt, pool, scratch).stats;
      const RouterWork work = scratch.router_work();
      synth.emplace_back(s.delta_candidates, s.delta_flows_reused,
                         s.delta_flows_rerouted, s.delta_members_skipped,
                         work.expansions, work.relaxations);
    }
    exec::ThreadPool pool(threads);
    EvalScratchPool scratch;
    WidthSetStats w;
    (void)synthesize_width_set(l4, {128, 160, 192, 256}, opt, pool, scratch, &w);
    const RouterWork work = scratch.router_work();
    sweep.emplace_back(w.delta_candidates, w.delta_flows_reused,
                       w.delta_flows_rerouted, w.delta_members_skipped,
                       work.expansions, work.relaxations);
    partition_work.emplace_back(w.partition_bisections, w.partition_pair_refinements);
  }
  EXPECT_GT(std::get<3>(synth[0]), 0);
  EXPECT_GT(std::get<4>(synth[0]), 0);
  EXPECT_EQ(synth[1], synth[0]) << "d64/l2 w32";
  EXPECT_GT(std::get<3>(sweep[0]), 0);
  EXPECT_GT(std::get<5>(sweep[0]), 0);
  EXPECT_EQ(sweep[1], sweep[0]) << "d64/l4 fine sweep";
  EXPECT_GT(partition_work[0].first, 0);
  EXPECT_GT(partition_work[0].second, 0);
  EXPECT_EQ(partition_work[1], partition_work[0]) << "d64/l4 fine sweep partitioning";
}

TEST(DeltaEval, SkippedMembersCarryTheirOwnCheckpointAndDesign) {
  // Drives the evaluation stage with synthesize()'s group wiring and the
  // empty front synthesize() passes before any point is published. A
  // skipped member builds nothing: its bound checkpoint comes from its
  // reference and its design from the reference's shared outcome. Both must
  // be bit-equal to a from-scratch evaluation of the member itself.
  const Stage st(islanded(soc::make_d64_tile_soc(), 2));
  const ParetoBound empty_bound;
  EvalScratch scratch;
  std::shared_ptr<DeltaReference> ref;
  int skipped = 0;
  for (std::size_t i = 0; i < st.cands.size(); ++i) {
    if (st.leader(i)) {
      ref = std::make_shared<DeltaReference>();
      (void)evaluate_candidate(st.ctx, st.cands[i], &scratch, &empty_bound, ref.get());
      continue;
    }
    scratch.delta.ref = ref.get();
    const CandidateOutcome out = evaluate_candidate(st.ctx, st.cands[i], &scratch,
                                                    &empty_bound, nullptr, &scratch.delta);
    if (!scratch.delta.member_skipped) continue;
    ++skipped;
    SCOPED_TRACE(testing::Message() << "candidate " << i);
    const CandidateOutcome solo =
        evaluate_candidate(st.ctx, st.cands[i], nullptr, &empty_bound);
    EXPECT_EQ(bits(out.pruned_power_lb_w), bits(solo.pruned_power_lb_w));
    EXPECT_EQ(bits(out.pruned_latency_lb_cycles), bits(solo.pruned_latency_lb_cycles));
    EXPECT_EQ(out.status, solo.status);
    EXPECT_EQ(out.deadlock_free, solo.deadlock_free);
    ASSERT_NE(out.shared, nullptr);
    EXPECT_EQ(out.shared.get(), ref->outcome.get());
    EXPECT_EQ(out.shared->signature, solo.signature);
    // The top-level fields callers read without following `shared`.
    EXPECT_EQ(out.point.switches_per_island, solo.point.switches_per_island);
    EXPECT_EQ(out.point.intermediate_switches, solo.point.intermediate_switches);
    EXPECT_EQ(bits(out.point.metrics.noc_dynamic_w),
              bits(solo.point.metrics.noc_dynamic_w));
    EXPECT_EQ(bits(out.point.metrics.avg_latency_cycles),
              bits(solo.point.metrics.avg_latency_cycles));
    expect_same_design(out.shared->point, solo.point);
  }
  EXPECT_EQ(skipped, kD64L2Skips);
}

TEST(DeltaEval, FineSweepSavedPointsMatchDeltaOffFieldByField) {
  // Every saved point of the d64/l4 fine sweep comes from a width whose
  // members were all skipped; delta on must still save the same designs,
  // field by field, at one thread and at four.
  const soc::SocSpec spec = islanded(soc::make_d64_tile_soc(), 4);
  const std::vector<int> widths = {128, 160, 192, 256};
  SynthesisOptions ref_opt;
  ref_opt.partition_seed = 1;
  ref_opt.delta_eval = false;
  // Four threads only shorten the slow delta-off run (the sanitizer jobs
  // run this test); results do not depend on the thread count.
  ref_opt.threads = 4;
  const WidthSweepResult ref = explore_link_widths(spec, widths, ref_opt);
  for (const int threads : {1, 4}) {
    SynthesisOptions opt = ref_opt;
    opt.delta_eval = true;
    opt.threads = threads;
    const WidthSweepResult sweep = explore_link_widths(spec, widths, opt);
    ASSERT_EQ(sweep.entries.size(), ref.entries.size());
    for (std::size_t i = 0; i < widths.size(); ++i) {
      ASSERT_TRUE(ref.entries[i].feasible) << "width " << widths[i];
      ASSERT_TRUE(sweep.entries[i].feasible) << "width " << widths[i];
      SCOPED_TRACE(testing::Message() << "width " << widths[i] << " threads "
                                      << threads);
      expect_same_result(sweep.entries[i].result, ref.entries[i].result);
    }
  }
}

TEST(DeltaEval, D64FourIslandFineSweepSkipsEveryMember) {
  // At wide widths the router leaves the offered intermediate ring unused,
  // and the per-flow cross-island bound proves it before routing: every
  // delta member of the fine sweep shares its reference's outcome, and no
  // flow routes live. The ledger must not move.
  const soc::SocSpec spec = islanded(soc::make_d64_tile_soc(), 4);
  SynthesisOptions opt;
  opt.threads = 1;
  opt.partition_seed = 1;
  const WidthSweepResult sweep =
      explore_link_widths(spec, {128, 160, 192, 256}, opt);
  int saved = 0, duplicate = 0, pruned = 0, candidates = 0, skipped = 0;
  long long rerouted = 0;
  for (const WidthSweepEntry& e : sweep.entries) {
    ASSERT_TRUE(e.feasible) << "width " << e.width_bits;
    saved += e.result.stats.configs_saved;
    duplicate += e.result.stats.rejected_duplicate;
    pruned += e.result.stats.rejected_pruned;
    candidates += e.result.stats.delta_candidates;
    skipped += e.result.stats.delta_members_skipped;
    rerouted += e.result.stats.delta_flows_rerouted;
  }
  EXPECT_EQ(saved, 128);
  EXPECT_EQ(duplicate, 4910);
  EXPECT_EQ(pruned, 2);
  EXPECT_EQ(candidates, 4900);
  EXPECT_EQ(skipped, 4900);
  EXPECT_EQ(rerouted, 0);
}

TEST(DeltaEval, CrossCertificateMissesRouteLive) {
  // Drives the evaluation stage with synthesize()'s group wiring. Members
  // that replay without being skipped — against a reference whose routing
  // stopped at an unroutable flow, where this input's natural certificate
  // misses sit (a handful of cross flows per input) — must equal a
  // from-scratch evaluation. Then a miss is forced on a member that would
  // otherwise be skipped: exactly that flow routes live, reproduces the
  // record (so nothing taints) and everything else still replays.
  const Stage st(islanded(soc::make_d64_tile_soc(), 2));
  const soc::SocSpec& spec = st.spec;
  const std::vector<CandidateConfig>& cands = st.cands;
  const std::vector<std::size_t>& order = st.order;
  const EvalContext& ctx = st.ctx;

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
    if (st.leader(i)) {
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

  // Forced miss: the first cross-island flow's verdict flips.
  DeltaReference poisoned = *skip_ref;
  std::size_t pos = 0;
  while (spec.cores[static_cast<std::size_t>(spec.flows[order[pos]].src)].island ==
         spec.cores[static_cast<std::size_t>(spec.flows[order[pos]].dst)].island) {
    ++pos;
  }
  ASSERT_TRUE(poisoned.records[pos].certified);
  poisoned.records[pos].certified = false;
  poisoned.cross_certified = false;
  scratch.delta.ref = &poisoned;
  const CandidateOutcome out = evaluate_candidate(ctx, cands[skip_member], &scratch,
                                                  nullptr, nullptr, &scratch.delta);
  EXPECT_TRUE(scratch.delta.pnorm_matched);
  EXPECT_FALSE(scratch.delta.member_skipped);
  EXPECT_EQ(scratch.delta.flows_rerouted, 1);
  EXPECT_GT(scratch.delta.flows_reused, 0);
  expect_same(out, skip_member);
}

/// Drives one width of synthesize()'s delta-group wiring at threads 1 with
/// prune on — each group's leader records, its members replay, and every
/// routed deadlock-free outcome joins the front the next candidate is
/// checked against — and checks every PRUNED recording leader against
/// plain evaluations: its own outcome against a bounded one, its published
/// design against an unbounded one and its records against an unbounded
/// recording run. Returns the number of pruned leaders.
int check_pruned_leaders(const Stage& st) {
  ParetoBound front;
  EvalScratch scratch;
  std::shared_ptr<DeltaReference> ref;
  int pruned = 0;
  for (std::size_t i = 0; i < st.cands.size(); ++i) {
    const bool lone = st.leader(i) && (i + 1 == st.cands.size() || st.leader(i + 1));
    CandidateOutcome out;
    if (st.leader(i)) {
      ref = lone ? nullptr : std::make_shared<DeltaReference>();
      out = evaluate_candidate(st.ctx, st.cands[i], &scratch, &front, ref.get());
    } else {
      scratch.delta.ref = ref->valid ? ref.get() : nullptr;
      out = evaluate_candidate(st.ctx, st.cands[i], &scratch, &front, nullptr,
                               ref->valid ? &scratch.delta : nullptr);
      scratch.delta.ref = nullptr;
    }
    if (st.leader(i) && !lone && out.status == EvalStatus::kPruned) {
      ++pruned;
      SCOPED_TRACE(testing::Message() << "leader " << i);
      const CandidateOutcome bounded =
          evaluate_candidate(st.ctx, st.cands[i], nullptr, &front);
      EXPECT_EQ(bounded.status, EvalStatus::kPruned);
      EXPECT_EQ(bits(out.pruned_power_lb_w), bits(bounded.pruned_power_lb_w));
      EXPECT_EQ(bits(out.pruned_latency_lb_cycles),
                bits(bounded.pruned_latency_lb_cycles));
      DeltaReference plain_rec;
      const CandidateOutcome full =
          evaluate_candidate(st.ctx, st.cands[i], nullptr, nullptr, &plain_rec);
      if (full.status == EvalStatus::kRouted) {
        EXPECT_TRUE(ref->valid);
        if (ref->outcome == nullptr) {
          ADD_FAILURE() << "nothing published";
        } else {
          EXPECT_EQ(ref->outcome->status, full.status);
          EXPECT_EQ(ref->outcome->signature, full.signature);
          EXPECT_EQ(bits(ref->outcome->point.metrics.noc_dynamic_w),
                    bits(full.point.metrics.noc_dynamic_w));
          EXPECT_EQ(bits(ref->outcome->point.metrics.avg_latency_cycles),
                    bits(full.point.metrics.avg_latency_cycles));
        }
      } else {
        EXPECT_EQ(ref->outcome, nullptr);
      }
      EXPECT_EQ(ref->p_norm, plain_rec.p_norm);
      EXPECT_EQ(ref->cross_certified, plain_rec.cross_certified);
      EXPECT_EQ(ref->replayable, plain_rec.replayable);
      EXPECT_EQ(ref->records.size(), plain_rec.records.size());
      for (std::size_t r = 0; r < ref->records.size() && r < plain_rec.records.size();
           ++r) {
        const DeltaRouteRec& a = ref->records[r];
        const DeltaRouteRec& b = plain_rec.records[r];
        EXPECT_EQ(a.hops, b.hops) << "record " << r;
        EXPECT_EQ(bits(a.dist), bits(b.dist)) << "record " << r;
        EXPECT_EQ(a.certified, b.certified) << "record " << r;
      }
    }
    if (out.status == EvalStatus::kRouted && out.deadlock_free) {
      front.insert(out.point.metrics.noc_dynamic_w, out.point.metrics.avg_latency_cycles);
    }
  }
  return pruned;
}

TEST(DeltaEval, PrunedRecordingLeaderRoutesOnce) {
  // A pruned leader reports its first dominated checkpoint, exactly as a
  // plain bounded evaluation does, but routes to the end so its members
  // replay against the full design it publishes.
  EXPECT_EQ(check_pruned_leaders(Stage(islanded(soc::make_d64_tile_soc(), 2))), 12);
  // A campaign-mix SoC (the 24-core synthetic family at seed 1).
  soc::SyntheticParams params;
  params.cores = 24;
  params.hubs = 3;
  params.seed = 1;
  const soc::Benchmark bm = soc::make_synthetic_soc(params);
  EXPECT_GT(check_pruned_leaders(Stage(islanded(bm, 3))), 0);
}

TEST(DeltaEval, SyntheticSocTalliesArePinned) {
  // The per-flow verdicts the leaders take must accept exactly what the
  // ring-dependent bound they replaced accepted: every member it skipped is
  // skipped, and every flow it replayed is replayed. Synthetic SoCs with
  // hubs 4, seed 7, 4 logical islands, partition seed 1, threads 1.
  struct Case {
    int cores, width, skipped;
    long long reused, rerouted;
  };
  for (const Case& c : {Case{64, 32, 1260, 187344, 612}, Case{64, 128, 1296, 191592, 0},
                        Case{128, 32, 5475, 1726650, 4500}}) {
    soc::SyntheticParams params;
    params.cores = c.cores;
    params.hubs = 4;
    params.seed = 7;
    const soc::SocSpec spec = islanded(soc::make_synthetic_soc(params), 4);
    SynthesisOptions opt;
    opt.threads = 1;
    opt.partition_seed = 1;
    opt.link_width_bits = c.width;
    const SynthesisStats s = synthesize(spec, opt).stats;
    SCOPED_TRACE(testing::Message() << "c" << c.cores << " w" << c.width);
    EXPECT_EQ(s.delta_members_skipped, c.skipped);
    EXPECT_EQ(s.delta_flows_reused, c.reused);
    EXPECT_EQ(s.delta_flows_rerouted, c.rerouted);
  }
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
