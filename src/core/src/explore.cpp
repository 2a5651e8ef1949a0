#include "vinoc/core/explore.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "eval_internal.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/pareto.hpp"
#include "vinoc/core/prune.hpp"
#include "vinoc/core/width_eval.hpp"
#include "vinoc/exec/ordered_drain.hpp"
#include "vinoc/exec/parallel_for.hpp"
#include "vinoc/obs/profile.hpp"
#include "vinoc/obs/registry.hpp"
#include "vinoc/obs/trace.hpp"

namespace vinoc::core {

namespace {

/// One structural class of the sweep: widths whose derived island params
/// share max_sw_size / min_switches per island (frequencies may differ —
/// the lockstep verifies those per decision). All of them enumerate the
/// same candidates and read the same partition table.
struct WidthClass {
  std::vector<std::size_t> width_indices;  ///< into the sweep's width list
  std::vector<CandidateConfig> candidates;
  PartitionTable partitions;
  MultiWidthContext mctx;  ///< slices parallel to width_indices
  /// Single-width contexts (one per slice) for the solo schedule once the
  /// class's lockstep has been voted off (see below).
  std::vector<MultiWidthContext> solo_ctx;
};

}  // namespace

std::vector<WidthSweepEntry> synthesize_width_set(
    const soc::SocSpec& spec, const std::vector<int>& widths,
    const SynthesisOptions& base_options, exec::ThreadPool& pool,
    EvalScratchPool& scratch, WidthSetStats* stats) {
  OBS_SPAN("synthesize_width_set");
  const auto t0 = std::chrono::steady_clock::now();
  {
    const auto problems = spec.validate();
    if (!problems.empty()) {
      throw std::invalid_argument("synthesize: invalid SocSpec: " + problems.front());
    }
  }
  if (base_options.alpha < 0.0 || base_options.alpha > 1.0 ||
      base_options.alpha_power < 0.0 || base_options.alpha_power > 1.0) {
    throw std::invalid_argument("synthesize: alpha weights must be in [0,1]");
  }
  if (base_options.cancel != nullptr) {
    base_options.cancel->check("synthesize_width_set");
  }

  std::vector<WidthSweepEntry> entries(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    entries[i].width_bits = widths[i];
  }

  // Per-width derived parameters; group the feasible widths into structural
  // classes (an empty class key marks an infeasible width — an NI link
  // exceeds attainable bandwidth — recorded exactly like the
  // InfeasibleWidthError path of synthesize()).
  std::vector<WidthSlice> slices(widths.size());
  std::vector<WidthClass> classes;
  std::map<std::vector<int>, std::size_t> class_of_key;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    WidthSlice& s = slices[i];
    s.options = base_options;
    s.options.link_width_bits = widths[i];
    s.options.on_progress = nullptr;  // the sweep reports globally
    s.island_params = derive_island_params(spec, base_options.tech, widths[i],
                                           base_options.port_reserve);
    s.intermediate_params =
        derive_intermediate_params(s.island_params, base_options.tech);
    const std::vector<int> key = width_class_key(s.island_params);
    if (key.empty()) continue;  // infeasible width
    entries[i].feasible = true;
    const auto [it, inserted] = class_of_key.emplace(key, classes.size());
    if (inserted) classes.emplace_back();
    classes[it->second].width_indices.push_back(i);
  }

  // Width-invariant inputs shared by the WHOLE set.
  const floorplan::Floorplan plan = [&] {
    OBS_SPAN("floorplan");
    const obs::PhaseScope obs_phase(obs::Phase::kFloorplan);
    return floorplan::Floorplan::build(spec, base_options.floorplan);
  }();
  const std::vector<double> traffic = compute_core_traffic(spec);
  const std::vector<std::size_t> flow_order = bandwidth_descending_order(spec);
  const double ni_base = base_options.prune
                             ? compute_ni_dynamic_base_w(spec, base_options.tech)
                             : 0.0;

  // Candidate enumeration per class, then ONE min-cut partition per
  // distinct (island, switch count, max block size) across ALL classes —
  // the cross-width partition cache: two widths whose island shares a max
  // switch size reuse the same partition even when their frequencies (and
  // hence classes) differ.
  using CacheKey = std::tuple<soc::IslandId, int, int>;
  std::map<CacheKey, IslandPartition> partition_cache;
  int class_slots_total = 0;
  for (WidthClass& wc : classes) {
    const WidthSlice& first = slices[wc.width_indices.front()];
    wc.candidates = enumerate_candidates(spec, first.island_params, first.options);
    std::vector<PartitionKey> keys;
    for (const CandidateConfig& cand : wc.candidates) {
      for (std::size_t isl = 0; isl < cand.switches_per_island.size(); ++isl) {
        keys.emplace_back(static_cast<soc::IslandId>(isl),
                          cand.switches_per_island[isl]);
      }
    }
    wc.partitions = PartitionTable(std::move(keys));
    class_slots_total += static_cast<int>(wc.partitions.size());
    for (std::size_t i = 0; i < wc.partitions.size(); ++i) {
      const PartitionKey& key = wc.partitions.key(i);
      const int max_sw =
          first.island_params[static_cast<std::size_t>(key.first)].max_sw_size;
      partition_cache.emplace(CacheKey{key.first, key.second, max_sw},
                              IslandPartition{});
    }
  }
  {
    std::vector<std::map<CacheKey, IslandPartition>::iterator> cache_slots;
    cache_slots.reserve(partition_cache.size());
    for (auto it = partition_cache.begin(); it != partition_cache.end(); ++it) {
      cache_slots.push_back(it);
    }
    const VcgScaling scaling = vcg_scaling(spec);
    exec::parallel_for_each(pool, cache_slots.size(), [&](std::size_t i) {
      OBS_SPAN("partition_mincut");
      if (base_options.cancel != nullptr) {
        base_options.cancel->check("synthesize_width_set");
      }
      const obs::PhaseScope obs_phase(obs::Phase::kPartition);
      const auto& [island, k, max_sw] = cache_slots[i]->first;
      cache_slots[i]->second = detail::partition_island_mincut(
          spec, base_options, scaling, island, k, max_sw);
    });
  }
  for (WidthClass& wc : classes) {
    const WidthSlice& first = slices[wc.width_indices.front()];
    for (std::size_t i = 0; i < wc.partitions.size(); ++i) {
      const PartitionKey& key = wc.partitions.key(i);
      const int max_sw =
          first.island_params[static_cast<std::size_t>(key.first)].max_sw_size;
      wc.partitions.slot(i) =
          partition_cache.at(CacheKey{key.first, key.second, max_sw});
    }
    wc.mctx.spec = &spec;
    wc.mctx.floorplan = &plan;
    wc.mctx.partitions = &wc.partitions;
    wc.mctx.core_traffic = &traffic;
    wc.mctx.flow_order = &flow_order;
    wc.mctx.ni_dynamic_base_w = ni_base;
    for (const std::size_t wi : wc.width_indices) {
      wc.mctx.slices.push_back(slices[wi]);
    }
    for (const std::size_t wi : wc.width_indices) {
      MultiWidthContext solo;
      solo.spec = wc.mctx.spec;
      solo.floorplan = wc.mctx.floorplan;
      solo.partitions = wc.mctx.partitions;
      solo.core_traffic = wc.mctx.core_traffic;
      solo.flow_order = wc.mctx.flow_order;
      solo.ni_dynamic_base_w = wc.mctx.ni_dynamic_base_w;
      solo.slices.push_back(slices[wi]);
      wc.solo_ctx.push_back(std::move(solo));
    }
  }

  // Candidate-level delta evaluation on the sweep's SOLO schedule (one-width
  // classes, and classes voted out of lockstep below): same group map as
  // synthesize() — consecutive candidates sharing switches_per_island — with
  // one reference slot per (class, width) since the recorded hop sequences
  // are width-dependent (frequencies and capacities differ). Publication is
  // opportunistic; members without a published reference evaluate solo.
  // Lockstep evaluations don't participate: they already share whole routed
  // structures across widths.
  struct DeltaPlan {
    std::vector<int> group_of;   ///< per candidate of the class
    std::vector<char> leader;    ///< per candidate: first of its group
    std::vector<int> group_size; ///< per group
    /// refs[j * group_size.size() + g] for width slot j, group g.
    std::vector<std::shared_ptr<const DeltaReference>> refs;
    std::mutex mutex;
  };
  std::vector<std::unique_ptr<DeltaPlan>> delta_plans(classes.size());
  if (base_options.delta_eval) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const WidthClass& wc = classes[c];
      auto dp = std::make_unique<DeltaPlan>();
      dp->group_of.resize(wc.candidates.size(), 0);
      dp->leader.resize(wc.candidates.size(), 0);
      int n_groups = 0;
      for (std::size_t k = 0; k < wc.candidates.size(); ++k) {
        if (k == 0 || wc.candidates[k].switches_per_island !=
                          wc.candidates[k - 1].switches_per_island) {
          dp->leader[k] = 1;
          ++n_groups;
        }
        dp->group_of[k] = n_groups - 1;
      }
      dp->group_size.resize(static_cast<std::size_t>(n_groups), 0);
      for (const int g : dp->group_of) ++dp->group_size[g];
      dp->refs.resize(wc.width_indices.size() *
                      static_cast<std::size_t>(n_groups));
      delta_plans[c] = std::move(dp);
    }
  }

  // Flatten (class, candidate) into one work list so every class's
  // candidates fan out over the same pool concurrently.
  struct Unit {
    std::size_t class_id;
    std::size_t cand_id;
  };
  std::vector<Unit> units;
  std::size_t progress_total = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (std::size_t k = 0; k < classes[c].candidates.size(); ++k) {
      units.push_back({c, k});
    }
    progress_total +=
        classes[c].candidates.size() * classes[c].width_indices.size();
  }

  // Per-width shared Pareto bounds (prune snapshots for solo fallbacks and
  // the every-width-dominated early abandon; the merge below restores exact
  // sequential pruning semantics regardless of snapshot timing).
  std::vector<SharedParetoBound> bounds(widths.size());

  // Per-width result shells plus STREAMING per-(class, width) merges: a
  // candidate whose enumeration-order predecessors have all merged is
  // merged and released as soon as it finishes, so the sweep buffers only
  // the out-of-order window instead of every width's outcome list
  // (ROADMAP (a); the high-water mark is reported in
  // SynthesisStats::peak_buffered_outcomes).
  for (std::size_t i = 0; i < widths.size(); ++i) {
    if (!entries[i].feasible) continue;
    SynthesisResult& result = entries[i].result;
    result.floorplan = plan;
    result.island_params = slices[i].island_params;
    result.intermediate_params = slices[i].intermediate_params;
  }
  struct ClassMergeState {
    explicit ClassMergeState(std::size_t n_candidates) : queue(n_candidates) {}
    /// Per-candidate batches (one outcome per width of the class), merged
    /// in enumeration order as predecessors finish.
    exec::OrderedDrainQueue<std::vector<CandidateOutcome>> queue;
    std::vector<EvalContext> replay_ctx;  ///< per width of the class
    std::vector<OutcomeMerger> mergers;   ///< parallel to replay_ctx
  };
  std::vector<std::unique_ptr<ClassMergeState>> merge_states;
  merge_states.reserve(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    WidthClass& wc = classes[c];
    auto ms = std::make_unique<ClassMergeState>(wc.candidates.size());
    ms->replay_ctx.reserve(wc.width_indices.size());
    ms->mergers.reserve(wc.width_indices.size());
    for (const std::size_t wi : wc.width_indices) {
      ms->replay_ctx.push_back(EvalContext{spec,
                                           plan,
                                           slices[wi].island_params,
                                           slices[wi].intermediate_params,
                                           wc.partitions,
                                           traffic,
                                           slices[wi].options,
                                           &flow_order,
                                           ni_base});
    }
    for (std::size_t j = 0; j < wc.width_indices.size(); ++j) {
      const EvalContext* rctx = &ms->replay_ctx[j];
      ms->mergers.emplace_back(
          slices[wc.width_indices[j]].options,
          [rctx, &wc, &scratch](std::size_t k, const ParetoBound& bound) {
            return evaluate_candidate(*rctx, wc.candidates[k], &scratch.local(),
                                      &bound);
          },
          entries[wc.width_indices[j]].result);
    }
    merge_states.push_back(std::move(ms));
  }

  // Sweep-global share counters accumulate in per-worker obs registry
  // shards and merge deterministically after the pool joins; WidthSetStats
  // is a derived view of the merged registry. The buffered-outcome
  // high-water mark is the one exception: it is a RUNNING global sum (no
  // per-shard decomposition exists), so it stays an atomic CAS-max and is
  // folded into the registry afterwards.
  obs::ShardedRegistry metrics;
  std::atomic<int> buffered_outcomes{0};
  std::atomic<int> peak_buffered{0};
  // Per-width share-class attribution for SynthesisStats (observability;
  // scheduling-dependent, see synthesis.hpp).
  std::vector<std::atomic<int>> width_shared(widths.size());
  std::vector<std::atomic<int>> width_certified(widths.size());
  std::vector<std::atomic<int>> width_cohort(widths.size());
  std::vector<std::atomic<int>> width_fallback(widths.size());
  std::vector<std::atomic<int>> delta_cands_w(widths.size());
  std::vector<std::atomic<long long>> delta_reused_w(widths.size());
  std::vector<std::atomic<long long>> delta_certified_w(widths.size());
  std::vector<std::atomic<long long>> delta_rerouted_w(widths.size());
  std::vector<std::atomic<int>> delta_rejects_w(widths.size());
  std::vector<std::atomic<int>> delta_skipped_w(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    width_shared[i].store(0);
    width_certified[i].store(0);
    width_cohort[i].store(0);
    width_fallback[i].store(0);
    delta_cands_w[i].store(0);
    delta_reused_w[i].store(0);
    delta_certified_w[i].store(0);
    delta_rerouted_w[i].store(0);
    delta_rejects_w[i].store(0);
    delta_skipped_w[i].store(0);
  }
  std::mutex progress_mutex;
  std::size_t progress_done = 0;
  const auto on_progress = base_options.on_progress;

  // Adaptive lockstep: both evaluation paths are bit-identical, so WHICH
  // one computes a candidate is a pure scheduling choice. The first few
  // candidates of a class probe the lockstep; when every lane diverges on
  // all of them (the widths' routing is systematically width-dependent —
  // different snapped frequencies shift every opening cost), the class
  // stops paying for lane verification and evaluates the remaining
  // candidates solo per width.
  constexpr std::size_t kLockstepProbes = 2;
  std::vector<std::atomic<int>> lockstep_vote(classes.size());
  for (auto& v : lockstep_vote) v.store(0);

  exec::parallel_for_each(pool, units.size(), [&](std::size_t u) {
    OBS_SPAN("sweep_unit");
    // Cancellation poll, once per (candidate, class) unit — the sweep's
    // equivalent of synthesize()'s per-candidate poll.
    if (base_options.cancel != nullptr) {
      base_options.cancel->check("synthesize_width_set");
    }
    const Unit unit = units[u];
    WidthClass& wc = classes[unit.class_id];
    EvalScratch& es = scratch.local();
    // Per-width front snapshots (kept alive for the whole evaluation).
    std::vector<std::shared_ptr<const ParetoBound>> snaps;
    std::vector<const ParetoBound*> fronts(wc.width_indices.size(), nullptr);
    if (base_options.prune) {
      snaps.resize(wc.width_indices.size());
      for (std::size_t j = 0; j < wc.width_indices.size(); ++j) {
        snaps[j] = bounds[wc.width_indices[j]].snapshot();
        fronts[j] = snaps[j].get();
      }
    }
    const bool probe = unit.cand_id < kLockstepProbes;
    const bool lockstep =
        wc.width_indices.size() > 1 &&
        (probe || lockstep_vote[unit.class_id].load(std::memory_order_relaxed) >= 0);
    WidthEvalCounters counters;
    std::vector<CandidateOutcome> outs;
    if (lockstep) {
      outs = evaluate_candidate_widths(wc.mctx, wc.candidates[unit.cand_id], &es,
                                       base_options.prune ? &fronts : nullptr,
                                       &counters);
    } else {
      // Lockstep disabled for this class: evaluate each width solo through
      // the same entry point. One geometry token spans all widths of the
      // candidate, so the hop/leakage matrices and class runs are still
      // built once (positions and admissibility are width-invariant).
      // Solo evaluations compose with the delta evaluator: per (class,
      // width), the group reference's hop record replays for adjacent group
      // members exactly as in synthesize().
      DeltaPlan* dp = delta_plans[unit.class_id].get();
      const int g = dp != nullptr ? dp->group_of[unit.cand_id] : 0;
      outs.resize(wc.mctx.slices.size());
      es.router.geometry_token = ++es.router.geometry_token_counter;
      for (std::size_t j = 0; j < wc.mctx.slices.size(); ++j) {
        std::shared_ptr<DeltaReference> rec;
        std::shared_ptr<const DeltaReference> ref;
        DeltaRouteState* delta = nullptr;
        const std::size_t slot =
            j * (dp != nullptr ? dp->group_size.size() : 0) +
            static_cast<std::size_t>(g);
        if (dp != nullptr) {
          if (dp->leader[unit.cand_id]) {
            if (dp->group_size[g] > 1) rec = std::make_shared<DeltaReference>();
          } else {
            {
              const std::lock_guard<std::mutex> lock(dp->mutex);
              ref = dp->refs[slot];
            }
            if (ref != nullptr) {
              es.delta.ref = ref.get();
              delta = &es.delta;
            }
          }
        }
        std::vector<const ParetoBound*> solo_front(1, fronts[j]);
        std::vector<CandidateOutcome> one = evaluate_candidate_widths(
            wc.solo_ctx[j], wc.candidates[unit.cand_id], &es,
            base_options.prune ? &solo_front : nullptr, &counters, rec.get(),
            delta);
        outs[j] = std::move(one.front());
        if (rec != nullptr && rec->valid) {
          const std::lock_guard<std::mutex> lock(dp->mutex);
          dp->refs[slot] = std::move(rec);
        }
        if (delta != nullptr) {
          es.delta.ref = nullptr;  // `ref` dies with this width slot
          if (delta->pnorm_matched) {
            const std::size_t wi = wc.width_indices[j];
            delta_cands_w[wi].fetch_add(1, std::memory_order_relaxed);
            delta_reused_w[wi].fetch_add(delta->flows_reused,
                                         std::memory_order_relaxed);
            delta_certified_w[wi].fetch_add(delta->flows_certified,
                                            std::memory_order_relaxed);
            delta_rerouted_w[wi].fetch_add(delta->flows_rerouted,
                                           std::memory_order_relaxed);
            delta_rejects_w[wi].fetch_add(delta->cert_rejects,
                                          std::memory_order_relaxed);
            delta_skipped_w[wi].fetch_add(delta->member_skipped ? 1 : 0,
                                          std::memory_order_relaxed);
          }
        }
      }
      es.router.geometry_token = 0;
    }
    if (probe && wc.width_indices.size() > 1) {
      // Vote: a probe candidate where nothing was shared votes the class
      // out of lockstep; one where sharing worked locks it in.
      lockstep_vote[unit.class_id].fetch_add(counters.shared > 0 ? 1000 : -1,
                                             std::memory_order_relaxed);
    }
    {
      obs::Registry& shard = metrics.local();
      shard.add("shared_evals", counters.shared);
      shard.add("fallback_evals", counters.fallback);
      shard.add("certified_evals", counters.certified);
      shard.add("certificate_accepts", counters.certificate_accepts);
      shard.add("cohort_evals", counters.cohort_lanes);
      shard.add("cohort_groups", counters.cohort_groups);
    }
    if (lockstep) {
      for (std::size_t j = 0; j < counters.slice_class.size(); ++j) {
        const std::size_t wi = wc.width_indices[j];
        switch (counters.slice_class[j]) {
          case ShareClass::kCertified:
            ++width_certified[wi];
            [[fallthrough]];
          case ShareClass::kShared:
            ++width_shared[wi];
            break;
          case ShareClass::kCohort:
            ++width_cohort[wi];
            break;
          case ShareClass::kSolo:
            ++width_fallback[wi];
            break;
          case ShareClass::kLeader:
            break;
        }
      }
    }
    if (base_options.prune) {
      for (std::size_t j = 0; j < outs.size(); ++j) {
        const CandidateOutcome& o = outs[j];
        if (o.status == EvalStatus::kRouted && o.deadlock_free) {
          bounds[wc.width_indices[j]].publish(o.point.metrics.noc_dynamic_w,
                                              o.point.metrics.avg_latency_cycles);
        }
      }
    }
    {
      // Streaming merge: deposit this candidate's per-width batch, drain
      // every candidate whose predecessors are all merged (see
      // exec::OrderedDrainQueue — merges run on whichever worker advanced
      // the cursor, in strict enumeration order, so results are
      // bit-identical to the end-of-sweep merge). The buffered-outcome
      // accounting is sweep-global across classes.
      ClassMergeState& ms = *merge_states[unit.class_id];
      const int batch = static_cast<int>(outs.size());
      ms.queue.deposit(
          unit.cand_id, std::move(outs),
          [&ms](std::vector<CandidateOutcome>&& ready_outs) {
            for (std::size_t j = 0; j < ready_outs.size(); ++j) {
              ms.mergers[j].add(std::move(ready_outs[j]));
            }
          },
          [&, batch](int delta) {
            const int now =
                buffered_outcomes.fetch_add(delta * batch) + delta * batch;
            int peak = peak_buffered.load();
            while (now > peak &&
                   !peak_buffered.compare_exchange_weak(peak, now)) {
            }
          });
    }
    if (on_progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      for (std::size_t j = 0; j < wc.width_indices.size(); ++j) {
        ++progress_done;
        on_progress({progress_done, progress_total,
                     widths[wc.width_indices[j]]});
      }
    }
  });

  // Finish the per-width merges (Pareto fronts) and stamp the stats.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (OutcomeMerger& merger : merge_states[c]->mergers) merger.finish();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (std::size_t i = 0; i < widths.size(); ++i) {
    if (!entries[i].feasible) continue;
    SynthesisStats& st = entries[i].result.stats;
    st.elapsed_seconds = elapsed;
    st.width_shared = width_shared[i].load();
    st.width_certified = width_certified[i].load();
    st.width_cohort = width_cohort[i].load();
    st.width_fallback = width_fallback[i].load();
    st.delta_candidates = delta_cands_w[i].load();
    st.delta_flows_reused = delta_reused_w[i].load();
    st.delta_flows_certified = delta_certified_w[i].load();
    st.delta_flows_rerouted = delta_rerouted_w[i].load();
    st.delta_cert_rejects = delta_rejects_w[i].load();
    st.delta_members_skipped = delta_skipped_w[i].load();
    st.peak_buffered_outcomes = peak_buffered.load();
  }

  if (stats != nullptr) {
    const obs::Registry merged = metrics.merged();
    stats->width_classes = static_cast<int>(classes.size());
    stats->shared_evals = static_cast<int>(merged.value("shared_evals"));
    stats->fallback_evals = static_cast<int>(merged.value("fallback_evals"));
    stats->certified_evals = static_cast<int>(merged.value("certified_evals"));
    stats->certificate_accepts =
        static_cast<int>(merged.value("certificate_accepts"));
    stats->cohort_evals = static_cast<int>(merged.value("cohort_evals"));
    stats->cohort_groups = static_cast<int>(merged.value("cohort_groups"));
    stats->partition_cache_hits =
        class_slots_total - static_cast<int>(partition_cache.size());
    stats->peak_buffered_outcomes = peak_buffered.load();
    for (std::size_t i = 0; i < widths.size(); ++i) {
      stats->delta_candidates += delta_cands_w[i].load();
      stats->delta_flows_reused += delta_reused_w[i].load();
      stats->delta_flows_certified += delta_certified_w[i].load();
      stats->delta_flows_rerouted += delta_rerouted_w[i].load();
      stats->delta_cert_rejects += delta_rejects_w[i].load();
      stats->delta_members_skipped += delta_skipped_w[i].load();
    }
  }
  return entries;
}

WidthSweepResult explore_link_widths(const soc::SocSpec& spec,
                                     const std::vector<int>& widths,
                                     const SynthesisOptions& base_options,
                                     WidthSetStats* stats) {
  if (widths.empty()) {
    throw std::invalid_argument("explore_link_widths: no widths given");
  }
  for (const int w : widths) {
    if (w <= 0) throw std::invalid_argument("explore_link_widths: width <= 0");
  }

  // One pool and one scratch-arena pool for the whole sweep: the
  // (candidate x width) work units fan out here and any nested fan-outs
  // share the SAME pool (see vinoc/exec/thread_pool.hpp), so total
  // parallelism stays bounded by base_options.threads.
  exec::ThreadPool pool(base_options.threads);
  EvalScratchPool scratch;

  WidthSweepResult out;
  out.entries =
      synthesize_width_set(spec, widths, base_options, pool, scratch, stats);

  // Merge: collect all points and keep the shared (power, latency) front.
  std::vector<GlobalPointRef> all;
  for (std::size_t e = 0; e < out.entries.size(); ++e) {
    if (!out.entries[e].feasible) continue;
    for (std::size_t p = 0; p < out.entries[e].result.points.size(); ++p) {
      all.push_back({e, p});
    }
  }
  out.pareto = pareto_front(std::move(all),
                            [&out](const GlobalPointRef& ref) -> const Metrics& {
                              return out.point(ref).metrics;
                            });
  return out;
}

obs::Registry WidthSetStats::to_registry() const {
  obs::Registry reg;
  reg.add("width_classes", width_classes);
  reg.add("shared_evals", shared_evals);
  reg.add("certified_evals", certified_evals);
  reg.add("certificate_accepts", certificate_accepts);
  reg.add("cohort_evals", cohort_evals);
  reg.add("cohort_groups", cohort_groups);
  reg.add("fallback_evals", fallback_evals);
  reg.record_max("peak_buffered_outcomes", peak_buffered_outcomes);
  reg.add("delta_candidates", delta_candidates);
  reg.add("delta_flows_reused", delta_flows_reused);
  reg.add("delta_flows_certified", delta_flows_certified);
  reg.add("delta_flows_rerouted", delta_flows_rerouted);
  reg.add("delta_cert_rejects", delta_cert_rejects);
  reg.add("delta_members_skipped", delta_members_skipped);
  reg.set_gauge("shared_rate", shared_rate());
  reg.set_gauge("delta_reuse_rate", delta_reuse_rate());
  return reg;
}

}  // namespace vinoc::core
