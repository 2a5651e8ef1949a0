#include "vinoc/core/explore.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "eval_internal.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/pareto.hpp"
#include "vinoc/core/prune.hpp"
#include "vinoc/exec/ordered_drain.hpp"
#include "vinoc/exec/parallel_for.hpp"
#include "vinoc/obs/profile.hpp"
#include "vinoc/obs/registry.hpp"
#include "vinoc/obs/trace.hpp"

namespace vinoc::core {

namespace {

/// One width's derived inputs.
struct WidthSlice {
  SynthesisOptions options;  ///< base options with link_width_bits set
  std::vector<IslandNocParams> island_params;
  IslandNocParams intermediate_params;
};

/// Structural profile of one width: widths with equal keys (max switch size
/// and minimum switch count per island; frequencies may differ) enumerate
/// the same candidates and read the same partition table. An infeasible
/// width gets an empty key and must not be grouped.
std::vector<int> width_class_key(
    const std::vector<IslandNocParams>& island_params) {
  std::vector<int> key;
  key.reserve(2 * island_params.size());
  for (const IslandNocParams& p : island_params) {
    if (p.core_count > 0 && p.max_sw_size == 0) return {};  // infeasible
    key.push_back(p.max_sw_size);
    key.push_back(p.min_switches);
  }
  return key;
}

/// One structural class of the sweep: widths with the same
/// width_class_key, which share one candidate list and partition table.
struct WidthClass {
  std::vector<std::size_t> width_indices;  ///< into the sweep's width list
  std::vector<CandidateConfig> candidates;
  PartitionTable partitions;
};

/// Candidate-level delta evaluation of one class: the same group map as
/// synthesize() — consecutive candidates sharing switches_per_island — with
/// one reference slot per (width, group), since the recorded hop sequences
/// are width-dependent (frequencies and capacities differ). Publication is
/// opportunistic; members without a published reference evaluate solo.
struct DeltaPlan {
  std::vector<int> group_of;    ///< per candidate of the class
  std::vector<char> leader;     ///< per candidate: first of its group
  std::vector<int> group_size;  ///< per group
  /// refs[j * group_size.size() + g] for width slot j, group g.
  std::vector<std::shared_ptr<const DeltaReference>> refs;
  std::mutex mutex;
};

/// Per-class evaluation contexts and STREAMING per-width merges: a
/// candidate whose enumeration-order predecessors have all merged is merged
/// and released as soon as it finishes, so the sweep buffers only the
/// out-of-order window instead of every width's outcome list.
struct ClassState {
  explicit ClassState(std::size_t n_candidates) : queue(n_candidates) {}
  /// Per-candidate batches (one outcome per width of the class), merged in
  /// enumeration order as predecessors finish.
  exec::OrderedDrainQueue<std::vector<CandidateOutcome>> queue;
  std::vector<EvalContext> ctx;        ///< per width of the class
  std::vector<OutcomeMerger> mergers;  ///< parallel to ctx
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
  }

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

  // Per-width shared Pareto bounds (prune snapshots; the merge below
  // restores exact sequential pruning semantics regardless of snapshot
  // timing). With pruning on, an empty snapshot becomes this empty bound,
  // so the checkpoint lower bounds are recorded for EVERY evaluation.
  std::vector<SharedParetoBound> bounds(widths.size());
  const ParetoBound empty_bound;

  for (std::size_t i = 0; i < widths.size(); ++i) {
    if (!entries[i].feasible) continue;
    SynthesisResult& result = entries[i].result;
    result.floorplan = plan;
    result.island_params = slices[i].island_params;
    result.intermediate_params = slices[i].intermediate_params;
  }
  std::vector<std::unique_ptr<ClassState>> class_states;
  class_states.reserve(classes.size());
  for (const WidthClass& wc : classes) {
    auto cs = std::make_unique<ClassState>(wc.candidates.size());
    cs->ctx.reserve(wc.width_indices.size());
    cs->mergers.reserve(wc.width_indices.size());
    for (const std::size_t wi : wc.width_indices) {
      cs->ctx.push_back(EvalContext{spec,
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
      const EvalContext* ctx = &cs->ctx[j];
      cs->mergers.emplace_back(
          slices[wc.width_indices[j]].options,
          [ctx, &wc, &scratch](std::size_t k, const ParetoBound& bound) {
            return evaluate_candidate(*ctx, wc.candidates[k], &scratch.local(),
                                      &bound);
          },
          entries[wc.width_indices[j]].result);
    }
    class_states.push_back(std::move(cs));
  }

  // Per-width delta counters accumulate in per-worker obs registry shards
  // and merge deterministically after the pool joins, as in synthesize().
  // The buffered-outcome high-water mark is a RUNNING global sum (no
  // per-shard decomposition exists), so it stays an atomic CAS-max.
  std::vector<obs::ShardedRegistry> delta_metrics(widths.size());
  std::atomic<int> buffered_outcomes{0};
  std::atomic<int> peak_buffered{0};
  std::mutex progress_mutex;
  std::size_t progress_done = 0;
  const auto on_progress = base_options.on_progress;

  exec::parallel_for_each(pool, units.size(), [&](std::size_t u) {
    OBS_SPAN("sweep_unit");
    // Cancellation poll, once per (candidate, class) unit — the sweep's
    // equivalent of synthesize()'s per-candidate poll.
    if (base_options.cancel != nullptr) {
      base_options.cancel->check("synthesize_width_set");
    }
    const Unit unit = units[u];
    const WidthClass& wc = classes[unit.class_id];
    ClassState& cs = *class_states[unit.class_id];
    const CandidateConfig& cand = wc.candidates[unit.cand_id];
    EvalScratch& es = scratch.local();
    DeltaPlan* dp = delta_plans[unit.class_id].get();
    const int g = dp != nullptr ? dp->group_of[unit.cand_id] : 0;
    std::vector<CandidateOutcome> outs(wc.width_indices.size());
    // Each width evaluates exactly like the synthesize() worker body. One
    // geometry token spans all widths of the candidate: switch positions
    // and admissibility are width-invariant, so the hop/leakage matrices
    // and class runs are built once.
    es.router.geometry_token = ++es.router.geometry_token_counter;
    for (std::size_t j = 0; j < outs.size(); ++j) {
      const std::size_t wi = wc.width_indices[j];
      std::shared_ptr<const ParetoBound> snap;
      const ParetoBound* bound = nullptr;
      if (base_options.prune) {
        snap = bounds[wi].snapshot();
        bound = snap != nullptr ? snap.get() : &empty_bound;
      }
      // Delta evaluation: per (class, width), the group reference's hop
      // record replays for adjacent group members exactly as in
      // synthesize().
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
      outs[j] = evaluate_candidate(cs.ctx[j], cand, &es, bound, rec.get(), delta);
      if (rec != nullptr && rec->valid) {
        const std::lock_guard<std::mutex> lock(dp->mutex);
        dp->refs[slot] = std::move(rec);
      }
      if (delta != nullptr) {
        es.delta.ref = nullptr;  // `ref` dies with this width slot
        if (delta->pnorm_matched) {
          obs::Registry& shard = delta_metrics[wi].local();
          shard.add("delta_candidates", 1);
          shard.add("delta_flows_reused", delta->flows_reused);
          shard.add("delta_flows_certified", delta->flows_certified);
          shard.add("delta_flows_rerouted", delta->flows_rerouted);
          shard.add("delta_cert_rejects", delta->cert_rejects);
          shard.add("delta_members_skipped", delta->member_skipped ? 1 : 0);
        }
      }
      const CandidateOutcome& o = outs[j];
      if (base_options.prune && o.status == EvalStatus::kRouted &&
          o.deadlock_free) {
        bounds[wi].publish(o.point.metrics.noc_dynamic_w,
                           o.point.metrics.avg_latency_cycles);
      }
    }
    es.router.geometry_token = 0;
    {
      // Streaming merge: deposit this candidate's per-width batch, drain
      // every candidate whose predecessors are all merged (see
      // exec::OrderedDrainQueue — merges run on whichever worker advanced
      // the cursor, in strict enumeration order, so results are
      // bit-identical to the end-of-sweep merge). The buffered-outcome
      // accounting is sweep-global across classes.
      const int batch = static_cast<int>(outs.size());
      cs.queue.deposit(
          unit.cand_id, std::move(outs),
          [&cs](std::vector<CandidateOutcome>&& ready_outs) {
            for (std::size_t j = 0; j < ready_outs.size(); ++j) {
              cs.mergers[j].add(std::move(ready_outs[j]));
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
      for (const std::size_t wi : wc.width_indices) {
        ++progress_done;
        on_progress({progress_done, progress_total, widths[wi]});
      }
    }
  });

  // Finish the per-width merges (Pareto fronts) and stamp the stats.
  for (const std::unique_ptr<ClassState>& cs : class_states) {
    for (OutcomeMerger& merger : cs->mergers) merger.finish();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (stats != nullptr) {
    stats->width_classes = static_cast<int>(classes.size());
    stats->partition_cache_hits =
        class_slots_total - static_cast<int>(partition_cache.size());
    stats->peak_buffered_outcomes = peak_buffered.load();
  }
  for (std::size_t i = 0; i < widths.size(); ++i) {
    if (!entries[i].feasible) continue;
    SynthesisStats& st = entries[i].result.stats;
    const obs::Registry merged = delta_metrics[i].merged();
    st.elapsed_seconds = elapsed;
    st.delta_candidates = static_cast<int>(merged.value("delta_candidates"));
    st.delta_flows_reused = merged.value("delta_flows_reused");
    st.delta_flows_certified = merged.value("delta_flows_certified");
    st.delta_flows_rerouted = merged.value("delta_flows_rerouted");
    st.delta_cert_rejects = static_cast<int>(merged.value("delta_cert_rejects"));
    st.delta_members_skipped =
        static_cast<int>(merged.value("delta_members_skipped"));
    st.peak_buffered_outcomes = peak_buffered.load();
    if (stats != nullptr) {
      stats->delta_candidates += st.delta_candidates;
      stats->delta_flows_reused += st.delta_flows_reused;
      stats->delta_flows_certified += st.delta_flows_certified;
      stats->delta_flows_rerouted += st.delta_flows_rerouted;
      stats->delta_cert_rejects += st.delta_cert_rejects;
      stats->delta_members_skipped += st.delta_members_skipped;
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
  reg.add("partition_cache_hits", partition_cache_hits);
  reg.record_max("peak_buffered_outcomes", peak_buffered_outcomes);
  reg.add("delta_candidates", delta_candidates);
  reg.add("delta_flows_reused", delta_flows_reused);
  reg.add("delta_flows_certified", delta_flows_certified);
  reg.add("delta_flows_rerouted", delta_flows_rerouted);
  reg.add("delta_cert_rejects", delta_cert_rejects);
  reg.add("delta_members_skipped", delta_members_skipped);
  reg.set_gauge("delta_reuse_rate", delta_reuse_rate());
  return reg;
}

}  // namespace vinoc::core
