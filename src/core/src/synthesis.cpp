#include "vinoc/core/synthesis.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "vinoc/core/candidates.hpp"
#include "vinoc/core/pareto.hpp"
#include "vinoc/core/prune.hpp"
#include "vinoc/exec/ordered_drain.hpp"
#include "vinoc/exec/parallel_for.hpp"
#include "vinoc/obs/profile.hpp"
#include "vinoc/obs/registry.hpp"
#include "vinoc/obs/trace.hpp"

namespace vinoc::core {

const DesignPoint& SynthesisResult::best_power() const {
  if (points.empty()) throw std::logic_error("SynthesisResult: no design points");
  return *std::min_element(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return a.metrics.noc_dynamic_w < b.metrics.noc_dynamic_w;
                           });
}

const DesignPoint& SynthesisResult::best_latency() const {
  if (points.empty()) throw std::logic_error("SynthesisResult: no design points");
  return *std::min_element(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return a.metrics.avg_latency_cycles <
                                    b.metrics.avg_latency_cycles;
                           });
}

SynthesisResult synthesize(const soc::SocSpec& spec,
                           const SynthesisOptions& options) {
  exec::ThreadPool pool(options.threads);
  return synthesize(spec, options, pool);
}

SynthesisResult synthesize(const soc::SocSpec& spec, const SynthesisOptions& options,
                           exec::ThreadPool& pool) {
  EvalScratchPool scratch;
  return synthesize(spec, options, pool, scratch);
}

SynthesisResult synthesize(const soc::SocSpec& spec, const SynthesisOptions& options,
                           exec::ThreadPool& pool, EvalScratchPool& scratch_pool) {
  OBS_SPAN("synthesize");
  const auto t0 = std::chrono::steady_clock::now();
  {
    const auto problems = spec.validate();
    if (!problems.empty()) {
      throw std::invalid_argument("synthesize: invalid SocSpec: " + problems.front());
    }
  }
  if (options.alpha < 0.0 || options.alpha > 1.0 || options.alpha_power < 0.0 ||
      options.alpha_power > 1.0) {
    throw std::invalid_argument("synthesize: alpha weights must be in [0,1]");
  }
  if (options.cancel != nullptr) options.cancel->check("synthesize");

  SynthesisResult result;
  {
    OBS_SPAN("floorplan");
    const obs::PhaseScope phase(obs::Phase::kFloorplan);
    result.floorplan = floorplan::Floorplan::build(spec, options.floorplan);
  }
  result.island_params =
      derive_island_params(spec, options.tech, options.link_width_bits,
                           options.port_reserve);
  for (const IslandNocParams& p : result.island_params) {
    if (p.core_count > 0 && p.max_sw_size == 0) {
      throw InfeasibleWidthError(
          "synthesize: an NI link exceeds attainable bandwidth; widen links");
    }
  }
  result.intermediate_params =
      derive_intermediate_params(result.island_params, options.tech);

  // Stage 1 — enumeration (pure, sequential): the (outer x inner) sweep as
  // a flat candidate list, plus every min-cut partition it will need.
  const std::vector<CandidateConfig> candidates = [&] {
    OBS_SPAN("enumerate_candidates");
    return enumerate_candidates(spec, result.island_params, options);
  }();
  const PartitionTable partitions = [&] {
    // Phase attribution happens inside compute_partitions' per-item lambda
    // (worker-side CPU time); this span is the caller's wall-clock bracket.
    OBS_SPAN("compute_partitions");
    return compute_partitions(spec, options, result.island_params, candidates,
                              pool);
  }();
  const std::vector<double> traffic = compute_core_traffic(spec);

  // Candidate-invariant hot-path inputs, computed once per run: the
  // bandwidth-descending flow order every routing call follows, and the
  // spec-only floor of the pruning power bound.
  const std::vector<std::size_t> flow_order = bandwidth_descending_order(spec);
  const double ni_base =
      options.prune ? compute_ni_dynamic_base_w(spec, options.tech) : 0.0;

  // Stage 2 — evaluation (pure, thread-safe): candidates fan out over the
  // pool; each produces a CandidateOutcome value independently. Workers
  // publish finished points into the shared bound and prune against a
  // per-candidate snapshot of it.
  const EvalContext ctx{spec,
                        result.floorplan,
                        result.island_params,
                        result.intermediate_params,
                        partitions,
                        traffic,
                        options,
                        &flow_order,
                        ni_base};
  SharedParetoBound shared_bound;
  // With pruning on, workers whose snapshot is still empty evaluate against
  // this empty bound instead of a null one, so the checkpoint lower bounds
  // the merge re-checks below are recorded for EVERY candidate.
  const ParetoBound empty_bound;
  std::mutex progress_mutex;
  std::size_t progress_done = 0;

  // Delta-evaluation group map: consecutive candidates sharing
  // switches_per_island form a GROUP (the inner k_int sweep); the group's
  // first candidate (k_int == 0) is its reference. The reference evaluation
  // records its routed hop sequences; once published, later group members
  // replay the routes of flows the k_int diff cannot affect (see
  // route_all_flows). Publication is opportunistic — a member that runs
  // before its reference finishes simply evaluates solo — so results stay
  // bit-identical for every thread schedule, and threads == 1 always
  // replays (the reference precedes its members in enumeration order).
  const bool delta_on = options.delta_eval;
  std::vector<int> group_of(candidates.size(), 0);
  std::vector<char> group_leader(candidates.size(), 0);
  int n_groups = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i == 0 || candidates[i].switches_per_island !=
                      candidates[i - 1].switches_per_island) {
      group_leader[i] = 1;
      ++n_groups;
    }
    group_of[i] = n_groups - 1;
  }
  std::vector<int> group_size(static_cast<std::size_t>(n_groups), 0);
  for (std::size_t i = 0; i < candidates.size(); ++i) ++group_size[group_of[i]];
  std::vector<std::shared_ptr<const DeltaReference>> group_refs(
      static_cast<std::size_t>(n_groups));
  std::mutex delta_mutex;
  // Delta counters accumulate in per-worker obs registry shards and are
  // merged (deterministically — integer sums) into SynthesisStats after the
  // pool joins. The registry is the source of truth; the stats fields are a
  // derived view.
  obs::ShardedRegistry metrics;

  // STREAMING merge in enumeration order (single definition shared with
  // the width sweep — see OutcomeMerger in candidates.hpp): a finished
  // candidate whose predecessors have all merged is merged immediately and
  // released; only out-of-order completions are buffered, capping peak
  // memory at the scheduling skew instead of the whole candidate list. The
  // replay callback re-evaluates a pruned candidate against the merge front
  // for deterministic pruning.
  OutcomeMerger merger(
      options,
      [&](std::size_t i, const ParetoBound& bound) {
        return evaluate_candidate(ctx, candidates[i], &scratch_pool.local(),
                                  &bound);
      },
      result);
  exec::OrderedDrainQueue<CandidateOutcome> merge_queue(candidates.size());
  int buffered = 0;
  int peak_buffered = 0;  // both only touched under the queue's lock
  exec::parallel_for_each(pool, candidates.size(), [&](std::size_t i) {
    OBS_SPAN("candidate");
    // Cancellation poll, once per candidate: a cancelled run throws here on
    // every remaining index, so the fan-out drains fast and
    // parallel_for_each rethrows the lowest-index CancelledError.
    if (options.cancel != nullptr) options.cancel->check("synthesize");
    EvalScratch& scratch = scratch_pool.local();
    std::shared_ptr<const ParetoBound> snap;
    const ParetoBound* bound = nullptr;
    if (options.prune) {
      snap = shared_bound.snapshot();
      bound = snap != nullptr ? snap.get() : &empty_bound;
    }
    std::shared_ptr<DeltaReference> rec;             // group reference: record
    std::shared_ptr<const DeltaReference> ref;       // group member: replay
    DeltaRouteState* delta = nullptr;
    const int g = delta_on ? group_of[i] : 0;
    if (delta_on) {
      if (group_leader[i]) {
        if (group_size[g] > 1) rec = std::make_shared<DeltaReference>();
      } else {
        {
          const std::lock_guard<std::mutex> lock(delta_mutex);
          ref = group_refs[g];
        }
        if (ref != nullptr) {
          scratch.delta.ref = ref.get();
          delta = &scratch.delta;
        }
      }
    }
    CandidateOutcome out = evaluate_candidate(ctx, candidates[i], &scratch, bound,
                                              rec.get(), delta);
    if (rec != nullptr && rec->valid) {
      const std::lock_guard<std::mutex> lock(delta_mutex);
      group_refs[g] = std::move(rec);
    }
    if (delta != nullptr) {
      scratch.delta.ref = nullptr;  // `ref` dies with this iteration
      if (delta->pnorm_matched) {
        obs::Registry& shard = metrics.local();
        shard.add("delta_candidates", 1);
        shard.add("delta_flows_reused", delta->flows_reused);
        shard.add("delta_flows_certified", delta->flows_certified);
        shard.add("delta_flows_rerouted", delta->flows_rerouted);
        shard.add("delta_cert_rejects", delta->cert_rejects);
        shard.add("delta_members_skipped", delta->member_skipped ? 1 : 0);
      }
    }
    if (options.prune && out.status == EvalStatus::kRouted && out.deadlock_free) {
      shared_bound.publish(out.point.metrics.noc_dynamic_w,
                           out.point.metrics.avg_latency_cycles);
    }
    merge_queue.deposit(
        i, std::move(out),
        [&](CandidateOutcome&& ready_out) { merger.add(std::move(ready_out)); },
        [&](int delta) {
          buffered += delta;
          peak_buffered = std::max(peak_buffered, buffered);
        });
    if (options.on_progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      ++progress_done;
      options.on_progress(
          {progress_done, candidates.size(), options.link_width_bits});
    }
  });
  merger.finish();
  result.stats.peak_buffered_outcomes = peak_buffered;
  const obs::Registry merged = metrics.merged();
  result.stats.delta_candidates = static_cast<int>(merged.value("delta_candidates"));
  result.stats.delta_flows_reused = merged.value("delta_flows_reused");
  result.stats.delta_flows_certified = merged.value("delta_flows_certified");
  result.stats.delta_flows_rerouted = merged.value("delta_flows_rerouted");
  result.stats.delta_cert_rejects =
      static_cast<int>(merged.value("delta_cert_rejects"));
  result.stats.delta_members_skipped =
      static_cast<int>(merged.value("delta_members_skipped"));

  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace vinoc::core
