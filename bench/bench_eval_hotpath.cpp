// Candidate-evaluation hot-path throughput: candidates/second through the
// staged engine (enumerate -> partition -> evaluate) on the seed benchmark
// sweep, in three modes:
//
//   cold     — call-local allocations, no pruning (the call pattern of the
//              pre-arena evaluation path);
//   scratch  — per-worker EvalScratch arenas (reset, not reallocated);
//   pruned   — arenas + Pareto-bound pruning against the running front
//              (sequential semantics: the bound grows with saved points in
//              enumeration order, exactly like synthesize()).
//
// It also times full synthesize() calls (prune on, the production path) for
// the end-to-end candidates/s number the CI perf gate tracks.
//
// One JSON line per measurement between the BEGIN/END JSONL markers; the
// perf-smoke job feeds them to tools/bench_check against bench/baseline.json.
// `--quick` shrinks the case list and skips the google-benchmark tail.
#include "bench_util.hpp"

#include <chrono>
#include <cstdlib>

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/prune.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/obs_writers.hpp"
#include "vinoc/obs/profile.hpp"
#include "vinoc/obs/trace.hpp"

namespace {

using namespace vinoc;

struct Case {
  std::string name;
  soc::SocSpec spec;
};

std::vector<Case> sweep_cases(bool quick) {
  std::vector<Case> cases;
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  cases.push_back({"d26/l1", soc::with_logical_islands(d26.soc, 1, d26.use_cases)});
  cases.push_back({"d26/l4", soc::with_logical_islands(d26.soc, 4, d26.use_cases)});
  cases.push_back({"d26/l7", soc::with_logical_islands(d26.soc, 7, d26.use_cases)});
  if (!quick) {
    const soc::Benchmark d36 = soc::make_d36_settop_soc();
    cases.push_back({"d36/l5", soc::with_logical_islands(d36.soc, 5, d36.use_cases)});
    const soc::Benchmark d24 = soc::make_d24_imaging_soc();
    cases.push_back({"d24/l5", soc::with_logical_islands(d24.soc, 5, d24.use_cases)});
  }
  return cases;
}

enum class Mode { kCold, kScratch, kPruned };

/// Everything evaluate_candidate() reads, built ONCE per case (synthesize()
/// amortises this setup over the whole sweep; re-timing it per repetition
/// would dilute the per-candidate cost this bench isolates).
struct SweepSetup {
  explicit SweepSetup(soc::SocSpec s) : spec(std::move(s)) {
    exec::ThreadPool pool(1);
    island_params = core::derive_island_params(
        spec, options.tech, options.link_width_bits, options.port_reserve);
    candidates = core::enumerate_candidates(spec, island_params, options);
    partitions =
        core::compute_partitions(spec, options, island_params, candidates, pool);
    plan = floorplan::Floorplan::build(spec, options.floorplan);
    intermediate = core::derive_intermediate_params(island_params, options.tech);
    traffic = core::compute_core_traffic(spec);
    flow_order = core::bandwidth_descending_order(spec);
    ni_base = core::compute_ni_dynamic_base_w(spec, options.tech);
  }

  soc::SocSpec spec;
  core::SynthesisOptions options;
  std::vector<core::IslandNocParams> island_params;
  std::vector<core::CandidateConfig> candidates;
  core::PartitionTable partitions;
  floorplan::Floorplan plan;
  core::IslandNocParams intermediate;
  std::vector<double> traffic;
  std::vector<std::size_t> flow_order;
  double ni_base = 0.0;
};

/// Evaluates the case's full candidate list once, sequentially. Returns the
/// number of candidates evaluated; `scratch`/`bound` wiring depends on mode.
int run_sweep(const SweepSetup& s, Mode mode, core::EvalScratchPool& pool_scratch) {
  const core::EvalContext ctx{s.spec,       s.plan,    s.island_params,
                              s.intermediate, s.partitions, s.traffic, s.options,
                              mode == Mode::kCold ? nullptr : &s.flow_order,
                              s.ni_base};
  core::ParetoBound front;
  for (const auto& cand : s.candidates) {
    core::EvalScratch* scratch =
        mode == Mode::kCold ? nullptr : &pool_scratch.local();
    const core::ParetoBound* bound = mode == Mode::kPruned ? &front : nullptr;
    const core::CandidateOutcome out =
        core::evaluate_candidate(ctx, cand, scratch, bound);
    if (mode == Mode::kPruned && out.status == core::EvalStatus::kRouted &&
        out.deadlock_free) {
      front.insert(out.point.metrics.noc_dynamic_w,
                   out.point.metrics.avg_latency_cycles);
    }
    benchmark::DoNotOptimize(out.status);
  }
  return static_cast<int>(s.candidates.size());
}

void print_table(bool quick) {
  bench::print_header(
      "Evaluation hot path: candidates/s (arena reuse + Pareto-bound pruning)",
      "beyond the paper (engine optimisation; sweep of Algorithm 1 evaluations)");
  std::vector<SweepSetup> cases;
  for (Case& c : sweep_cases(quick)) cases.emplace_back(std::move(c.spec));
  core::EvalScratchPool scratch;
  // Statistical measurement (bench/fat_runner.hpp): env-var-canonical
  // warmup/rep config, batch calibration, median + MAD with outlier
  // rejection. Every gated value below is the median over the kept reps.
  bench::FatRunner runner(bench::FatConfig::from_env_or_die());
  bench::RecordProvenance prov(runner.config());

  int n_cands = 0;
  for (const SweepSetup& c : cases) {
    n_cands += static_cast<int>(c.candidates.size());
  }

  auto time_mode = [&](Mode mode, const char* name) {
    const bench::Measurement m = runner.run(name, [&] {
      for (const SweepSetup& c : cases) {
        benchmark::DoNotOptimize(run_sweep(c, mode, scratch));
      }
    });
    prov.add(m);
    return m;
  };
  const bench::Measurement cold_m = time_mode(Mode::kCold, "eval_cold");
  const bench::Measurement scr_m = time_mode(Mode::kScratch, "eval_scratch");
  const bench::Measurement pr_m = time_mode(Mode::kPruned, "eval_pruned");
  const bench::RobustStats cold_rate = bench::rate_from_time(cold_m.stats, n_cands);
  const bench::RobustStats scr_rate = bench::rate_from_time(scr_m.stats, n_cands);
  const bench::RobustStats pr_rate = bench::rate_from_time(pr_m.stats, n_cands);

  std::printf("%-18s %-12s %-14s %-10s %-6s %-24s\n", "mode", "candidates",
              "cands/s (med)", "speedup", "reps", "per-rep s (min/med/max)");
  auto row = [&](const char* name, int cands, const bench::RobustStats& rate,
                 const bench::Measurement& m) {
    std::printf("%-18s %-12d %-14.0f %-10.2f %-6d %s\n", name, cands,
                rate.median, rate.median / cold_rate.median, m.stats.n,
                bench::time_range(m.stats).c_str());
  };
  row("cold (legacy)", n_cands, cold_rate, cold_m);
  row("scratch", n_cands, scr_rate, scr_m);
  row("scratch+prune", n_cands, pr_rate, pr_m);

  // End-to-end synthesize() throughput (prune on — the production path),
  // A/B'd delta-off vs delta-on. Bit-identity is gated by an UNTIMED
  // verification pass before the timed reps (correctness guardrails stay
  // outside timed regions): a result_fingerprint mismatch between the two
  // means the delta evaluator's replay is NOT equivalent to from-scratch
  // evaluation, and the bench exits non-zero (the speedup number would be
  // meaningless).
  //
  // The A/B runs its own case list (low island counts, the list the delta
  // gates were first measured on): intra-island flows replay, cross-island
  // flows replay when the cross-island certificate proves the intermediate
  // VI cannot beat the recorded route, and members whose every flow
  // replays are skipped whole. The gated delta_reuse_rate tracks THIS
  // list; the table above keeps the historical per-candidate case list.
  std::vector<SweepSetup> synth_cases;
  {
    const soc::Benchmark d26 = soc::make_d26_media_soc();
    synth_cases.emplace_back(
        soc::with_logical_islands(d26.soc, 2, d26.use_cases));
    const soc::Benchmark d36 = soc::make_d36_settop_soc();
    synth_cases.emplace_back(
        soc::with_logical_islands(d36.soc, 2, d36.use_cases));
    if (!quick) {
      const soc::Benchmark d64 = soc::make_d64_tile_soc();
      synth_cases.emplace_back(
          soc::with_logical_islands(d64.soc, 3, d64.use_cases));
    }
  }
  int synth_cands = 0;
  long long delta_eligible = 0;
  long long delta_served = 0;
  auto synth_pass = [&](bool delta_on, std::vector<std::uint64_t>* fps) {
    synth_cands = 0;
    for (const SweepSetup& c : synth_cases) {
      core::SynthesisOptions opt;
      opt.delta_eval = delta_on;
      const core::SynthesisResult res = core::synthesize(c.spec, opt);
      synth_cands += res.stats.configs_explored;
      if (fps != nullptr) {
        fps->push_back(campaign::result_fingerprint(res));
        if (delta_on) {
          delta_served += res.stats.delta_flows_reused;
          delta_eligible +=
              res.stats.delta_flows_reused + res.stats.delta_flows_rerouted;
        }
      }
      benchmark::DoNotOptimize(res.points.size());
    }
  };
  // Untimed verification pass: the fingerprint guardrail and the
  // (deterministic) reuse counters, kept out of the timed regions.
  std::vector<std::uint64_t> fps_scratch;
  std::vector<std::uint64_t> fps_delta;
  synth_pass(/*delta_on=*/false, &fps_scratch);
  synth_pass(/*delta_on=*/true, &fps_delta);
  if (fps_scratch != fps_delta) {
    std::fprintf(stderr,
                 "bench_eval_hotpath: FINGERPRINT MISMATCH — delta evaluation "
                 "is not bit-identical to from-scratch evaluation\n");
    std::exit(1);
  }
  const bench::Measurement synth_m = runner.run(
      "synthesize", [&] { synth_pass(/*delta_on=*/false, nullptr); });
  const bench::Measurement delta_m = runner.run(
      "synthesize_delta", [&] { synth_pass(/*delta_on=*/true, nullptr); });
  prov.add(synth_m);
  prov.add(delta_m);
  const bench::RobustStats synth_rate =
      bench::rate_from_time(synth_m.stats, synth_cands);
  const bench::RobustStats delta_rate =
      bench::rate_from_time(delta_m.stats, synth_cands);
  const bench::RobustStats speedup_delta =
      bench::ratio_of(synth_m.stats, delta_m.stats);  // time ratio = speedup
  const double delta_reuse_rate =
      delta_eligible > 0
          ? static_cast<double>(delta_served) / static_cast<double>(delta_eligible)
          : 0.0;
  row("synthesize()", synth_cands, synth_rate, synth_m);
  row("synthesize()+delta", synth_cands, delta_rate, delta_m);
  std::printf("delta reuse rate: %.3f (%lld of %lld eligible flows replayed)\n",
              delta_reuse_rate, delta_served, delta_eligible);

  std::printf("\n--- BEGIN JSONL (eval_hotpath) ---\n");
  io::JsonlWriter w;
  w.field("bench", "eval_hotpath").field("quick", quick);
  bench::append_metric(w, "candidates_per_s", synth_rate);
  bench::append_metric(w, "cands_per_s_delta", delta_rate);
  bench::append_metric(
      w, "delta_reuse_rate",
      bench::exact_stat(delta_reuse_rate, synth_m.stats.n));
  bench::append_metric(w, "speedup_delta", speedup_delta);
  bench::append_metric(w, "eval_cold_per_s", cold_rate);
  bench::append_metric(w, "eval_scratch_per_s", scr_rate);
  bench::append_metric(w, "eval_pruned_per_s", pr_rate);
  bench::append_metric(w, "speedup_scratch",
                       bench::ratio_of(cold_m.stats, scr_m.stats));
  bench::append_metric(w, "speedup_total",
                       bench::ratio_of(cold_m.stats, pr_m.stats));
  prov.append(w);
  bench::append_env_provenance(w);
  std::printf("%s\n", w.line().c_str());
  std::printf("--- END JSONL ---\n\n");

  // Tracing/profiling A/B — deliberately OUTSIDE the BEGIN/END markers, so
  // the perf gate's baselines never include it (the gated timings above run
  // with observability off, keeping the disabled-path overhead inside
  // bench_check's tolerance). This block gates CORRECTNESS: armed spans and
  // phase attribution must not perturb results, so a fingerprint mismatch
  // between the traced and untraced runs exits non-zero. The armed overhead
  // and the per-phase attribution are reported for inspection.
  {
    auto fingerprints = [&] {
      std::vector<std::uint64_t> fps;
      for (const SweepSetup& c : synth_cases) {
        const core::SynthesisResult res =
            core::synthesize(c.spec, core::SynthesisOptions{});
        fps.push_back(campaign::result_fingerprint(res));
      }
      return fps;
    };
    const bench::Measurement off_m = runner.run(
        "traced_off", [&] { benchmark::DoNotOptimize(fingerprints()); });
    const std::vector<std::uint64_t> fps_off = fingerprints();
    obs::set_tracing_enabled(true);
    obs::set_profiling_enabled(true);
    obs::reset_phase_totals();
    const bench::Measurement on_m = runner.run(
        "traced_on", [&] { benchmark::DoNotOptimize(fingerprints()); });
    const std::vector<std::uint64_t> fps_on = fingerprints();
    obs::set_tracing_enabled(false);
    obs::set_profiling_enabled(false);
    if (fps_off != fps_on) {
      std::fprintf(stderr,
                   "bench_eval_hotpath: FINGERPRINT MISMATCH — tracing "
                   "perturbed synthesis results\n");
      std::exit(1);
    }
    std::printf("tracing armed overhead: %.2f%% (untraced %.4f s, traced "
                "%.4f s median; fingerprints bit-identical)\n",
                (on_m.stats.median / off_m.stats.median - 1.0) * 100.0,
                off_m.stats.median, on_m.stats.median);
    std::printf("%s\n", io::phase_profile_record(obs::phase_totals()).c_str());
    obs::reset_tracing();  // drop the buffered spans; nothing exports them
  }
}

void BM_EvaluateSweep(benchmark::State& state) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const SweepSetup setup(
      soc::with_logical_islands(d26.soc, static_cast<int>(state.range(0)), d26.use_cases));
  core::EvalScratchPool scratch;
  const Mode mode = state.range(1) != 0 ? Mode::kPruned : Mode::kCold;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(setup, mode, scratch));
  }
}
BENCHMARK(BM_EvaluateSweep)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({7, 0})
    ->Args({7, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = vinoc::bench::quick_mode(argc, argv);
  print_table(quick);
  if (quick) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
