// Multi-width sweep throughput: wall clock of explore_link_widths() (one
// floorplan, candidate enumeration per structural width class, cross-width
// partition cache and one routing geometry per candidate, shared across the
// width sweep) versus one independent synthesize() per width, on the seed
// benchmarks at the default width set.
//
// The per-width loop lives in this same binary, so the A/B needs no second
// build; the bench additionally asserts that every sweep entry's
// result_fingerprint equals its per-width counterpart (exits non-zero on
// mismatch — the speedup number is only meaningful if the results are
// bit-identical).
//
// One JSON line between the BEGIN/END JSONL markers; the perf-smoke job
// feeds it to tools/bench_check against bench/baseline.json (the
// speedup_structure metric is the CI floor for the sweep-structuring win).
// `--quick` shrinks the case list and skips the google-benchmark tail.
#include "bench_util.hpp"

#include <chrono>
#include <cstdlib>

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/io/jsonl.hpp"

namespace {

using namespace vinoc;
using Clock = std::chrono::steady_clock;

struct Case {
  std::string name;
  soc::SocSpec spec;
};

std::vector<Case> sweep_cases(bool quick) {
  std::vector<Case> cases;
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::Benchmark d36 = soc::make_d36_settop_soc();
  const soc::Benchmark d64 = soc::make_d64_tile_soc();
  cases.push_back({"d26/l4", soc::with_logical_islands(d26.soc, 4, d26.use_cases)});
  cases.push_back({"d36/l5", soc::with_logical_islands(d36.soc, 5, d36.use_cases)});
  cases.push_back({"d64/l8", soc::with_logical_islands(d64.soc, 8, d64.use_cases)});
  if (!quick) {
    const soc::Benchmark d24 = soc::make_d24_imaging_soc();
    cases.push_back({"d26/l7", soc::with_logical_islands(d26.soc, 7, d26.use_cases)});
    cases.push_back({"d24/l5", soc::with_logical_islands(d24.soc, 5, d24.use_cases)});
    cases.push_back({"d64/l4", soc::with_logical_islands(d64.soc, 4, d64.use_cases)});
  }
  return cases;
}

const std::vector<int> kWidths = {16, 32, 64, 128};

/// The unshared schedule: one full synthesize() per width over one
/// shared pool/scratch, infeasible widths recorded. Returns per-width
/// fingerprints (0 = infeasible) and the number of candidate evaluations.
std::vector<std::uint64_t> legacy_sweep(const soc::SocSpec& spec,
                                        const std::vector<int>& widths,
                                        const core::SynthesisOptions& options,
                                        long long* evals) {
  exec::ThreadPool pool(options.threads);
  core::EvalScratchPool scratch;
  std::vector<std::uint64_t> fps;
  for (const int w : widths) {
    core::SynthesisOptions opt = options;
    opt.link_width_bits = w;
    try {
      const core::SynthesisResult r = core::synthesize(spec, opt, pool, scratch);
      if (evals != nullptr) *evals += r.stats.configs_explored;
      fps.push_back(campaign::result_fingerprint(r));
    } catch (const core::InfeasibleWidthError&) {
      fps.push_back(0);
    }
  }
  return fps;
}

std::vector<std::uint64_t> shared_sweep(const soc::SocSpec& spec,
                                        const std::vector<int>& widths,
                                        const core::SynthesisOptions& options,
                                        long long* evals) {
  const core::WidthSweepResult sweep =
      core::explore_link_widths(spec, widths, options);
  std::vector<std::uint64_t> fps;
  for (const core::WidthSweepEntry& e : sweep.entries) {
    if (e.feasible && evals != nullptr) *evals += e.result.stats.configs_explored;
    fps.push_back(e.feasible ? campaign::result_fingerprint(e.result) : 0);
  }
  return fps;
}

/// One measured legacy-vs-shared A/B over `widths`. The fingerprint
/// guardrail runs as an UNTIMED verification pass first (correctness
/// checks stay outside timed regions; it doubles as the warm-up): the
/// shared sweep must be bit-identical to the legacy per-width schedule,
/// else the bench exits non-zero. Each side is then measured by the FatRunner (warmup
/// batches, adaptive reps, median + MAD). `evals` receives the shared
/// side's candidate-evaluation count from the verification pass.
struct AbResult {
  bench::Measurement legacy;
  bench::Measurement shared;
};
AbResult timed_ab(bench::FatRunner& runner, const Case& c,
                  const std::vector<int>& widths,
                  const core::SynthesisOptions& options, long long* evals) {
  *evals = 0;
  const std::vector<std::uint64_t> a = shared_sweep(c.spec, widths, options, evals);
  const std::vector<std::uint64_t> b = legacy_sweep(c.spec, widths, options, nullptr);
  if (a != b) {
    std::fprintf(stderr,
                 "bench_width_sweep: FINGERPRINT MISMATCH on %s — the "
                 "shared sweep is not bit-identical to per-width "
                 "synthesize()\n",
                 c.name.c_str());
    std::exit(1);
  }
  AbResult ab;
  ab.shared = runner.run(c.name + " shared", [&] {
    benchmark::DoNotOptimize(shared_sweep(c.spec, widths, options, nullptr));
  });
  ab.legacy = runner.run(c.name + " legacy", [&] {
    benchmark::DoNotOptimize(legacy_sweep(c.spec, widths, options, nullptr));
  });
  return ab;
}

void print_table(bool quick) {
  bench::print_header(
      "Width sweep: shared structures vs one synthesize() per width",
      "beyond the paper (sweep-structured evaluation of Algorithm 1)");
  std::vector<Case> cases = sweep_cases(quick);
  core::SynthesisOptions options;  // threads = 1, prune on: the default path
  // Statistical measurement (bench/fat_runner.hpp): env-var-canonical
  // warmup/rep config, median + MAD with outlier rejection per side.
  bench::FatRunner runner(bench::FatConfig::from_env_or_die());
  bench::RecordProvenance prov(runner.config());

  std::vector<bench::RobustStats> shared_parts;
  std::vector<bench::RobustStats> legacy_parts;
  long long evals_total = 0;
  std::printf("%-10s %-26s %-26s %-10s %-6s\n", "case",
              "legacy s (min/med/max)", "shared s (min/med/max)", "speedup",
              "reps");
  for (const Case& c : cases) {
    long long evals = 0;
    const AbResult ab =
        timed_ab(runner, c, kWidths, options, &evals);
    prov.add(ab.shared);
    prov.add(ab.legacy);
    shared_parts.push_back(ab.shared.stats);
    legacy_parts.push_back(ab.legacy.stats);
    evals_total += evals;
    std::printf("%-10s %-26s %-26s %-10.2f %d\n", c.name.c_str(),
                bench::time_range(ab.legacy.stats).c_str(),
                bench::time_range(ab.shared.stats).c_str(),
                ab.legacy.stats.median / ab.shared.stats.median,
                std::min(ab.legacy.stats.n, ab.shared.stats.n));
  }
  const bench::RobustStats shared_total = bench::sum_stats(shared_parts);
  const bench::RobustStats legacy_total = bench::sum_stats(legacy_parts);
  std::printf("%-10s %-26.4f %-26.4f %.2fx\n", "TOTAL (med)",
              legacy_total.median, shared_total.median,
              legacy_total.median / shared_total.median);

  // Sharing observability on the aggregate case list (deterministic at
  // threads=1).
  long long partition_hits = 0;
  int peak_buffered = 0;
  for (const Case& c : cases) {
    exec::ThreadPool pool(1);
    core::EvalScratchPool scratch;
    core::WidthSetStats st;
    (void)core::synthesize_width_set(c.spec, kWidths, options, pool, scratch, &st);
    partition_hits += st.partition_cache_hits;
    peak_buffered = std::max(peak_buffered, st.peak_buffered_outcomes);
  }

  std::printf("\n--- BEGIN JSONL (width_sweep) ---\n");
  const int reps_floor = std::min(shared_total.n, legacy_total.n);
  io::JsonlWriter w;
  w.field("bench", "width_sweep")
      .field("quick", quick)
      .field("sweep_s", shared_total.median)
      .field("legacy_s", legacy_total.median);
  bench::append_metric(w, "speedup_structure",
                       bench::ratio_of(legacy_total, shared_total));
  bench::append_metric(
      w, "width_cands_per_s",
      bench::rate_from_time(shared_total, static_cast<double>(evals_total)));
  // The sharing counters are deterministic at threads=1 (MAD 0 by
  // construction); gating them still catches a sharing-machinery change.
  bench::append_metric(
      w, "partition_cache_hits",
      bench::exact_stat(static_cast<double>(partition_hits), reps_floor));
  bench::append_metric(
      w, "peak_buffered_outcomes",
      bench::exact_stat(static_cast<double>(peak_buffered), reps_floor));
  prov.append(w);
  bench::append_env_provenance(w);
  std::printf("%s\n", w.line().c_str());
  std::printf("--- END JSONL ---\n\n");
}

void BM_WidthSweepShared(benchmark::State& state) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec = soc::with_logical_islands(
      d26.soc, static_cast<int>(state.range(0)), d26.use_cases);
  core::SynthesisOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::explore_link_widths(spec, kWidths, options));
  }
}
BENCHMARK(BM_WidthSweepShared)->Arg(4)->Arg(7)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = vinoc::bench::quick_mode(argc, argv);
  print_table(quick);
  if (quick) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
