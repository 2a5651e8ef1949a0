// Campaign engine throughput: jobs/second of a cold batch run and the
// speedup a warm content-hash cache delivers on the re-run.
//
// This is beyond the paper (it synthesizes each design once, by hand); the
// campaign engine is what lets the reproduction sweep thousands of
// (scenario, islanding, island count, width) combinations as one scheduled,
// cached, resumable batch. The table reports, per thread count: cold
// wall time, warm (all-cache-hit) wall time, and the hit speedup — the
// acceptance bar is >= 5x, in practice it is orders of magnitude. One JSON
// line per measurement between the BEGIN/END JSONL markers.
#include "bench_util.hpp"

#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/io/jsonl.hpp"

namespace {

using namespace vinoc;

/// Moderate matrix: d16 + a 12-core synthetic family (base + 2 variants),
/// 2 strategies x {2,3} islands x {32,64} bits = 32 jobs. Quick mode (CI
/// perf smoke) drops the synthetic variants and one width: 8 jobs.
campaign::CampaignSpec bench_campaign(bool quick) {
  campaign::CampaignSpec spec;
  spec.name = "bench";
  spec.benchmarks = {"d16"};
  campaign::SyntheticScenario family;
  family.params.cores = 12;
  family.params.hubs = 2;
  family.perturbations = quick ? 0 : 2;
  spec.synthetic.push_back(family);
  spec.strategies = {"logical", "comm"};
  spec.island_counts = {2, 3};
  spec.widths = quick ? std::vector<int>{32} : std::vector<int>{32, 64};
  return spec;
}

void print_table(bool quick) {
  bench::print_header(
      "Campaign engine: batch throughput and cache-hit speedup",
      "beyond the paper (batched multi-scenario synthesis harness)");
  const campaign::CampaignSpec spec = bench_campaign(quick);
  // Statistical measurement (bench/fat_runner.hpp) of the gated threads=1
  // numbers: cold = fresh cache every rep, warm = all-hit re-run against
  // a pre-filled cache; median + MAD over the reps feed the perf gate.
  bench::FatRunner runner(bench::FatConfig::from_env_or_die());
  bench::RecordProvenance prov(runner.config());

  int jobs = 0;
  const bench::Measurement cold_m = runner.run("campaign_cold", [&] {
    campaign::ResultCache cache;
    campaign::CampaignOptions opt;
    opt.threads = 1;
    opt.cache = &cache;
    const campaign::CampaignResult r = campaign::run_campaign(spec, opt);
    jobs = r.jobs_total();
    benchmark::DoNotOptimize(r.records.size());
  });
  campaign::ResultCache warm_cache;
  campaign::CampaignOptions warm_opt;
  warm_opt.threads = 1;
  warm_opt.cache = &warm_cache;
  (void)campaign::run_campaign(spec, warm_opt);  // fill the cache once
  // Correctness guardrail, outside the timed region: the warm re-run must
  // serve every job from the cache or "warm" times the wrong thing.
  const campaign::CampaignResult check = campaign::run_campaign(spec, warm_opt);
  if (check.cache_hits() != check.jobs_total()) {
    std::fprintf(stderr, "bench_campaign: warm run expected all hits, got %d/%d\n",
                 check.cache_hits(), check.jobs_total());
    std::exit(1);
  }
  const bench::Measurement warm_m = runner.run("campaign_warm", [&] {
    const campaign::CampaignResult r = campaign::run_campaign(spec, warm_opt);
    benchmark::DoNotOptimize(r.cache_hits());
  });
  prov.add(cold_m);
  prov.add(warm_m);
  const bench::RobustStats jobs_per_s = bench::rate_from_time(cold_m.stats, jobs);
  const bench::RobustStats warm_jobs_per_s = bench::rate_from_time(warm_m.stats, jobs);
  // Printed, not gated: cold over warm falls whenever the cold side gets
  // faster, so it cannot tell a warm-side regression from a cold-side gain.
  const bench::RobustStats warm_speedup =
      bench::ratio_of(cold_m.stats, warm_m.stats);

  std::printf("%-10s %-8s %-12s %-12s %-12s %-10s %-6s\n", "threads", "jobs",
              "cold [s]", "jobs/s", "warm [s]", "speedup", "reps");
  std::printf("%-10d %-8d %-12.3f %-12.1f %-12.4f %-10.0f %d\n", 1, jobs,
              cold_m.stats.median, jobs_per_s.median, warm_m.stats.median,
              warm_speedup.median, std::min(cold_m.stats.n, warm_m.stats.n));

  // Thread-scaling rows (observability only — single-shot, not gated).
  struct Row {
    int threads;
    int jobs;
    double cold_s, warm_s;
  };
  std::vector<Row> rows;
  for (const int threads : quick ? std::vector<int>{2} : std::vector<int>{2, 4}) {
    campaign::ResultCache cache;
    campaign::CampaignOptions opt;
    opt.threads = threads;
    opt.cache = &cache;
    const campaign::CampaignResult cold = campaign::run_campaign(spec, opt);
    const campaign::CampaignResult warm = campaign::run_campaign(spec, opt);
    if (warm.cache_hits() != warm.jobs_total()) {
      std::printf("ERROR: warm run expected all hits, got %d/%d\n",
                  warm.cache_hits(), warm.jobs_total());
    }
    rows.push_back({threads, cold.jobs_total(), cold.wall_s, warm.wall_s});
    std::printf("%-10d %-8d %-12.3f %-12.1f %-12.4f %.0fx\n", threads,
                cold.jobs_total(), cold.wall_s, cold.jobs_total() / cold.wall_s,
                warm.wall_s, cold.wall_s / warm.wall_s);
  }

  std::printf("\n--- BEGIN JSONL (campaign_cache_speedup) ---\n");
  for (const Row& r : rows) {
    // Raw seconds only (observability fields, never gated): the gated
    // rates live in the campaign_summary record below.
    io::JsonlWriter w;
    w.field("bench", "campaign_cache_speedup")
        .field("threads", r.threads)
        .field("jobs", r.jobs)
        .field("cold_s", r.cold_s)
        .field("warm_s", r.warm_s);
    bench::append_env_provenance(w);
    std::printf("%s\n", w.line().c_str());
  }
  // One-line summary (threads = 1, FatRunner-measured) keyed for
  // tools/bench_check.
  io::JsonlWriter summary;
  summary.field("bench", "campaign_summary")
      .field("quick", quick)
      .field("jobs", jobs)
      .field("cold_s", cold_m.stats.median)
      .field("warm_s", warm_m.stats.median);
  bench::append_metric(summary, "jobs_per_s", jobs_per_s);
  bench::append_metric(summary, "warm_jobs_per_s", warm_jobs_per_s);
  prov.append(summary);
  bench::append_env_provenance(summary);
  std::printf("%s\n", summary.line().c_str());
  std::printf("--- END JSONL ---\n\n");
}

void BM_CampaignCold(benchmark::State& state) {
  const campaign::CampaignSpec spec = bench_campaign(false);
  campaign::CampaignOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const campaign::CampaignResult r = campaign::run_campaign(spec, opt);
    benchmark::DoNotOptimize(r.records.size());
  }
}
BENCHMARK(BM_CampaignCold)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CampaignWarm(benchmark::State& state) {
  const campaign::CampaignSpec spec = bench_campaign(false);
  campaign::ResultCache cache;
  campaign::CampaignOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  opt.cache = &cache;
  (void)campaign::run_campaign(spec, opt);  // fill the cache once
  for (auto _ : state) {
    const campaign::CampaignResult r = campaign::run_campaign(spec, opt);
    benchmark::DoNotOptimize(r.cache_hits());
  }
}
BENCHMARK(BM_CampaignWarm)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool quick = vinoc::bench::quick_mode(argc, argv);
  print_table(quick);
  if (quick) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
