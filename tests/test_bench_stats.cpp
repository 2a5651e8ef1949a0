// Tests for the statistical bench harness (bench/fat_runner.hpp) and the
// perf-gate core (tools/bench_check_core.hpp): median/MAD/outlier math,
// timer-calibration batch scaling, VINOC_BENCH_* env parsing (bad values
// must produce clear errors), record parsing, and the gate's
// tolerance-violation / missing-metric / min-rep paths.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "../bench/fat_runner.hpp"
#include "../tools/bench_check_core.hpp"

namespace vinoc {
namespace {

using bench::FatConfig;
using bench::FatRunner;
using bench::Measurement;
using bench::RobustStats;

// --- Robust statistics ------------------------------------------------------

TEST(BenchStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(bench::median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(bench::median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(bench::median_of({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(bench::median_of({}), 0.0);
}

TEST(BenchStats, MadAroundCenter) {
  // deviations from 2.0: {1, 0, 1, 2} -> sorted {0,1,1,2} -> median 1.0
  EXPECT_DOUBLE_EQ(bench::mad_of({1.0, 2.0, 3.0, 4.0}, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(bench::mad_of({}, 0.0), 0.0);
}

TEST(BenchStats, RobustStatsRejectsFarOutlier) {
  const RobustStats s =
      bench::robust_stats({1.0, 1.01, 0.99, 1.02, 0.98, 5.0});
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.n, 5);
  EXPECT_NEAR(s.median, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.max, 1.02);
  EXPECT_DOUBLE_EQ(s.min, 0.98);
}

TEST(BenchStats, ZeroMadDisablesRejection) {
  // Half the samples identical -> MAD 0 -> no dispersion estimate, so the
  // 9.0 "outlier" must be kept (dropping it would be unjustified).
  const RobustStats s = bench::robust_stats({2.0, 2.0, 2.0, 9.0});
  EXPECT_EQ(s.rejected, 0);
  EXPECT_EQ(s.n, 4);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(BenchStats, RelMadHandlesZeroMedian) {
  RobustStats s;
  s.median = 0.0;
  s.mad = 0.5;
  EXPECT_DOUBLE_EQ(s.rel_mad(), 0.0);
  s.median = -2.0;
  EXPECT_DOUBLE_EQ(s.rel_mad(), 0.25);
}

TEST(BenchStats, RateFromTimeInvertsAndScales) {
  RobustStats t;
  t.n = 5;
  t.median = 0.5;
  t.mad = 0.05;  // rel_mad 0.1
  t.min = 0.4;
  t.max = 0.8;
  const RobustStats r = bench::rate_from_time(t, 100.0);
  EXPECT_EQ(r.n, 5);
  EXPECT_DOUBLE_EQ(r.median, 200.0);
  EXPECT_NEAR(r.mad, 20.0, 1e-9);        // rel dispersion preserved
  EXPECT_DOUBLE_EQ(r.min, 100.0 / 0.8);  // slowest time -> lowest rate
  EXPECT_DOUBLE_EQ(r.max, 100.0 / 0.4);
  EXPECT_EQ(bench::rate_from_time(RobustStats{}, 100.0).n, 0);
}

TEST(BenchStats, SumStatsIsConservative) {
  RobustStats a;
  a.n = 5;
  a.median = 1.0;
  a.mad = 0.1;
  RobustStats b;
  b.n = 3;
  b.median = 2.0;
  b.mad = 0.2;
  const RobustStats s = bench::sum_stats({a, b});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.mad, 0.3, 1e-12);  // upper bound: MADs add
  EXPECT_EQ(s.n, 3);               // smallest component rep count
}

TEST(BenchStats, RatioOfPropagatesRelativeDispersion) {
  RobustStats num;
  num.n = 5;
  num.median = 3.0;
  num.mad = 0.3;  // rel 0.1
  RobustStats den;
  den.n = 4;
  den.median = 2.0;
  den.mad = 0.1;  // rel 0.05
  const RobustStats r = bench::ratio_of(num, den);
  EXPECT_DOUBLE_EQ(r.median, 1.5);
  EXPECT_NEAR(r.mad, 1.5 * 0.15, 1e-12);  // rel MADs add
  EXPECT_EQ(r.n, 4);
  EXPECT_EQ(bench::ratio_of(num, RobustStats{}).n, 0);  // zero denominator
}

TEST(BenchStats, ExactStatHasNoDispersion) {
  const RobustStats s = bench::exact_stat(42.0, 7);
  EXPECT_DOUBLE_EQ(s.median, 42.0);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
  EXPECT_EQ(s.n, 7);
}

// --- Timer calibration ------------------------------------------------------

TEST(BenchStats, CalibrationBatchScaling) {
  // Duration target already met: unchanged (loop terminates).
  EXPECT_EQ(bench::next_calibration_batch(8, 0.030, 0.020), 8);
  // Unmeasurably fast probe: aggressive 16x growth.
  EXPECT_EQ(bench::next_calibration_batch(1, 0.0, 0.020), 16);
  // 4x shortfall + 20% headroom = 4.8x.
  EXPECT_EQ(bench::next_calibration_batch(10, 0.005, 0.020), 48);
  // Tiny shortfall still grows at least 2x...
  EXPECT_EQ(bench::next_calibration_batch(10, 0.019, 0.020), 20);
  // ...and a huge shortfall is clamped to 16x per step.
  EXPECT_EQ(bench::next_calibration_batch(10, 0.0001, 0.020), 160);
  // Growth saturates at the hard batch cap.
  EXPECT_EQ(bench::next_calibration_batch(1 << 23, 0.0, 0.020), 1 << 24);
}

TEST(BenchStats, TimerResolutionIsPositiveAndSane) {
  const double res = bench::timer_resolution_s();
  EXPECT_GT(res, 0.0);
  EXPECT_LT(res, 0.1);  // a steady_clock tick is far below 100 ms anywhere
}

// --- Environment configuration ----------------------------------------------

/// Sets/unsets one VINOC_BENCH_* variable for the test scope and restores
/// the previous value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(BenchStats, FromEnvDefaultsWhenUnset) {
  const ScopedEnv e1("VINOC_BENCH_WARMUP_RUNS", nullptr);
  const ScopedEnv e2("VINOC_BENCH_MIN_REPS", nullptr);
  const ScopedEnv e3("VINOC_BENCH_MAX_REPS", nullptr);
  const ScopedEnv e4("VINOC_BENCH_MIN_DURATION_MS", nullptr);
  const ScopedEnv e5("VINOC_BENCH_SEED", nullptr);
  FatConfig cfg;
  std::string error;
  ASSERT_TRUE(FatConfig::from_env(cfg, error)) << error;
  const FatConfig defaults;
  EXPECT_EQ(cfg.warmup_runs, defaults.warmup_runs);
  EXPECT_EQ(cfg.min_reps, defaults.min_reps);
  EXPECT_EQ(cfg.max_reps, defaults.max_reps);
  EXPECT_DOUBLE_EQ(cfg.min_duration_ms, defaults.min_duration_ms);
  EXPECT_EQ(cfg.seed, defaults.seed);
}

TEST(BenchStats, FromEnvReadsAllKnobs) {
  const ScopedEnv e1("VINOC_BENCH_WARMUP_RUNS", "2");
  const ScopedEnv e2("VINOC_BENCH_MIN_REPS", "7");
  const ScopedEnv e3("VINOC_BENCH_MAX_REPS", "21");
  const ScopedEnv e4("VINOC_BENCH_MIN_DURATION_MS", "5.5");
  const ScopedEnv e5("VINOC_BENCH_SEED", "99");
  FatConfig cfg;
  std::string error;
  ASSERT_TRUE(FatConfig::from_env(cfg, error)) << error;
  EXPECT_EQ(cfg.warmup_runs, 2);
  EXPECT_EQ(cfg.min_reps, 7);
  EXPECT_EQ(cfg.max_reps, 21);
  EXPECT_DOUBLE_EQ(cfg.min_duration_ms, 5.5);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(BenchStats, FromEnvRejectsBadValuesWithClearErrors) {
  FatConfig cfg;
  std::string error;
  {
    const ScopedEnv e("VINOC_BENCH_MIN_REPS", "abc");
    EXPECT_FALSE(FatConfig::from_env(cfg, error));
    EXPECT_NE(error.find("VINOC_BENCH_MIN_REPS"), std::string::npos) << error;
    EXPECT_NE(error.find("abc"), std::string::npos) << error;
    EXPECT_EQ(cfg.min_reps, FatConfig().min_reps);  // left at defaults
  }
  {
    const ScopedEnv e("VINOC_BENCH_MIN_REPS", "-3");  // strtoull would wrap
    EXPECT_FALSE(FatConfig::from_env(cfg, error));
    EXPECT_NE(error.find("VINOC_BENCH_MIN_REPS"), std::string::npos) << error;
  }
  {
    const ScopedEnv e("VINOC_BENCH_MIN_REPS", "0");  // must be positive
    EXPECT_FALSE(FatConfig::from_env(cfg, error));
  }
  {
    const ScopedEnv e("VINOC_BENCH_MIN_DURATION_MS", "nan");
    EXPECT_FALSE(FatConfig::from_env(cfg, error));
    EXPECT_NE(error.find("VINOC_BENCH_MIN_DURATION_MS"), std::string::npos)
        << error;
  }
  {
    const ScopedEnv lo("VINOC_BENCH_MIN_REPS", "9");
    const ScopedEnv hi("VINOC_BENCH_MAX_REPS", "3");
    EXPECT_FALSE(FatConfig::from_env(cfg, error));
    EXPECT_NE(error.find("below"), std::string::npos) << error;
  }
}

// --- FatRunner --------------------------------------------------------------

TEST(BenchStats, RunnerHonoursRepBounds) {
  FatConfig cfg;
  cfg.warmup_runs = 1;
  cfg.min_reps = 3;
  cfg.max_reps = 6;
  cfg.min_duration_ms = 0.0;  // floor stays at 1000x timer resolution
  FatRunner runner(cfg);
  int calls = 0;
  volatile double sink = 0.0;
  const Measurement m = runner.run("spin", [&] {
    ++calls;
    for (int i = 0; i < 100; ++i) sink = sink + static_cast<double>(i);
  });
  EXPECT_GE(m.batch, 1);
  EXPECT_GE(static_cast<int>(m.rep_s.size()), cfg.min_reps);
  EXPECT_LE(static_cast<int>(m.rep_s.size()), cfg.max_reps);
  EXPECT_EQ(m.stats.n + m.stats.rejected,
            static_cast<int>(m.rep_s.size()));
  EXPECT_GT(m.stats.median, 0.0);
  EXPECT_GT(calls, 0);
}

TEST(BenchStats, NoisyFlagCombinesGovernorDriftAndDispersion) {
  const FatConfig cfg;
  Measurement m;
  m.stats.median = 1.0;
  m.stats.mad = 0.01;
  m.cpu_start.governor = "performance";
  m.cpu_start.freq_khz = 3000000.0;
  m.cpu_end.freq_khz = 3000000.0;
  EXPECT_FALSE(FatRunner::is_noisy(m, cfg));
  // Unreadable /sys (container norm) is NOT noisy.
  m.cpu_start.governor = "unknown";
  m.cpu_start.freq_khz = 0.0;
  m.cpu_end.freq_khz = 0.0;
  EXPECT_FALSE(FatRunner::is_noisy(m, cfg));
  // A powersave governor is.
  m.cpu_start.governor = "powersave";
  EXPECT_TRUE(FatRunner::is_noisy(m, cfg));
  // >5% frequency drift across the timed region is.
  m.cpu_start.governor = "performance";
  m.cpu_start.freq_khz = 3000000.0;
  m.cpu_end.freq_khz = 2700000.0;
  EXPECT_TRUE(FatRunner::is_noisy(m, cfg));
  // High timing dispersion is, regardless of cpufreq.
  m.cpu_end.freq_khz = 3000000.0;
  m.stats.mad = 0.2;
  EXPECT_TRUE(FatRunner::is_noisy(m, cfg));
}

TEST(BenchStats, RecordProvenanceAppendsCanonicalFields) {
  FatConfig cfg;
  cfg.warmup_runs = 2;
  Measurement a;
  a.stats.n = 5;
  a.noisy = false;
  a.cpu_start.freq_khz = 1000.0;
  a.cpu_end.freq_khz = 1100.0;
  Measurement b;
  b.stats.n = 3;
  b.noisy = true;
  b.cpu_start.freq_khz = 1100.0;
  b.cpu_end.freq_khz = 1200.0;
  bench::RecordProvenance prov(cfg);
  prov.add(a);
  prov.add(b);
  io::JsonlWriter w;
  w.field("bench", "t");
  prov.append(w);
  std::map<std::string, std::string> obj;
  ASSERT_TRUE(io::parse_jsonl_object(w.line(), obj)) << w.line();
  EXPECT_EQ(obj.at("reps"), "3");  // smallest kept-rep count wins
  EXPECT_EQ(obj.at("warmup_runs"), "2");
  EXPECT_EQ(obj.at("noisy"), "true");  // OR over measurements
  EXPECT_EQ(std::stod(obj.at("cpu_freq_start_khz")), 1000.0);
  EXPECT_EQ(std::stod(obj.at("cpu_freq_end_khz")), 1200.0);
  EXPECT_GT(std::stod(obj.at("timer_res_ns")), 0.0);
}

TEST(BenchStats, AppendMetricEmitsMadCompanion) {
  RobustStats s;
  s.median = 12.5;
  s.mad = 0.25;
  io::JsonlWriter w;
  w.field("bench", "t");
  bench::append_metric(w, "rate_per_s", s);
  std::map<std::string, std::string> obj;
  ASSERT_TRUE(io::parse_jsonl_object(w.line(), obj)) << w.line();
  EXPECT_EQ(std::stod(obj.at("rate_per_s")), 12.5);
  EXPECT_EQ(std::stod(obj.at("rate_per_s_mad")), 0.25);
}

// --- bench_check core: parsing ----------------------------------------------

TEST(BenchGate, ObservabilityFieldClassification) {
  using benchgate::observability_field;
  EXPECT_TRUE(observability_field("eval_hotpath.candidates_per_s_mad"));
  EXPECT_TRUE(observability_field("campaign_summary.cold_s"));
  EXPECT_TRUE(observability_field("eval_hotpath.reps"));
  EXPECT_TRUE(observability_field("eval_hotpath.noisy"));
  EXPECT_TRUE(observability_field("width_sweep.timer_res_ns"));
  EXPECT_TRUE(observability_field("runtime_scaling_t2.hardware_concurrency"));
  // Rates are gate-able even though they end in "_s".
  EXPECT_FALSE(observability_field("eval_hotpath.candidates_per_s"));
  EXPECT_FALSE(observability_field("width_sweep.speedup_structure"));
  EXPECT_FALSE(observability_field("width_sweep.partition_cache_hits"));
}

TEST(BenchGate, LoadBaselineParsesAnnotations) {
  std::istringstream in(
      "# header comment\n"
      "{\"metric\":\"a.rate\",\"value\":100,\"tolerance\":0.2,\"min_reps\":4}\n"
      "{\"metric\":\"a.mem\",\"value\":8,\"higher_is_better\":false}\n");
  std::vector<benchgate::BaselineMetric> metrics;
  std::vector<benchgate::BaselineComment> comments;
  ASSERT_TRUE(benchgate::load_baseline(in, "test", metrics, &comments));
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "a.rate");
  EXPECT_DOUBLE_EQ(metrics[0].value, 100.0);
  EXPECT_DOUBLE_EQ(metrics[0].tolerance, 0.2);
  EXPECT_EQ(metrics[0].min_reps, 4);
  EXPECT_TRUE(metrics[0].higher_is_better);
  EXPECT_FALSE(metrics[1].higher_is_better);
  EXPECT_EQ(metrics[1].min_reps, 0);
  ASSERT_EQ(comments.size(), 1u);
  EXPECT_EQ(comments[0].before, 0u);
}

TEST(BenchGate, LoadBaselineRejectsMalformedLines) {
  std::vector<benchgate::BaselineMetric> metrics;
  {
    std::istringstream in("{\"metric\":\"a\",\"value\":\"fast\"}\n");
    EXPECT_FALSE(benchgate::load_baseline(in, "test", metrics));
  }
  {
    std::istringstream in(
        "{\"metric\":\"a\",\"value\":1,\"tolerance\":\"loose\"}\n");
    metrics.clear();
    EXPECT_FALSE(benchgate::load_baseline(in, "test", metrics));
  }
  {
    std::istringstream in("# only comments\n");
    metrics.clear();
    EXPECT_FALSE(benchgate::load_baseline(in, "test", metrics));  // empty set
  }
}

TEST(BenchGate, CollectMetricsKeysByBenchAndKeepsAllSamples) {
  std::istringstream in(
      "human-readable table line, ignored\n"
      "{\"bench\":\"b\",\"rate_per_s\":100,\"rate_per_s_mad\":2,"
      "\"cpu_model\":\"TestCPU\",\"noisy\":false}\n"
      "{\"no_bench_key\":1}\n"
      "{\"bench\":\"b\",\"rate_per_s\":110}\n");
  benchgate::CollectedMetrics got;
  benchgate::collect_metrics(in, got);
  EXPECT_DOUBLE_EQ(got.latest.at("b.rate_per_s"), 110.0);  // last wins
  ASSERT_EQ(got.samples.at("b.rate_per_s").size(), 2u);    // both kept
  EXPECT_DOUBLE_EQ(got.samples.at("b.rate_per_s")[0], 100.0);
  EXPECT_EQ(got.strings.at("cpu_model"), "TestCPU");
  EXPECT_EQ(got.latest.count("no_bench_key"), 0u);
  EXPECT_EQ(got.strings.count("noisy"), 0u);  // bools are not provenance strings
}

// --- bench_check core: the gate ---------------------------------------------

benchgate::BaselineMetric make_metric(const std::string& name, double value,
                                      double tolerance, int min_reps = 0,
                                      bool higher_is_better = true) {
  benchgate::BaselineMetric m;
  m.name = name;
  m.value = value;
  m.tolerance = tolerance;
  m.min_reps = min_reps;
  m.higher_is_better = higher_is_better;
  return m;
}

TEST(BenchGate, GatePassesWithinTolerance) {
  benchgate::CollectedMetrics current;
  current.latest["b.rate_per_s"] = 95.0;
  current.latest["b.reps"] = 5.0;
  const int failures = benchgate::run_gate(
      {make_metric("b.rate_per_s", 100.0, 0.10, 5)}, 0.25, current);
  EXPECT_EQ(failures, 0);
}

TEST(BenchGate, GateFailsOnToleranceViolation) {
  benchgate::CollectedMetrics current;
  current.latest["b.rate_per_s"] = 80.0;  // -20% against a 10% tolerance
  const int failures = benchgate::run_gate(
      {make_metric("b.rate_per_s", 100.0, 0.10)}, 0.25, current);
  EXPECT_EQ(failures, 1);
}

TEST(BenchGate, ImprovementsNeverFail) {
  benchgate::CollectedMetrics current;
  current.latest["b.rate_per_s"] = 500.0;  // 5x better
  current.latest["b.mem_mb"] = 1.0;        // lower is better: improved
  const int failures = benchgate::run_gate(
      {make_metric("b.rate_per_s", 100.0, 0.10),
       make_metric("b.mem_mb", 8.0, 0.10, 0, /*higher_is_better=*/false)},
      0.25, current);
  EXPECT_EQ(failures, 0);
}

TEST(BenchGate, LowerIsBetterFailsUpward) {
  benchgate::CollectedMetrics current;
  current.latest["b.mem_mb"] = 10.0;  // +25% against a 10% tolerance
  const int failures = benchgate::run_gate(
      {make_metric("b.mem_mb", 8.0, 0.10, 0, /*higher_is_better=*/false)},
      0.25, current);
  EXPECT_EQ(failures, 1);
}

TEST(BenchGate, GateFailsOnMissingMetric) {
  benchgate::CollectedMetrics current;
  current.latest["b.other"] = 1.0;
  const int failures = benchgate::run_gate(
      {make_metric("b.rate_per_s", 100.0, 0.10)}, 0.25, current);
  EXPECT_EQ(failures, 1);
}

TEST(BenchGate, GateEnforcesMinReps) {
  benchgate::CollectedMetrics current;
  current.latest["b.rate_per_s"] = 100.0;
  // reps field absent entirely -> FAIL(no-reps).
  EXPECT_EQ(benchgate::run_gate({make_metric("b.rate_per_s", 100.0, 0.10, 5)},
                                0.25, current),
            1);
  // reps below the floor -> FAIL(reps), even though the value is fine.
  current.latest["b.reps"] = 2.0;
  EXPECT_EQ(benchgate::run_gate({make_metric("b.rate_per_s", 100.0, 0.10, 5)},
                                0.25, current),
            1);
  current.latest["b.reps"] = 5.0;
  EXPECT_EQ(benchgate::run_gate({make_metric("b.rate_per_s", 100.0, 0.10, 5)},
                                0.25, current),
            0);
}

// --- bench_check core: noise report -----------------------------------------

TEST(BenchGate, NoiseReportFailsWhenDispersionExceedsBudget) {
  benchgate::CollectedMetrics current;
  // Cross-run dispersion: median 100, deviations {20,0,20} -> 20% rel MAD
  // against a 10% budget.
  current.samples["b.rate_per_s"] = {80.0, 100.0, 120.0};
  EXPECT_EQ(benchgate::run_noise_report(
                {make_metric("b.rate_per_s", 100.0, 0.10)}, 0.25, current),
            1);
  // Quiet samples with a quiet within-run MAD pass.
  current.samples["b.rate_per_s"] = {99.0, 100.0, 101.0};
  current.samples["b.rate_per_s_mad"] = {1.0, 1.0, 1.0};
  EXPECT_EQ(benchgate::run_noise_report(
                {make_metric("b.rate_per_s", 100.0, 0.10)}, 0.25, current),
            0);
}

TEST(BenchGate, NoiseReportFailsWithoutDispersionData) {
  benchgate::CollectedMetrics current;
  current.samples["b.rate_per_s"] = {100.0};  // one run, no _mad companion
  EXPECT_EQ(benchgate::run_noise_report(
                {make_metric("b.rate_per_s", 100.0, 0.10)}, 0.25, current),
            1);
  // A deterministic counter stuck at 0 across runs is perfectly quiet,
  // not no-data.
  current.samples["b.shared_evals"] = {0.0, 0.0, 0.0};
  current.samples["b.shared_evals_mad"] = {0.0};
  EXPECT_EQ(benchgate::run_noise_report(
                {make_metric("b.shared_evals", 0.0, 0.25)}, 0.25, current),
            0);
}

// --- bench_check core: baseline writer --------------------------------------

TEST(BenchGate, WriteBaselineRefreshesAndStampsProvenance) {
  std::vector<benchgate::BaselineMetric> baseline = {
      make_metric("b.rate_per_s", 100.0, 0.10, 4),
      make_metric("b.full_only", 7.0, 0.25)};
  const std::vector<benchgate::BaselineComment> comments = {
      {0, "# refreshed-by: commit deadbeef"},  // stale stamp: must be dropped
      {0, "# gate block"},
      {2, "# trailing"}};
  benchgate::CollectedMetrics current;
  current.latest["b.rate_per_s"] = 123.0;
  current.latest["b.rate_per_s_mad"] = 1.0;  // observability: never drift
  current.strings["cpu_model"] = "TestCPU";
  current.strings["compiler"] = "g++ 13";
  std::ostringstream out;
  ASSERT_EQ(benchgate::write_baseline(out, "test", comments, baseline, current,
                                      "abc123", /*append_new=*/false),
            0);
  const std::string text = out.str();
  EXPECT_NE(text.find("# refreshed-by: commit abc123"), std::string::npos)
      << text;
  EXPECT_NE(text.find("TestCPU"), std::string::npos) << text;
  EXPECT_NE(text.find("# gate block"), std::string::npos) << text;
  EXPECT_NE(text.find("# trailing"), std::string::npos) << text;
  EXPECT_EQ(text.find("deadbeef"), std::string::npos) << text;  // one stamp only
  // Measured metric refreshed, annotations kept; absent metric kept as-is.
  EXPECT_NE(text.find("{\"metric\":\"b.rate_per_s\",\"value\":123,"
                      "\"tolerance\":0.1,\"min_reps\":4}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"metric\":\"b.full_only\",\"value\":7"),
            std::string::npos)
      << text;
}

TEST(BenchGate, WriteBaselineHardFailsOnUnknownGateableMetric) {
  const std::vector<benchgate::BaselineMetric> baseline = {
      make_metric("b.rate_per_s", 100.0, 0.10)};
  benchgate::CollectedMetrics current;
  current.latest["b.rate_per_s"] = 100.0;
  current.latest["b.new_rate_per_s"] = 50.0;  // gate-able, not in baseline
  std::ostringstream out;
  EXPECT_EQ(benchgate::write_baseline(out, "test", {}, baseline, current, "c",
                                      /*append_new=*/false),
            1);
  // With --append-new the unknown metric lands with conservative defaults.
  std::ostringstream out2;
  ASSERT_EQ(benchgate::write_baseline(out2, "test", {}, baseline, current, "c",
                                      /*append_new=*/true),
            0);
  EXPECT_NE(out2.str().find("{\"metric\":\"b.new_rate_per_s\",\"value\":50,"
                            "\"tolerance\":0.9}"),
            std::string::npos)
      << out2.str();
}

TEST(BenchGate, WrittenBaselineRoundTrips) {
  const std::vector<benchgate::BaselineMetric> baseline = {
      make_metric("b.rate_per_s", 100.0, 0.10, 4),
      make_metric("b.mem_mb", 8.0, 0.25, 0, /*higher_is_better=*/false)};
  benchgate::CollectedMetrics current;
  current.latest["b.rate_per_s"] = 110.0;
  current.latest["b.mem_mb"] = 7.5;
  std::ostringstream out;
  ASSERT_EQ(benchgate::write_baseline(out, "test", {}, baseline, current, "c",
                                      false),
            0);
  std::istringstream in(out.str());
  std::vector<benchgate::BaselineMetric> reread;
  ASSERT_TRUE(benchgate::load_baseline(in, "roundtrip", reread));
  ASSERT_EQ(reread.size(), 2u);
  EXPECT_DOUBLE_EQ(reread[0].value, 110.0);
  EXPECT_EQ(reread[0].min_reps, 4);
  EXPECT_DOUBLE_EQ(reread[1].value, 7.5);
  EXPECT_FALSE(reread[1].higher_is_better);
}

}  // namespace
}  // namespace vinoc
