// Campaign engine: matrix expansion (order, filters, dedup), spec parsing,
// JSONL record round-trips, thread-count determinism of the streamed
// report, and cache/resume semantics (recompute exactly the missing jobs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "byte_mutations.hpp"
#include "cli_process.hpp"
#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/io/exports.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/obs_writers.hpp"

namespace vinoc::campaign {
namespace {

/// Small, fast matrix: one 9-core synthetic family (base + 1 variant),
/// 2 strategies x 2 island counts x 2 widths = 16 jobs, centiseconds each.
CampaignSpec small_campaign() {
  CampaignSpec spec;
  spec.name = "unit";
  SyntheticScenario family;
  family.params.cores = 9;
  family.params.hubs = 2;
  family.perturbations = 1;
  spec.synthetic.push_back(family);
  spec.strategies = {"logical", "comm"};
  spec.island_counts = {2, 3};
  spec.widths = {32, 64};
  return spec;
}

TEST(CampaignSpec, ExpansionIsDeterministicAndOrdered) {
  const CampaignSpec spec = small_campaign();
  ExpandStats stats;
  const std::vector<CampaignJob> jobs = expand_jobs(spec, &stats);
  ASSERT_EQ(jobs.size(), 16u);
  EXPECT_EQ(stats.raw, 16);
  EXPECT_EQ(stats.filtered, 0);
  EXPECT_EQ(stats.deduped, 0);
  // scenario -> strategy -> islands -> width nesting order.
  EXPECT_EQ(jobs[0].name, "synthetic_c9_s7/logical/i2/w32");
  EXPECT_EQ(jobs[1].name, "synthetic_c9_s7/logical/i2/w64");
  EXPECT_EQ(jobs[2].name, "synthetic_c9_s7/logical/i3/w32");
  EXPECT_EQ(jobs[4].name, "synthetic_c9_s7/comm/i2/w32");
  const std::vector<CampaignJob> again = expand_jobs(spec);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].name, again[i].name);
    EXPECT_EQ(jobs[i].key, again[i].key);
    // Both keys come from one spec hash, equal to hashing from scratch.
    EXPECT_EQ(jobs[i].key, job_key(jobs[i].spec, jobs[i].options));
    EXPECT_EQ(jobs[i].structure_key, structure_key(jobs[i].spec, jobs[i].options));
  }
}

TEST(CampaignSpec, DuplicateAxisEntriesAreContentDeduplicated) {
  CampaignSpec spec = small_campaign();
  spec.benchmarks = {"d16", "d16"};  // same benchmark listed twice
  ExpandStats stats;
  const std::vector<CampaignJob> jobs = expand_jobs(spec, &stats);
  EXPECT_GT(stats.deduped, 0);
  // Every surviving job key is unique.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      EXPECT_NE(jobs[i].key, jobs[j].key) << jobs[i].name;
    }
  }
}

TEST(CampaignSpec, IncludeExcludeFiltersApplyToJobNames) {
  CampaignSpec spec = small_campaign();
  spec.include = {"logical"};
  spec.exclude = {"w64"};
  ExpandStats stats;
  const std::vector<CampaignJob> jobs = expand_jobs(spec, &stats);
  ASSERT_EQ(jobs.size(), 4u);  // 2 scenarios x 2 island counts, width 32 only
  for (const CampaignJob& job : jobs) {
    EXPECT_NE(job.name.find("logical"), std::string::npos);
    EXPECT_EQ(job.name.find("w64"), std::string::npos);
  }
  EXPECT_EQ(stats.filtered, 12);
}

TEST(CampaignSpec, UnknownNamesThrow) {
  CampaignSpec bad_bench = small_campaign();
  bad_bench.benchmarks = {"d99"};
  EXPECT_THROW(expand_jobs(bad_bench), std::invalid_argument);
  CampaignSpec bad_strategy = small_campaign();
  bad_strategy.strategies = {"magic"};
  EXPECT_THROW(expand_jobs(bad_strategy), std::invalid_argument);
}

TEST(CampaignSpec, ParserReadsTheDocumentedFormat) {
  const CampaignParseResult parsed = parse_campaign_spec_string(
      "# comment\n"
      "name = nightly\n"
      "benchmarks = d16 d24\n"
      "synthetic = cores:12 hubs:2 seed:9 flows:1.5 perturb:2\n"
      "strategies = logical comm\n"
      "islands = 2 4\n"
      "widths = 32 128\n"
      "alpha = 0.5\n"
      "alpha_power = 0.8\n"
      "intermediate = off\n"
      "include = d16\n"
      "exclude = w128\n");
  ASSERT_TRUE(parsed.ok) << (parsed.errors.empty()
                                 ? "?"
                                 : parsed.errors.front().message);
  const CampaignSpec& spec = parsed.spec;
  EXPECT_EQ(spec.name, "nightly");
  ASSERT_EQ(spec.benchmarks.size(), 2u);
  ASSERT_EQ(spec.synthetic.size(), 1u);
  EXPECT_EQ(spec.synthetic[0].params.cores, 12);
  EXPECT_EQ(spec.synthetic[0].params.seed, 9u);
  EXPECT_EQ(spec.synthetic[0].perturbations, 2);
  EXPECT_EQ(spec.island_counts, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.widths, (std::vector<int>{32, 128}));
  EXPECT_DOUBLE_EQ(spec.base_options.alpha, 0.5);
  EXPECT_DOUBLE_EQ(spec.base_options.alpha_power, 0.8);
  EXPECT_FALSE(spec.base_options.allow_intermediate_island);
  EXPECT_EQ(spec.include, (std::vector<std::string>{"d16"}));
  EXPECT_EQ(spec.exclude, (std::vector<std::string>{"w128"}));
}

TEST(CampaignSpec, ParserRejectsExtraTokensOnScalarKeysAndHugeInts) {
  // Two settings jammed onto one line must error, not silently drop one.
  const CampaignParseResult jammed = parse_campaign_spec_string(
      "benchmarks = d16\n"
      "alpha = 0.6 alpha_power = 0.7\n");
  ASSERT_FALSE(jammed.ok);
  EXPECT_EQ(jammed.errors.front().line, 2);
  // Out-of-int-range axis values must be rejected, not wrapped.
  const CampaignParseResult huge = parse_campaign_spec_string(
      "benchmarks = d16\n"
      "widths = 4294967328\n");
  ASSERT_FALSE(huge.ok);
  EXPECT_EQ(huge.errors.front().line, 2);
}

TEST(CampaignSpec, OversizedIslandCountsClampIntoTheJobName) {
  CampaignSpec spec = small_campaign();
  spec.synthetic[0].perturbations = 0;
  spec.strategies = {"logical"};
  spec.island_counts = {12, 16};  // both exceed the 9 cores -> both clamp
  spec.widths = {32};
  ExpandStats stats;
  const std::vector<CampaignJob> jobs = expand_jobs(spec, &stats);
  ASSERT_EQ(jobs.size(), 1u);  // saturated points collapse via content dedup
  EXPECT_EQ(stats.deduped, 1);
  EXPECT_EQ(jobs[0].name, "synthetic_c9_s7/logical/i9/w32");
  EXPECT_EQ(jobs[0].islands, 9);
}

TEST(CampaignSpec, ParserReportsErrorsWithLineNumbers) {
  const CampaignParseResult parsed = parse_campaign_spec_string(
      "benchmarks = d16\n"
      "widths = 32 nope\n"
      "mystery = 1\n");
  ASSERT_FALSE(parsed.ok);
  ASSERT_EQ(parsed.errors.size(), 2u);
  EXPECT_EQ(parsed.errors[0].line, 2);
  EXPECT_NE(parsed.errors[0].message.find("nope"), std::string::npos);
  EXPECT_EQ(parsed.errors[1].line, 3);
  // A campaign without any scenario axis is rejected.
  EXPECT_FALSE(parse_campaign_spec_string("widths = 32\n").ok);
}

TEST(CampaignSpec, MutatedCampaignsParseOrReportErrors) {
  // The shipped smoke campaign, mutated byte by byte from a fixed seed:
  // every mutant must come back parsed or with errors listed.
  std::ifstream in(VINOC_SOURCE_DIR "/examples/smoke.campaign");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  ASSERT_TRUE(parse_campaign_spec_string(text).ok);
  for (const test_support::Mutant& m :
       test_support::byte_mutations(text, /*seed=*/0xCA4, /*count=*/400)) {
    CampaignParseResult r;
    EXPECT_NO_THROW(r = parse_campaign_spec_string(m.text)) << m.label;
    EXPECT_EQ(r.ok, r.errors.empty()) << m.label;
  }
}

TEST(CampaignSpec, MutatedCampaignsExitTheCliWithDocumentedCodes) {
  // A prefix of the same mutant table through the real CLI, each run cut
  // off by a short --deadline: every mutant must end in a documented exit
  // code — never a runtime error (1) or a signal. Each run costs at most
  // about its deadline, so the 120-mutant prefix keeps the test near 15 s
  // in Release.
  namespace fs = std::filesystem;
  constexpr int kPrefix = 120;
  std::ifstream in(VINOC_SOURCE_DIR "/examples/smoke.campaign");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const fs::path dir = fs::path(testing::TempDir()) / "vinoc_campaign_cli_mutants";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "mutant.campaign").string();
  const std::vector<test_support::Mutant> mutants =
      test_support::byte_mutations(buffer.str(), /*seed=*/0xCA4, /*count=*/400);
  for (int i = 0; i < kPrefix; ++i) {
    const test_support::Mutant& m = mutants[static_cast<std::size_t>(i)];
    io::write_file(path, m.text);
    const int status = test_support::run_cli(
        {"campaign", path, "--threads", "1", "--deadline", "0.2", "--out",
         (dir / "out").string()});
    EXPECT_EQ(test_support::undocumented_exit(status), "") << m.label;
  }
  fs::remove_all(dir);
}

TEST(CampaignReport, RecordRoundTripsThroughJsonl) {
  JobRecord rec;
  rec.campaign = "unit";
  rec.job = "d16/logical/i2/w32";
  rec.scenario = "d16";
  rec.strategy = "logical";
  rec.islands = 2;
  rec.width = 32;
  rec.seed = 7;
  rec.key = 0xdeadbeefcafef00dull;
  rec.feasible = true;
  rec.cache_hit = true;
  rec.points = 9;
  rec.pareto_points = 3;
  rec.configs_explored = 90;
  rec.best_power_mw = 87.10779198662921;
  rec.best_leakage_mw = 1.86830427478423;
  rec.best_area_mm2 = 0.2984;
  rec.best_power_latency_cycles = 5.8125;
  rec.min_latency_cycles = 5.5;
  rec.wall_ms = 16.25;
  JobRecord back;
  ASSERT_TRUE(record_from_jsonl(record_to_jsonl(rec), back));
  EXPECT_EQ(back.campaign, rec.campaign);
  EXPECT_EQ(back.job, rec.job);
  EXPECT_EQ(back.key, rec.key);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_TRUE(back.feasible);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.points, rec.points);
  EXPECT_EQ(back.best_power_mw, rec.best_power_mw);  // %.17g round-trip
  EXPECT_EQ(back.wall_ms, rec.wall_ms);
  // Without timing the field is absent and parses as 0.
  ASSERT_TRUE(record_from_jsonl(record_to_jsonl(rec, false), back));
  EXPECT_EQ(back.wall_ms, 0.0);
  EXPECT_FALSE(record_from_jsonl("{not json", back));
}

TEST(CampaignEngine, JsonlIsByteIdenticalForAnyThreadCount) {
  const CampaignSpec spec = small_campaign();
  CampaignOptions opt1;
  opt1.threads = 1;
  const CampaignResult r1 = run_campaign(spec, opt1);
  ASSERT_EQ(r1.records.size(), 16u);
  EXPECT_EQ(r1.jobs_run(), 16);
  EXPECT_EQ(r1.cache_hits(), 0);
  for (const int threads : {2, 4}) {
    CampaignOptions optn;
    optn.threads = threads;
    const CampaignResult rn = run_campaign(spec, optn);
    // Byte-identical without the measured field...
    EXPECT_EQ(r1.to_jsonl(false), rn.to_jsonl(false)) << threads;
    // ...and wall_ms is the ONLY difference with it.
    for (std::size_t i = 0; i < rn.records.size(); ++i) {
      JobRecord a = r1.records[i];
      JobRecord b = rn.records[i];
      a.wall_ms = b.wall_ms = 0.0;
      EXPECT_EQ(record_to_jsonl(a), record_to_jsonl(b));
    }
  }
}

TEST(CampaignEngine, RecordsStreamInJobOrder) {
  const CampaignSpec spec = small_campaign();
  std::vector<std::string> streamed;
  CampaignOptions opt;
  opt.threads = 4;
  opt.on_record = [&streamed](const JobRecord& rec) {
    streamed.push_back(rec.job);
  };
  const CampaignResult result = run_campaign(spec, opt);
  ASSERT_EQ(streamed.size(), result.records.size());
  const std::vector<CampaignJob> jobs = expand_jobs(spec);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], jobs[i].name);
    EXPECT_EQ(result.records[i].job, jobs[i].name);
  }
}

TEST(CampaignEngine, SharedCacheMakesSecondRunAllHits) {
  const CampaignSpec spec = small_campaign();
  ResultCache cache;
  CampaignOptions opt;
  opt.threads = 2;
  opt.cache = &cache;
  const CampaignResult cold = run_campaign(spec, opt);
  EXPECT_EQ(cold.jobs_run(), 16);
  EXPECT_EQ(cold.cache_hits(), 0);
  const CampaignResult warm = run_campaign(spec, opt);
  EXPECT_EQ(warm.jobs_run(), 0);
  EXPECT_EQ(warm.cache_hits(), 16);
  // Hits carry the same payload (and flag themselves as hits).
  for (std::size_t i = 0; i < warm.records.size(); ++i) {
    EXPECT_TRUE(warm.records[i].cache_hit);
    EXPECT_EQ(warm.records[i].best_power_mw, cold.records[i].best_power_mw);
    EXPECT_EQ(warm.records[i].points, cold.records[i].points);
  }
}

TEST(CampaignEngine, ResumeRecomputesExactlyTheMissingJobs) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) / "vinoc_campaign_resume_test";
  fs::remove_all(dir);

  const CampaignSpec spec = small_campaign();
  CampaignOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.string();
  const CampaignResult cold = run_campaign(spec, opt);
  EXPECT_EQ(cold.jobs_run(), 16);

  // Drop every other line of the store, remembering which keys survive.
  const std::string store = (dir / "store.jsonl").string();
  std::vector<std::string> lines;
  {
    std::ifstream in(store);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 16u);
  std::vector<std::uint64_t> kept_keys;
  {
    std::ofstream out(store, std::ios::trunc);
    for (std::size_t i = 0; i < lines.size(); i += 2) {
      out << lines[i] << '\n';
      JobRecord rec;
      ASSERT_TRUE(record_from_jsonl(lines[i], rec));
      kept_keys.push_back(rec.key);
    }
  }

  CampaignOptions resume_opt;
  resume_opt.threads = 2;
  resume_opt.cache_dir = dir.string();
  resume_opt.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume_opt);
  EXPECT_EQ(resumed.jobs_run(), 8);
  EXPECT_EQ(resumed.cache_hits(), 8);
  // Exactly the surviving keys are hits, and payloads match the cold run.
  ASSERT_EQ(resumed.records.size(), cold.records.size());
  for (std::size_t i = 0; i < resumed.records.size(); ++i) {
    const JobRecord& rec = resumed.records[i];
    const bool kept = std::find(kept_keys.begin(), kept_keys.end(), rec.key) !=
                      kept_keys.end();
    EXPECT_EQ(rec.cache_hit, kept) << rec.job;
    EXPECT_EQ(rec.best_power_mw, cold.records[i].best_power_mw);
    EXPECT_EQ(rec.points, cold.records[i].points);
  }
  // The store is whole again: a further resume run computes nothing.
  const CampaignResult third = run_campaign(spec, resume_opt);
  EXPECT_EQ(third.jobs_run(), 0);
  EXPECT_EQ(third.cache_hits(), 16);
  fs::remove_all(dir);
}

TEST(CampaignEngine, RepeatedColdRunsDoNotDuplicateStoreLines) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) / "vinoc_campaign_store_growth_test";
  fs::remove_all(dir);
  CampaignSpec spec = small_campaign();
  spec.include = {"logical/i2"};  // 4 jobs is enough
  CampaignOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.string();
  (void)run_campaign(spec, opt);  // cold, fills the store
  (void)run_campaign(spec, opt);  // cold again (no --resume): recomputes...
  std::ifstream in((dir / "store.jsonl").string());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4u);  // ...but appends nothing for keys already stored
  fs::remove_all(dir);
}

TEST(CampaignEngine, StreamWritesJobOrderedJsonl) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(testing::TempDir()) / "vinoc_campaign_stream.jsonl";
  CampaignSpec spec = small_campaign();
  spec.include = {"logical"};
  std::FILE* stream = std::fopen(path.string().c_str(), "w");
  ASSERT_NE(stream, nullptr);
  CampaignOptions opt;
  opt.threads = 4;
  opt.stream = stream;
  opt.include_timing = false;
  const CampaignResult result = run_campaign(spec, opt);
  std::fclose(stream);
  std::ifstream in(path.string());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), result.to_jsonl(false));
  fs::remove(path);
}

TEST(CampaignEngine, InfeasibleWidthIsRecordedNotFatal) {
  CampaignSpec spec = small_campaign();
  spec.synthetic[0].perturbations = 0;
  spec.strategies = {"logical"};
  spec.island_counts = {2};
  spec.widths = {1, 32};  // 1-bit links cannot carry the hub flows
  const CampaignResult result = run_campaign(spec, {});
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_FALSE(result.records[0].feasible);
  EXPECT_EQ(result.records[0].points, 0);
  EXPECT_TRUE(result.records[1].feasible);
  EXPECT_EQ(result.infeasible(), 1);
}

TEST(CampaignEngine, SingletonJobsReportDeltaAndBufferCounters) {
  // One width: every job is alone in its structure group. The campaign's
  // delta counters must still sum every job's delta replay, and the
  // buffered-outcome high-water mark must be recorded.
  CampaignSpec spec = small_campaign();
  spec.widths = {32};
  CampaignOptions opt;
  opt.threads = 1;
  const CampaignResult result = run_campaign(spec, opt);
  const std::vector<CampaignJob> jobs = expand_jobs(spec);
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(result.jobs_run(), 8);
  EXPECT_EQ(result.structure_groups(), 0);
  EXPECT_EQ(result.structure_shared_jobs(), 0);
  long long candidates = 0;
  long long reused = 0;
  long long skipped = 0;
  for (const CampaignJob& job : jobs) {
    core::SynthesisOptions solo = job.options;
    solo.threads = 1;
    const core::SynthesisResult r = core::synthesize(job.spec, solo);
    candidates += r.stats.delta_candidates;
    reused += r.stats.delta_flows_reused;
    skipped += r.stats.delta_members_skipped;
  }
  EXPECT_GT(candidates, 0);
  EXPECT_EQ(result.delta_candidates(), candidates);
  EXPECT_EQ(result.delta_flows_reused(), reused);
  EXPECT_EQ(result.delta_members_skipped(), skipped);
  EXPECT_GE(result.peak_buffered_outcomes(), 1);
}

TEST(JsonlWriter, EscapesAndParsesRoundTrip) {
  io::JsonlWriter w;
  w.field("text", "a \"quote\"\nnewline\ttab\\slash")
      .field("num", 1.5)
      .field("neg", std::int64_t{-3})
      .field("flag", true);
  std::map<std::string, std::string> obj;
  ASSERT_TRUE(io::parse_jsonl_object(w.line(), obj));
  EXPECT_EQ(obj["text"], "a \"quote\"\nnewline\ttab\\slash");
  EXPECT_EQ(obj["num"], "1.5");
  EXPECT_EQ(obj["neg"], "-3");
  EXPECT_EQ(obj["flag"], "true");
  EXPECT_FALSE(io::parse_jsonl_object("{\"a\":{\"nested\":1}}", obj));
  EXPECT_FALSE(io::parse_jsonl_object("[1,2]", obj));
  EXPECT_TRUE(io::parse_jsonl_object("{}", obj));
  EXPECT_TRUE(obj.empty());
}

}  // namespace
TEST(CampaignEngine, WidthGroupsShareStructuresAcrossJobs) {
  // Jobs differing only in link_width_bits group under the width-excluded
  // content hash and are synthesized together; each job's cached result
  // must still be bit-identical to a solo synthesize() of that job.
  CampaignSpec spec = small_campaign();
  spec.island_counts = {3};
  spec.strategies = {"logical"};
  spec.widths = {32, 64, 128};  // one structure group of three widths
  ResultCache cache;
  CampaignOptions opt;
  opt.threads = 2;
  opt.cache = &cache;
  const CampaignResult result = run_campaign(spec, opt);
  const std::vector<CampaignJob> jobs = expand_jobs(spec);
  ASSERT_EQ(jobs.size(), 6u);  // 2 scenarios x 3 widths
  EXPECT_EQ(result.jobs_run(), 6);
  EXPECT_EQ(result.structure_groups(), 2);
  EXPECT_EQ(result.structure_shared_jobs(), 6);
  for (const CampaignJob& job : jobs) {
    // Same structure key within a scenario, regardless of width...
    core::SynthesisOptions at32 = job.options;
    at32.link_width_bits = 32;
    EXPECT_EQ(structure_key(job.spec, job.options),
              structure_key(job.spec, at32));
    // ...and a bit-identical result versus the classic per-job path.
    const auto shared = cache.find_result(job.key);
    ASSERT_NE(shared, nullptr) << job.name;
    const core::SynthesisResult solo = core::synthesize(job.spec, job.options);
    EXPECT_EQ(result_fingerprint(*shared), result_fingerprint(solo)) << job.name;
  }
  // A warm re-run serves everything from the cache and forms no groups.
  const CampaignResult warm = run_campaign(spec, opt);
  EXPECT_EQ(warm.cache_hits(), 6);
  EXPECT_EQ(warm.structure_groups(), 0);
  EXPECT_EQ(warm.structure_shared_jobs(), 0);
}

TEST(CampaignEngine, ResumeSummarySerializationIsCanonical) {
  // CampaignResult::metrics is the single source of the CLI's
  // resume_summary line (io::registry_record with an empty record name).
  // Scripts and the CI resume assertion grep the line's PREFIX, so the
  // field order is a contract: new counters must register AFTER the
  // existing ones in engine.cpp. This test is that contract — it replaces
  // the old "new fields append after the ones above" comment that used to
  // sit beside a hand-maintained field list in the CLI.
  CampaignSpec spec = small_campaign();
  spec.strategies = {"logical"};
  spec.island_counts = {2};
  spec.widths = {32};
  ResultCache cache;
  CampaignOptions opt;
  opt.threads = 2;
  opt.cache = &cache;
  const CampaignResult cold = run_campaign(spec, opt);

  const std::string line = io::registry_record("", cold.metrics);
  // Exact prefix shape (the machine-readable contract; no "record" field).
  EXPECT_EQ(line.rfind("{\"run\":2,\"cache_hits\":0,\"infeasible\":0,"
                       "\"total\":2,",
                       0),
            0u)
      << line;
  // Full canonical order, counters then the derived gauge last.
  const char* const kCanonical[] = {
      "run",
      "cache_hits",
      "infeasible",
      "total",
      "structure_groups",
      "structure_shared_jobs",
      "peak_buffered_outcomes",
      "delta_candidates",
      "delta_flows_reused",
      "delta_flows_rerouted",
      "retries",
      "job_timeouts",
      "quarantined_jobs",
      "skipped_jobs",
      "recovered_records",
      "evicted_records",
      "store_write_errors",
      "interrupted",
      "delta_members_skipped",
      "delta_reuse_rate",
  };
  std::size_t pos = 0;
  for (const char* name : kCanonical) {
    const std::string needle = std::string("\"") + name + "\":";
    const std::size_t at = line.find(needle, pos);
    ASSERT_NE(at, std::string::npos) << name << " missing/out of order in\n"
                                     << line;
    pos = at + needle.size();
  }

  // The warm line reproduces the CI resume grep's shape.
  const CampaignResult warm = run_campaign(spec, opt);
  EXPECT_EQ(io::registry_record("", warm.metrics)
                .rfind("{\"run\":0,\"cache_hits\":2,", 0),
            0u);
}

TEST(SpecHash, WidthExcludedHashIgnoresExactlyTheWidth) {
  const CampaignSpec spec = small_campaign();
  const std::vector<CampaignJob> jobs = expand_jobs(spec);
  ASSERT_GE(jobs.size(), 2u);
  for (const CampaignJob& a : jobs) {
    for (const CampaignJob& b : jobs) {
      const bool same_but_width =
          hash_soc_spec(a.spec) == hash_soc_spec(b.spec);
      if (same_but_width) {
        EXPECT_EQ(structure_key(a.spec, a.options),
                  structure_key(b.spec, b.options));
      }
      if (a.key == b.key) continue;
      // Full keys still tell widths apart.
      if (same_but_width && a.width != b.width) {
        EXPECT_NE(hash_synthesis_options(a.options),
                  hash_synthesis_options(b.options));
        EXPECT_EQ(hash_synthesis_options_width_excluded(a.options),
                  hash_synthesis_options_width_excluded(b.options));
      }
    }
  }
  // Non-width option changes DO re-key the structure group.
  core::SynthesisOptions base = jobs.front().options;
  core::SynthesisOptions other = base;
  other.alpha = base.alpha * 0.5;
  EXPECT_NE(hash_synthesis_options_width_excluded(base),
            hash_synthesis_options_width_excluded(other));
}

}  // namespace vinoc::campaign
