// Durable store v2: checksummed lines, recovery-on-open (torn tails,
// corrupt lines, v1 upgrades, duplicate keys), the size-cap eviction
// policy, and --resume convergence after a simulated mid-append kill.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/io/jsonl.hpp"

namespace vinoc::campaign {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// A synthetic record keyed by `i`; content is irrelevant, identity is not.
JobRecord fake_record(int i) {
  JobRecord rec;
  rec.campaign = "store_test";
  rec.job = "job" + std::to_string(i);
  rec.key = 0x1000 + static_cast<std::uint64_t>(i);
  rec.feasible = true;
  rec.points = i;
  return rec;
}

std::vector<std::string> store_lines(const ResultCache& cache) {
  std::ifstream in(cache.store_path());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Tiny fast matrix (one synthetic scenario, 4 jobs).
CampaignSpec tiny_campaign() {
  CampaignSpec spec;
  spec.name = "recovery";
  SyntheticScenario family;
  family.params.cores = 9;
  family.params.hubs = 2;
  spec.synthetic.push_back(family);
  spec.strategies = {"logical"};
  spec.island_counts = {2, 3};
  spec.widths = {32, 64};
  return spec;
}

TEST(StoreRecovery, EveryStoreLineCarriesAValidChecksum) {
  const fs::path dir = fresh_dir("vinoc_store_v2_test");
  ResultCache cache(dir.string());
  for (int i = 0; i < 5; ++i) cache.put_record(fake_record(i));
  const std::vector<std::string> lines = store_lines(cache);
  ASSERT_EQ(lines.size(), 5u);
  for (const std::string& line : lines) {
    std::string payload;
    EXPECT_EQ(io::verify_line_checksum(line, &payload), io::ChecksumStatus::kOk);
    JobRecord rec;
    EXPECT_TRUE(record_from_jsonl(payload, rec));
  }
  fs::remove_all(dir);
}

TEST(StoreRecovery, TornTailIsQuarantinedAndStoreRepublished) {
  const fs::path dir = fresh_dir("vinoc_store_torn_test");
  {
    ResultCache cache(dir.string());
    for (int i = 0; i < 4; ++i) cache.put_record(fake_record(i));
  }
  // Simulate a SIGKILL mid-append: chop the file mid-final-line.
  const fs::path store = dir / "store.jsonl";
  const auto full = fs::file_size(store);
  fs::resize_file(store, full - 10);

  ResultCache cache(dir.string());
  const StoreRecoveryStats stats = cache.load_store();
  EXPECT_EQ(stats.loaded, 3u);     // the three intact records
  EXPECT_EQ(stats.recovered, 1u);  // exactly the torn one
  EXPECT_TRUE(stats.rewritten);
  EXPECT_EQ(cache.recovered_records(), 1u);
  EXPECT_TRUE(fs::exists(cache.quarantine_path()));

  // The republished store is clean: a second open recovers nothing.
  ResultCache again(dir.string());
  const StoreRecoveryStats clean = again.load_store();
  EXPECT_EQ(clean.loaded, 3u);
  EXPECT_EQ(clean.recovered, 0u);
  EXPECT_FALSE(clean.rewritten);

  // The dangerous case the rewrite prevents: append after the torn tail.
  // The new record must land on its own line, not concatenate.
  cache.put_record(fake_record(9));
  for (const std::string& line : store_lines(cache)) {
    EXPECT_EQ(io::verify_line_checksum(line, nullptr),
              io::ChecksumStatus::kOk);
  }
  fs::remove_all(dir);
}

TEST(StoreRecovery, CorruptMiddleLineQuarantinedOthersSurvive) {
  const fs::path dir = fresh_dir("vinoc_store_corrupt_test");
  {
    ResultCache cache(dir.string());
    for (int i = 0; i < 4; ++i) cache.put_record(fake_record(i));
  }
  const fs::path store = dir / "store.jsonl";
  std::string text;
  {
    std::ifstream in(store, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const std::size_t second_line = text.find('\n') + 1;
  text[second_line + 8] ^= 0x20;  // flip a byte inside line 2
  {
    std::ofstream out(store, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ResultCache cache(dir.string());
  const StoreRecoveryStats stats = cache.load_store();
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_TRUE(stats.rewritten);
  EXPECT_FALSE(cache.find_record(fake_record(1).key).has_value());
  EXPECT_TRUE(cache.find_record(fake_record(0).key).has_value());
  EXPECT_TRUE(cache.find_record(fake_record(3).key).has_value());
  fs::remove_all(dir);
}

TEST(StoreRecovery, ChecksumlessV1LinesAreUpgradedInPlace) {
  const fs::path dir = fresh_dir("vinoc_store_v1_test");
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "store.jsonl");
    for (int i = 0; i < 3; ++i) {
      out << record_to_jsonl(fake_record(i)) << '\n';  // v1: no _crc
    }
  }
  ResultCache cache(dir.string());
  const StoreRecoveryStats stats = cache.load_store();
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.recovered, 0u);  // v1 lines are valid, just unstamped
  EXPECT_TRUE(stats.rewritten);    // ...so the store was republished as v2
  for (const std::string& line : store_lines(cache)) {
    EXPECT_EQ(io::verify_line_checksum(line, nullptr),
              io::ChecksumStatus::kOk);
  }
  fs::remove_all(dir);
}

TEST(StoreRecovery, SizeCapEvictsOldestFirst) {
  const fs::path dir = fresh_dir("vinoc_store_cap_test");
  ResultCache cache(dir.string());
  const std::string one_line = io::add_line_checksum(
      record_to_jsonl(fake_record(0)));
  // Room for roughly three records.
  cache.set_store_max_bytes(3 * (one_line.size() + 1) + 8);
  for (int i = 0; i < 8; ++i) cache.put_record(fake_record(i));
  EXPECT_GT(cache.evicted_records(), 0u);
  EXPECT_LE(fs::file_size(cache.store_path()), 3 * (one_line.size() + 1) + 8);

  // Newest record survives on disk; evicted ones stay served from memory.
  ResultCache reopened(dir.string());
  (void)reopened.load_store();
  EXPECT_TRUE(reopened.find_record(fake_record(7).key).has_value());
  EXPECT_FALSE(reopened.find_record(fake_record(0).key).has_value());
  EXPECT_TRUE(cache.find_record(fake_record(0).key).has_value());
  fs::remove_all(dir);
}

/// Keys of the records on disk, in store order (0 for a line that does not
/// verify and parse).
std::vector<std::uint64_t> store_keys(const ResultCache& cache) {
  std::vector<std::uint64_t> keys;
  for (const std::string& line : store_lines(cache)) {
    std::string payload;
    JobRecord rec;
    const bool ok = io::verify_line_checksum(line, &payload) == io::ChecksumStatus::kOk &&
                    record_from_jsonl(payload, rec);
    keys.push_back(ok ? rec.key : 0);
  }
  return keys;
}

TEST(StoreRecovery, CappedStoreLoadedThenAppendedKeepsNewestRecords) {
  // A cap weighs each record by its canonical line (checksummed JSON plus
  // newline), not by the bytes it had on disk: the store holds records of
  // different lengths and one v1 line without a checksum. The cap is set
  // before the load in one pass (the load evicts) and after it in the other
  // (the first append evicts); both keep the same newest records.
  const fs::path dir = fresh_dir("vinoc_store_cap_append_test");
  fs::create_directories(dir);
  std::string text;
  for (int i = 0; i < 12; ++i) {
    const std::string line = record_to_jsonl(fake_record(i * 7));
    text += (i == 9 ? line : io::add_line_checksum(line)) + '\n';
  }
  const std::uint64_t cap =
      5 * (io::add_line_checksum(record_to_jsonl(fake_record(70))).size() + 1);
  for (const bool cap_first : {true, false}) {
    {
      std::ofstream out(dir / "store.jsonl", std::ios::binary | std::ios::trunc);
      out << text;
    }
    ResultCache cache(dir.string());
    if (cap_first) cache.set_store_max_bytes(cap);
    const StoreRecoveryStats stats = cache.load_store();
    EXPECT_EQ(stats.loaded, 12u);
    EXPECT_TRUE(stats.rewritten);
    EXPECT_EQ(stats.evicted, cap_first ? 7u : 0u);
    if (!cap_first) cache.set_store_max_bytes(cap);
    for (int i = 12; i < 15; ++i) cache.put_record(fake_record(i * 7));
    EXPECT_EQ(cache.evicted_records(), 10u) << "cap first: " << cap_first;
    EXPECT_EQ(store_keys(cache),
              (std::vector<std::uint64_t>{0x1046, 0x104d, 0x1054, 0x105b, 0x1062}))
        << "cap first: " << cap_first;
    EXPECT_LE(fs::file_size(cache.store_path()), cap);
  }

  // Four records of one length, the second a v1 line: on disk they sum to
  // less than the cap, their canonical lines to more, so the load evicts.
  const std::uint64_t line_bytes =
      io::add_line_checksum(record_to_jsonl(fake_record(10))).size() + 1;
  {
    std::ofstream out(dir / "store.jsonl", std::ios::binary | std::ios::trunc);
    for (int i = 10; i < 14; ++i) {
      const std::string line = record_to_jsonl(fake_record(i));
      out << (i == 11 ? line : io::add_line_checksum(line)) << '\n';
    }
  }
  ASSERT_LT(fs::file_size(dir / "store.jsonl"), 4 * line_bytes - 10);
  ResultCache cache(dir.string());
  cache.set_store_max_bytes(4 * line_bytes - 10);
  EXPECT_EQ(cache.load_store().evicted, 1u);
  EXPECT_EQ(store_keys(cache), (std::vector<std::uint64_t>{0x100b, 0x100c, 0x100d}));
  fs::remove_all(dir);
}

TEST(StoreRecovery, EvictionThenTornTailRecoversCleanly) {
  // The crash-after-eviction composition: a size-capped store that has
  // already evicted records loses the tail of its final line (power cut
  // mid-append), and the next open must recover without touching the
  // surviving capped records.
  const fs::path dir = fresh_dir("vinoc_store_cap_torn_test");
  const std::string one_line =
      io::add_line_checksum(record_to_jsonl(fake_record(0)));
  {
    ResultCache cache(dir.string());
    cache.set_store_max_bytes(4 * (one_line.size() + 1) + 8);
    for (int i = 0; i < 10; ++i) cache.put_record(fake_record(i));
    ASSERT_GT(cache.evicted_records(), 0u);
  }
  fs::resize_file(dir / "store.jsonl", fs::file_size(dir / "store.jsonl") - 5);

  ResultCache reopened(dir.string());
  const StoreRecoveryStats stats = reopened.load_store();
  EXPECT_EQ(stats.recovered, 1u);  // the torn final record
  EXPECT_TRUE(stats.rewritten);
  EXPECT_EQ(stats.loaded, 3u);  // the other records the cap had kept
  EXPECT_FALSE(reopened.find_record(fake_record(9).key).has_value());
  EXPECT_TRUE(reopened.find_record(fake_record(8).key).has_value());
  // The republished store is fully healthy again...
  for (const std::string& line : store_lines(reopened)) {
    EXPECT_EQ(io::verify_line_checksum(line, nullptr),
              io::ChecksumStatus::kOk);
  }
  // ...and the torn bytes sit in the quarantine ledger, themselves inside a
  // checksummed envelope.
  std::ifstream qin(dir / "store.quarantine.jsonl");
  std::string qline;
  ASSERT_TRUE(std::getline(qin, qline));
  EXPECT_EQ(io::verify_line_checksum(qline, nullptr), io::ChecksumStatus::kOk);
  EXPECT_NE(qline.find("store recovery"), std::string::npos);
  fs::remove_all(dir);
}

TEST(StoreRecovery, DuplicateKeysOnDiskCollapseToOne) {
  const fs::path dir = fresh_dir("vinoc_store_dup_test");
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "store.jsonl");
    const std::string line =
        io::add_line_checksum(record_to_jsonl(fake_record(1)));
    out << line << '\n' << line << '\n';
  }
  ResultCache cache(dir.string());
  const StoreRecoveryStats stats = cache.load_store();
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_TRUE(stats.rewritten);
  EXPECT_EQ(store_lines(cache).size(), 1u);
  fs::remove_all(dir);
}

TEST(StoreRecovery, ResumeAfterTornTailConvergesToReferenceStream) {
  const fs::path ref_dir = fresh_dir("vinoc_store_ref_run");
  const CampaignSpec spec = tiny_campaign();

  CampaignOptions opt;
  opt.threads = 1;
  opt.include_timing = false;
  opt.cache_dir = ref_dir.string();
  const CampaignResult reference = run_campaign(spec, opt);
  ASSERT_EQ(reference.jobs_total(), 4);

  // Tear the final record off a copy of the healthy store, then resume.
  const fs::path dir = fresh_dir("vinoc_store_resume_run");
  fs::create_directories(dir);
  fs::copy_file(ref_dir / "store.jsonl", dir / "store.jsonl");
  fs::resize_file(dir / "store.jsonl",
                  fs::file_size(dir / "store.jsonl") - 7);

  CampaignOptions ropt = opt;
  ropt.cache_dir = dir.string();
  ropt.resume = true;
  const CampaignResult resumed = run_campaign(spec, ropt);
  EXPECT_EQ(resumed.recovered_records(), 1);
  EXPECT_EQ(resumed.cache_hits(), 3);   // the intact records served
  EXPECT_EQ(resumed.jobs_run(), 1);     // exactly the torn one recomputed

  // Bit-identical convergence, modulo the cache_hit flag.
  auto normalized = [](const CampaignResult& r) {
    std::string out;
    for (JobRecord rec : r.records) {
      rec.cache_hit = false;
      out += record_to_jsonl(rec, false);
      out += '\n';
    }
    return out;
  };
  EXPECT_EQ(normalized(reference), normalized(resumed));
  fs::remove_all(ref_dir);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vinoc::campaign
