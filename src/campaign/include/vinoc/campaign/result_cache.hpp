// Content-hash result cache — the layer that makes campaigns incremental.
//
// Two tiers, both keyed by the canonical job key (spec_hash.hpp):
//
//  * FULL RESULTS, in-memory: shared_ptr<const SynthesisResult>. A hit
//    hands back the very object computed before, so it is bit-identical by
//    construction. This is what makes a re-run inside one process (bench
//    loops, repeated run_campaign calls against a shared cache) ~free.
//  * SUMMARY RECORDS, in-memory + optional on-disk JSONL store
//    (<dir>/store.jsonl, one record_to_jsonl line per computed job). The
//    store is append-only and content-addressed, so it survives across
//    processes, can be shared by different campaigns over the same jobs,
//    and is surgically editable: delete any subset of lines and a --resume
//    run recomputes exactly those keys.
//
// DURABILITY (store v2): every store line carries a trailing `_crc` field —
// FNV-1a of the record text (io::add_line_checksum) — and load_store() is a
// recovery pass, not a blind reader. Corrupt, torn or truncated lines (the
// signature of a SIGKILL mid-append) are moved to <dir>/store.quarantine.jsonl
// and counted in recovered_records; checksum-less v1 lines that still parse
// are upgraded in place; the cleaned store is republished atomically
// (temp + rename), so the dangerous append-after-torn-tail case — where a
// new record would concatenate onto a half-written line and corrupt BOTH —
// cannot occur. An optional size cap evicts oldest-first. Store writes
// never throw: after repeated append failures the cache degrades to its
// memory tiers and keeps the campaign running (counted in
// store_write_errors).
//
// Thread-safe: all operations take an internal mutex (the engine calls them
// from pool workers).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "vinoc/campaign/report.hpp"
#include "vinoc/core/synthesis.hpp"

namespace vinoc::campaign {

/// What load_store()'s recovery pass found/did.
struct StoreRecoveryStats {
  std::size_t loaded = 0;     ///< records loaded into the memory tier
  std::size_t recovered = 0;  ///< corrupt/torn lines quarantined
  std::size_t evicted = 0;    ///< good records dropped by the size cap
  bool rewritten = false;     ///< store was republished (atomic rewrite)
};

class ResultCache {
 public:
  /// Memory-only cache.
  ResultCache() = default;
  /// Cache with an on-disk store under `dir` (created if missing).
  /// `store_file` names the store inside `dir` — the default is the
  /// canonical single-process store; sharded campaign workers pass
  /// "store-<k>.jsonl" so N processes never append to one file. The store
  /// is NOT loaded implicitly — call load_store() (the engine does so for
  /// --resume runs).
  explicit ResultCache(std::string dir, std::string store_file = "store.jsonl");

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // --- Full results (in-memory tier) ---------------------------------------

  [[nodiscard]] std::shared_ptr<const core::SynthesisResult> find_result(
      std::uint64_t key) const;
  void put_result(std::uint64_t key,
                  std::shared_ptr<const core::SynthesisResult> result);

  // --- Summary records (disk-backed tier) ----------------------------------

  [[nodiscard]] std::optional<JobRecord> find_record(std::uint64_t key) const;
  /// Inserts (first writer wins) and, when a store dir is set, appends the
  /// checksummed line to store.jsonl immediately (flushed per record, so a
  /// killed run loses at most the in-flight job). Never throws on store
  /// I/O: failures count into store_write_errors() and the record stays
  /// served from memory.
  void put_record(const JobRecord& record);
  /// Recovery-on-open (see file header): loads good records, quarantines
  /// bad lines, upgrades v1 lines, enforces the size cap, republishes the
  /// cleaned store atomically. Missing file = empty stats, not an error.
  StoreRecoveryStats load_store();
  /// Loads records from ANOTHER store file (e.g. the canonical store.jsonl
  /// while this cache appends to a shard store) into the memory record tier
  /// only: they serve --resume hits but are never rewritten, evicted or
  /// re-appended into this cache's own store. Lines that fail their
  /// checksum or do not parse are skipped (the file's owner quarantines
  /// them on ITS next recovery pass — this reader does not own it).
  /// Returns the number of records loaded; a missing file loads zero.
  std::size_t load_side_store(const std::string& path);

  /// On-disk size cap for store.jsonl, bytes; 0 (default) = unlimited.
  /// Enforced at load_store() and after every append, evicting OLDEST
  /// records first (evicted records stay in the memory tier; a later
  /// --resume in a fresh process recomputes them).
  void set_store_max_bytes(std::uint64_t max_bytes);

  [[nodiscard]] std::string dir() const { return dir_; }  ///< "" memory-only
  [[nodiscard]] std::string store_path() const;  ///< "" when memory-only
  /// Quarantine file for lines rejected by recovery ("" when memory-only).
  [[nodiscard]] std::string quarantine_path() const;

  // Cumulative robustness counters (across every load_store()/put_record on
  // this instance); the engine folds them into the campaign metrics.
  [[nodiscard]] std::uint64_t recovered_records() const;
  [[nodiscard]] std::uint64_t evicted_records() const;
  [[nodiscard]] std::uint64_t store_write_errors() const;

 private:
  std::string record_line(const JobRecord& record) const;
  /// store_bytes_, summed over store_order_ first when it is not known.
  std::uint64_t store_bytes_locked();
  void rewrite_store_locked(const std::vector<std::uint64_t>& keys);
  void evict_to_cap_locked();

  mutable std::mutex mutex_;
  std::string dir_;
  std::string store_file_ = "store.jsonl";
  std::unordered_map<std::uint64_t, std::shared_ptr<const core::SynthesisResult>>
      results_;
  std::unordered_map<std::uint64_t, JobRecord> records_;
  /// Append/identity order of the keys currently ON DISK — what eviction
  /// and compaction replay (records_ alone has no order).
  std::vector<std::uint64_t> store_order_;
  /// Canonical size (record_line + '\n') of the lines on disk; unknown
  /// after a load until a size cap needs it.
  std::optional<std::uint64_t> store_bytes_ = 0;
  std::uint64_t store_max_bytes_ = 0;
  std::uint64_t recovered_records_ = 0;
  std::uint64_t evicted_records_ = 0;
  std::uint64_t store_write_errors_ = 0;
  bool degraded_ = false;
};

}  // namespace vinoc::campaign
