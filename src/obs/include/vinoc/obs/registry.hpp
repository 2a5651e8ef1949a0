// vinoc::obs — typed metrics registry with deterministic shard merging.
//
// The registry is the single source of truth for the pipeline's counters:
// SynthesisStats, WidthSetStats and CampaignResult aggregation are derived
// FROM it (not maintained beside it), and every CLI summary line / --json
// record serializes it through one path (io/obs_writers.hpp), so a counter
// can no longer drift between the struct, the human line and the JSON
// record.
//
// Determinism contract: shard-mergeable values are restricted to int64
// counters combined with commutative, associative ops (kSum, kMax). A
// merged export is therefore byte-identical whether the run used 1 thread
// or N (test_obs locks this in). Floating-point values exist only as
// *derived gauges* computed once at serialization time (e.g. a reuse
// rate), never accumulated across shards — summing doubles in
// thread-arrival order would break the byte-identity guarantee.
//
// Histograms are log2-bucketed int64 samples (bucket = bit-width of the
// value); bucket counts sum-merge, so they inherit the same determinism.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace vinoc::obs {

enum class MergeOp : std::uint8_t {
  kSum,  ///< counters: totals across shards
  kMax,  ///< high-water marks (e.g. peak buffered outcomes)
};

/// Log2-bucketed histogram of non-negative int64 samples. Bucket i counts
/// samples whose bit-width is i (bucket 0 = value 0, bucket 1 = value 1,
/// bucket 2 = 2..3, ...). All fields sum/max-merge deterministically.
struct Histogram {
  static constexpr int kBuckets = 64;
  std::vector<std::int64_t> buckets;  ///< sized kBuckets on first observe
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;

  void observe(std::int64_t value);
  void merge_from(const Histogram& other);
};

/// An ordered collection of named metrics. Not thread-safe by itself —
/// wrap in ShardedRegistry for concurrent accumulation.
class Registry {
 public:
  struct Entry {
    std::string name;
    MergeOp op = MergeOp::kSum;
    std::int64_t value = 0;
  };

  /// Accumulates `delta` into counter `name` (registering it on first use).
  /// `op` is fixed at first registration; later calls must agree.
  void add(std::string_view name, std::int64_t delta, MergeOp op = MergeOp::kSum);

  /// max-merge convenience: counter `name` becomes max(current, value).
  void record_max(std::string_view name, std::int64_t value);

  /// Value of counter `name`, or 0 if it was never registered.
  [[nodiscard]] std::int64_t value(std::string_view name) const;

  /// Histogram sample (registers the histogram on first use).
  void observe(std::string_view name, std::int64_t value);
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  /// Derived double gauge, set once at serialization time. NOT shard-merged
  /// (merge_from ignores gauges by design — see file comment).
  void set_gauge(std::string_view name, double value);
  [[nodiscard]] double gauge(std::string_view name) const;  ///< 0.0 if absent

  /// Merges another registry's counters and histograms into this one using
  /// each entry's MergeOp. Unknown names register in `other`'s order.
  void merge_from(const Registry& other);

  /// Counters in registration order.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// Gauge names in registration order (values via gauge()).
  [[nodiscard]] const std::vector<std::string>& gauge_names() const {
    return gauge_names_;
  }
  /// Histogram names in registration order (data via histogram()).
  [[nodiscard]] const std::vector<std::string>& histogram_names() const {
    return histogram_names_;
  }

  /// Re-orders counters, gauges and histograms by name. A name-sorted
  /// registry serializes identically however its shards were discovered —
  /// ShardedRegistry::merged() applies this before returning.
  void sort_by_name();

 private:
  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<std::string> gauge_names_;
  std::unordered_map<std::string, double> gauges_;
  std::vector<std::string> histogram_names_;
  std::unordered_map<std::string, Histogram> histograms_;
};

/// Per-thread Registry shards with a deterministic merge. Mirrors
/// exec::WorkerLocal's thread-id slot map, but lives here because obs must
/// stay a leaf module (exec's pool hooks call INTO obs; a dependency the
/// other way would be a cycle). Slots are never evicted while the sharded
/// registry lives, so `local()` references stay valid across pool joins.
class ShardedRegistry {
 public:
  /// The calling thread's private shard (no lock after first call per
  /// thread is NOT guaranteed — each call takes the map mutex briefly;
  /// cache the reference across a hot loop).
  [[nodiscard]] Registry& local();

  /// Merges every shard into one name-sorted registry. Because all merge
  /// ops are commutative and associative over int64, the result is
  /// identical for any shard count and discovery order.
  [[nodiscard]] Registry merged() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::thread::id, std::unique_ptr<Registry>> shards_;
};

}  // namespace vinoc::obs
