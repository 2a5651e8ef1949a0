// Campaign engine: runs an expanded job matrix over the shared exec pool,
// consults the result cache, and streams job-ordered JSONL records.
//
// Scheduling: jobs are grouped by their WIDTH-EXCLUDED content hash
// (spec_hash.hpp structure_key) — jobs that differ only in link_width_bits
// share every width-invariant input, so each group is synthesized together
// through core::synthesize_width_set (partitions, floorplan and candidate
// structures computed once per group, not once per width). Groups fan out
// with exec::parallel_for_each (the caller participates as a strand) and
// every group's candidate sweep fans out over the SAME pool — nested
// parallelism. The nested fan-outs queue at the front (exec's fairness
// hint), so in-flight groups finish before queued ones start and the
// job-ordered stream keeps flowing.
//
// Determinism: jobs are independent and synthesize() is bit-identical for
// every thread count, records are merged/streamed in job order, and the
// cache is consulted per job by content key — so a campaign's record stream
// is byte-identical for any `threads` given the same starting cache state
// (modulo the measured wall_ms field; see report.hpp).
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/exec/cancel.hpp"
#include "vinoc/obs/registry.hpp"

namespace vinoc::campaign {

struct CampaignOptions {
  /// Job + candidate parallelism, one shared pool: 0 = hardware
  /// concurrency, N = exactly N (results identical for every value).
  int threads = 0;
  /// Non-empty: enable the on-disk store under this directory (ignored when
  /// `cache` is provided).
  std::string cache_dir;
  /// Load the store first and serve matching jobs from it (marked
  /// cache_hit) instead of recomputing.
  bool resume = false;
  /// Include the measured wall_ms field in streamed/returned records; turn
  /// off for byte-exact diffing between runs.
  bool include_timing = true;
  /// External cache to consult/fill (shared across run_campaign calls);
  /// nullptr = the engine creates its own from cache_dir.
  ResultCache* cache = nullptr;
  /// Streaming report: one record_to_jsonl line appended per finished job,
  /// in job order, flushed per line. nullptr = no stream.
  std::FILE* stream = nullptr;
  /// Job-order record callback (progress displays). Called with an internal
  /// mutex held — keep it cheap, and do not call back into the engine.
  std::function<void(const JobRecord&)> on_record;

  // --- Supervision (crash-safe campaigns) -----------------------------------

  /// Per-job wall-clock timeout, seconds; 0 = none. A job (or width group —
  /// the timeout covers one synthesis call) that runs past it is abandoned
  /// at the next cancellation poll and quarantined with status "timeout"
  /// (timeouts are not retried: the same work would time out again).
  double job_timeout_s = 0.0;
  /// Retry attempts beyond the first try for TRANSIENT failures (I/O
  /// errors, injected faults — any std::exception that is not a spec/option
  /// error). A job that still fails is quarantined with status "failed".
  int max_retries = 2;
  /// Base retry backoff, milliseconds: attempt k sleeps
  /// backoff * 2^k * jitter(seeded), capped at 5 s.
  double retry_backoff_ms = 100.0;
  /// Seed for the deterministic backoff jitter.
  std::uint64_t retry_jitter_seed = 1;
  /// Whole-campaign budget, seconds; 0 = none. Once exceeded, jobs that
  /// have not started are emitted with status "skipped" (cache hits still
  /// serve — they are free) and the campaign completes with what finished.
  double deadline_s = 0.0;
  /// External interrupt (the CLI's SIGINT/SIGTERM token). In-flight jobs
  /// abandon at the next poll, finished work stays flushed, and the result
  /// reports interrupted().
  const exec::CancelToken* cancel = nullptr;
  /// On-disk store size cap, bytes (ResultCache::set_store_max_bytes);
  /// 0 = unlimited. Applied to the engine-owned cache only — an external
  /// `cache` keeps whatever policy its owner set.
  std::uint64_t store_max_bytes = 0;

  // --- Sharded execution (campaign-worker) ----------------------------------

  /// When non-null, only expanded jobs whose content key appears in this
  /// list run; the rest are dropped from the matrix entirely (no record,
  /// no "skipped" — they belong to another shard). Keys that match no
  /// expanded job are ignored. This is how a campaign-worker process owns
  /// exactly its shard of the matrix while sharing all expansion logic.
  const std::vector<std::uint64_t>* job_keys = nullptr;
  /// Called right before a job starts COMPUTING (not for cache hits; every
  /// member of a width group is announced when the group starts). Workers
  /// heartbeat the in-flight key to the supervisor through this, so a
  /// crash can be attributed to the job that was running. Called from pool
  /// strands — must be thread-safe and cheap.
  std::function<void(const CampaignJob&)> on_job_start;
  /// Name of the failed-job quarantine ledger inside the cache dir.
  /// Workers use "failed-<k>.jsonl" so shards never interleave appends.
  std::string failed_file = "failed.jsonl";
};

struct CampaignResult {
  std::vector<JobRecord> records;  ///< job order
  ExpandStats expand;

  /// The single source of truth for every campaign counter, accumulated in
  /// per-worker obs registry shards and merged deterministically after the
  /// pool joins. Counters are registered in the CANONICAL resume_summary
  /// field order (test_campaign locks the serialization in), so
  /// io::registry_record emits the CLI's resume_summary line and --json
  /// record directly — there is no hand-maintained duplicate field list to
  /// drift. The accessors below are thin views for programmatic use:
  ///
  ///   run                    jobs actually synthesized this run
  ///   cache_hits, infeasible, total
  ///   structure_groups       width-sharing groups computed this run (two+
  ///                          jobs differing only in link_width_bits,
  ///                          synthesized together via synthesize_width_set)
  ///   structure_shared_jobs  jobs those groups covered
  ///   peak_buffered_outcomes streaming-merge high-water mark (MAX over
  ///                          groups — a memory bound, not a sum)
  ///   delta_*                candidate-level delta evaluation sums
  obs::Registry metrics;
  double wall_s = 0.0;  ///< whole-campaign wall time

  [[nodiscard]] int jobs_total() const {
    return static_cast<int>(metrics.value("total"));
  }
  [[nodiscard]] int jobs_run() const {
    return static_cast<int>(metrics.value("run"));
  }
  [[nodiscard]] int cache_hits() const {
    return static_cast<int>(metrics.value("cache_hits"));
  }
  [[nodiscard]] int infeasible() const {
    return static_cast<int>(metrics.value("infeasible"));
  }
  [[nodiscard]] int structure_groups() const {
    return static_cast<int>(metrics.value("structure_groups"));
  }
  [[nodiscard]] int structure_shared_jobs() const {
    return static_cast<int>(metrics.value("structure_shared_jobs"));
  }
  /// Retired, always 0, kept only because perfbench reads it.
  [[nodiscard]] int width_shared_evals() const {
    return static_cast<int>(metrics.value("width_shared_evals"));
  }
  /// Retired, always 0, kept only because perfbench reads it.
  [[nodiscard]] int width_cohort_evals() const {
    return static_cast<int>(metrics.value("width_cohort_evals"));
  }
  /// Retired, always 0, kept only because perfbench reads it.
  [[nodiscard]] int width_fallback_evals() const {
    return static_cast<int>(metrics.value("width_fallback_evals"));
  }
  /// Retired, always 0, kept only because perfbench reads it.
  [[nodiscard]] int certificate_accepts() const {
    return static_cast<int>(metrics.value("certificate_accepts"));
  }
  [[nodiscard]] int peak_buffered_outcomes() const {
    return static_cast<int>(metrics.value("peak_buffered_outcomes"));
  }
  [[nodiscard]] int delta_candidates() const {
    return static_cast<int>(metrics.value("delta_candidates"));
  }
  [[nodiscard]] long long delta_flows_reused() const {
    return metrics.value("delta_flows_reused");
  }
  [[nodiscard]] long long delta_flows_certified() const {
    return metrics.value("delta_flows_certified");
  }
  [[nodiscard]] long long delta_flows_rerouted() const {
    return metrics.value("delta_flows_rerouted");
  }
  [[nodiscard]] int delta_cert_rejects() const {
    return static_cast<int>(metrics.value("delta_cert_rejects"));
  }
  /// Transient-failure retry attempts across all jobs.
  [[nodiscard]] int retries() const {
    return static_cast<int>(metrics.value("retries"));
  }
  /// Jobs abandoned by --job-timeout (a subset of quarantined_jobs).
  [[nodiscard]] int job_timeouts() const {
    return static_cast<int>(metrics.value("job_timeouts"));
  }
  /// Jobs quarantined to failed.jsonl (status "failed" or "timeout").
  [[nodiscard]] int quarantined_jobs() const {
    return static_cast<int>(metrics.value("quarantined_jobs"));
  }
  /// Jobs never started: --deadline passed or the run was interrupted.
  [[nodiscard]] int skipped_jobs() const {
    return static_cast<int>(metrics.value("skipped_jobs"));
  }
  /// Corrupt/torn store lines quarantined by recovery-on-open.
  [[nodiscard]] int recovered_records() const {
    return static_cast<int>(metrics.value("recovered_records"));
  }
  /// Store records evicted by the size cap.
  [[nodiscard]] int evicted_records() const {
    return static_cast<int>(metrics.value("evicted_records"));
  }
  /// Failed store appends/rewrites (the store may have degraded to
  /// memory-only; see ResultCache::store_degraded).
  [[nodiscard]] int store_write_errors() const {
    return static_cast<int>(metrics.value("store_write_errors"));
  }
  /// True when the run was cut short by the external cancel token
  /// (SIGINT/SIGTERM) rather than running to completion.
  [[nodiscard]] bool interrupted() const {
    return metrics.value("interrupted") != 0;
  }
  /// Delta group members proven identical to their reference before
  /// routing (see core::SynthesisStats::delta_members_skipped).
  [[nodiscard]] int delta_members_skipped() const {
    return static_cast<int>(metrics.value("delta_members_skipped"));
  }

  /// Fraction of delta-eligible flows served without a live Dijkstra
  /// (also stored as the registry gauge "delta_reuse_rate").
  [[nodiscard]] double delta_reuse_rate() const {
    const long long reused = delta_flows_reused() + delta_flows_certified();
    const long long total = reused + delta_flows_rerouted();
    return total > 0 ? static_cast<double>(reused) / static_cast<double>(total)
                     : 0.0;
  }

  /// All records as JSONL text (one line each, trailing newline).
  [[nodiscard]] std::string to_jsonl(bool include_timing = true) const;
};

/// Runs the campaign. Per-job InfeasibleWidthError is recorded (feasible =
/// false), not fatal. Spec/option errors (std::invalid_argument) propagate,
/// as do expand_jobs() errors. Every OTHER per-job exception is treated as
/// transient: retried per CampaignOptions and, if it keeps failing,
/// quarantined (status "failed"/"timeout", mirrored to <dir>/failed.jsonl) —
/// the campaign always completes with one record per job.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const CampaignOptions& options = {});

}  // namespace vinoc::campaign
