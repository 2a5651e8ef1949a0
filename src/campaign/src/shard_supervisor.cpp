#include "vinoc/campaign/shard_supervisor.hpp"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "vinoc/campaign/shard.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/exec/subprocess.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/shard_wire.hpp"

namespace vinoc::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// Worker exit codes the supervisor treats as a NORMAL end of process:
/// ok / infeasible / partial / interrupted. Anything else — and any death
/// by signal — is a crash.
bool clean_exit_code(int code) {
  return code == 0 || code == 5 || code == 6 || code == 7;
}

/// Exit codes that mean the worker could not even start its assignment
/// (usage/parse/spec errors, exec failure). Respawning replays the same
/// failure; reassignment (which rewrites the manifest) might not.
bool config_exit_code(int code) {
  return code == 2 || code == 3 || code == 4 || code == 127;
}

/// One worker slot: a shard assignment plus the process currently (or last)
/// running it.
struct Slot {
  int id = 0;  ///< shard id: manifest / store-<id> / failed-<id> suffix
  std::vector<std::uint64_t> assigned;  ///< manifest content, job order
  std::unique_ptr<exec::ChildProcess> child;
  std::unordered_set<std::uint64_t> pending;    ///< no record delivered yet
  std::unordered_set<std::uint64_t> in_flight;  ///< started, not done
  int respawns = 0;
  bool live = false;
  bool sigkilled_by_watchdog = false;
  Clock::time_point last_event;
};

/// Streams records in global job order as they arrive out of order from the
/// shards — the supervisor-side twin of the engine's OrderedEmitter.
class OrderedStream {
 public:
  OrderedStream(const CampaignOptions& options, std::size_t total)
      : options_(options), have_(total, false), records_(total) {}

  [[nodiscard]] bool has(std::size_t index) const { return have_[index]; }
  [[nodiscard]] std::size_t delivered() const { return delivered_; }

  void deliver(std::size_t index, JobRecord record) {
    if (have_[index]) return;  // first writer wins (respawn duplicates)
    have_[index] = true;
    records_[index] = std::move(record);
    ++delivered_;
    while (next_ < have_.size() && have_[next_]) {
      const JobRecord& rec = records_[next_];
      if (options_.stream != nullptr) {
        const std::string line =
            record_to_jsonl(rec, options_.include_timing) + "\n";
        std::fputs(line.c_str(), options_.stream);
        std::fflush(options_.stream);
      }
      if (options_.on_record) options_.on_record(rec);
      ++next_;
    }
  }

  [[nodiscard]] std::vector<JobRecord> take() { return std::move(records_); }

 private:
  const CampaignOptions& options_;
  std::vector<bool> have_;
  std::vector<JobRecord> records_;
  std::size_t next_ = 0;
  std::size_t delivered_ = 0;
};

/// Counters a worker summary contributes by SUMMING (run/cache_hits/... are
/// re-derived from the delivered records instead — records survive worker
/// crashes, summaries do not).
constexpr const char* kSummedCounters[] = {
    "structure_groups",      "structure_shared_jobs",
    "delta_candidates",      "delta_flows_reused",
    "delta_flows_certified", "delta_flows_rerouted",
    "delta_cert_rejects",    "retries",
    "recovered_records",     "evicted_records",
    "store_write_errors",    "delta_members_skipped",
};

}  // namespace

ShardCampaignResult run_sharded_campaign(const CampaignSpec& spec,
                                         const ShardCampaignOptions& sopt) {
  if (sopt.base.cache_dir.empty()) {
    throw std::invalid_argument("sharded campaign requires a cache dir");
  }
  if (sopt.worker_exe.empty() || sopt.spec_path.empty()) {
    throw std::invalid_argument(
        "sharded campaign requires worker_exe and spec_path");
  }
  const auto t_start = Clock::now();
  ShardCampaignResult out;
  CampaignResult& result = out.campaign;
  const std::string& cache_dir = sopt.base.cache_dir;
  std::filesystem::create_directories(cache_dir);

  const std::vector<CampaignJob> jobs = expand_jobs(spec, &result.expand);
  std::vector<std::uint64_t> order_keys;
  order_keys.reserve(jobs.size());
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    order_keys.push_back(jobs[i].key);
    index_of.emplace(jobs[i].key, i);
  }

  // A previous sharded run that crashed before its merge leaves shard
  // stores behind; fold them into the canonical store FIRST so worker-side
  // --resume sees one authoritative store.
  (void)merge_shard_stores(cache_dir, &order_keys);

  const ShardPlan plan = plan_shards(jobs, sopt.shards);
  std::filesystem::create_directories(shards_dir(cache_dir));

  OrderedStream stream(sopt.base, jobs.size());
  obs::Registry summed;  ///< worker-summary + fallback telemetry (see above)
  std::int64_t workers_spawned = 0, worker_crashes = 0, worker_respawns = 0;
  std::int64_t reassign_rounds = 0, reassigned_jobs = 0, fallback_jobs = 0;
  std::int64_t heartbeat_drops = 0;
  std::unordered_map<std::uint64_t, int> crash_count;
  std::vector<std::uint64_t> orphans;  ///< keys whose slot gave up entirely

  const bool cancellable = sopt.base.cancel != nullptr;
  auto cancelled = [&] { return cancellable && sopt.base.cancel->cancelled(); };

  // Supervisor-side quarantine: jobs whose WORKER died too often around
  // them. Same ledger, same checksummed shape as the engine's (satellite:
  // every side ledger line carries _crc).
  std::ofstream failed_out;
  auto quarantine = [&](const CampaignJob& job, const std::string& error,
                        int attempts) {
    if (!failed_out.is_open()) {
      const std::string name =
          sopt.base.failed_file.empty() ? "failed.jsonl" : sopt.base.failed_file;
      failed_out.open((std::filesystem::path(cache_dir) / name).string(),
                      std::ios::app);
    }
    if (!failed_out) return;
    io::JsonlWriter w;
    w.field("campaign", spec.name)
        .field("job", job.name)
        .field("key", key_hex(job.key))
        .field("status", "failed")
        .field("error", error)
        .field("attempts", attempts);
    failed_out << io::add_line_checksum(w.line()) << '\n' << std::flush;
  };

  auto deliver_key = [&](std::uint64_t key, JobRecord rec) {
    const auto it = index_of.find(key);
    if (it == index_of.end()) return;  // not a job of this campaign
    stream.deliver(it->second, std::move(rec));
  };

  auto absorb_summary_map = [&](const std::map<std::string, std::string>& obj) {
    for (const char* name : kSummedCounters) {
      const auto it = obj.find(name);
      if (it != obj.end()) {
        summed.add(name, std::strtoll(it->second.c_str(), nullptr, 10));
      }
    }
    const auto it = obj.find("peak_buffered_outcomes");
    if (it != obj.end()) {
      summed.record_max("peak_buffered_outcomes",
                        std::strtoll(it->second.c_str(), nullptr, 10));
    }
  };
  auto absorb_registry = [&](const obs::Registry& reg) {
    for (const char* name : kSummedCounters) summed.add(name, reg.value(name));
    summed.record_max("peak_buffered_outcomes",
                      reg.value("peak_buffered_outcomes"));
  };

  auto worker_argv = [&](int shard_id) {
    std::vector<std::string> argv = {sopt.worker_exe,
                                     "campaign-worker",
                                     sopt.spec_path,
                                     "--cache-dir",
                                     cache_dir,
                                     "--shard",
                                     std::to_string(shard_id)};
    if (sopt.base.resume) argv.push_back("--resume");
    if (sopt.worker_threads > 0) {
      argv.push_back("--threads");
      argv.push_back(std::to_string(sopt.worker_threads));
    }
    if (sopt.base.job_timeout_s > 0.0) {
      argv.push_back("--job-timeout");
      argv.push_back(std::to_string(sopt.base.job_timeout_s));
    }
    argv.push_back("--retries");
    argv.push_back(std::to_string(sopt.base.max_retries));
    if (sopt.base.deadline_s > 0.0) {
      argv.push_back("--deadline");
      argv.push_back(std::to_string(sopt.base.deadline_s));
    }
    return argv;
  };

  /// Spawns (or respawns) slot `slot`'s worker. Respawns disarm fault
  /// injection in the child: an injected crash site would otherwise fire
  /// again on every respawn and burn the whole budget on the same
  /// scripted fault (real crashes recur on their own if they are real).
  auto spawn_worker = [&](Slot& slot, bool respawn) {
    std::vector<std::string> env;
    if (respawn) env.push_back("VINOC_FAULT=");
    slot.child = exec::ChildProcess::spawn(worker_argv(slot.id), env);
    slot.in_flight.clear();
    slot.sigkilled_by_watchdog = false;
    slot.last_event = Clock::now();
    if (slot.child == nullptr) {
      slot.live = false;
      return false;
    }
    ++workers_spawned;
    slot.live = true;
    return true;
  };

  std::vector<Slot> slots;
  for (int k = 0; k < plan.shards(); ++k) {
    if (plan.assignment[static_cast<std::size_t>(k)].empty()) continue;
    Slot slot;
    slot.id = k;
    slot.assigned = plan.assignment[static_cast<std::size_t>(k)];
    slot.pending.insert(slot.assigned.begin(), slot.assigned.end());
    if (!io::write_shard_manifest(shard_manifest_path(cache_dir, k),
                                  slot.assigned)) {
      orphans.insert(orphans.end(), slot.assigned.begin(),
                     slot.assigned.end());
      continue;
    }
    if (!spawn_worker(slot, /*respawn=*/false)) {
      orphans.insert(orphans.end(), slot.assigned.begin(),
                     slot.assigned.end());
      continue;
    }
    slots.push_back(std::move(slot));
  }
  int next_shard_id = plan.shards();

  // Watchdog budget: a worker whose engine is healthy polls cancellation
  // and emits SOMETHING at least once per job timeout; silence for twice
  // that (plus startup slack) means a stall no cooperative mechanism can
  // reclaim. Without a job timeout there is no line between slow and
  // stuck, so the watchdog stays off.
  const double watchdog_s = sopt.base.job_timeout_s > 0.0
                                ? 2.0 * sopt.base.job_timeout_s + 2.0
                                : 0.0;

  bool sigterm_sent = false;
  Clock::time_point sigterm_at;

  /// Processes one decoded event from `slot`.
  auto handle_event = [&](Slot& slot, const io::ShardEvent& ev) {
    slot.last_event = Clock::now();
    switch (ev.type) {
      case io::ShardEventType::kStart:
        slot.in_flight.insert(ev.key);
        break;
      case io::ShardEventType::kDone: {
        slot.in_flight.erase(ev.key);
        JobRecord rec;
        if (record_from_jsonl(ev.payload, rec)) {
          slot.pending.erase(ev.key);
          deliver_key(ev.key, std::move(rec));
        } else {
          ++heartbeat_drops;
        }
        break;
      }
      case io::ShardEventType::kSummary: {
        std::map<std::string, std::string> obj;
        if (io::parse_jsonl_object(ev.payload, obj)) {
          absorb_summary_map(obj);
        } else {
          ++heartbeat_drops;
        }
        break;
      }
    }
  };

  /// The worker for `slot` is gone (reaped). Salvage its store, attribute
  /// in-flight jobs, then respawn / reassign / orphan what remains.
  auto handle_exit = [&](Slot& slot) {
    slot.live = false;
    const bool signaled = slot.child->term_signal() != 0;
    const int code = slot.child->exit_code();
    const bool crashed = signaled || !clean_exit_code(code);
    // Jobs the worker computed but whose done lines never arrived (lost to
    // a crash mid-write or an injected heartbeat drop) are already durable
    // in its shard store — records beat recomputation.
    if (!slot.pending.empty()) {
      for (JobRecord& rec :
           read_store_records((std::filesystem::path(cache_dir) /
                               shard_store_file(slot.id))
                                  .string())) {
        const std::uint64_t key = rec.key;
        if (slot.pending.count(key) != 0) {
          slot.pending.erase(key);
          slot.in_flight.erase(key);
          deliver_key(key, std::move(rec));
        }
      }
    }
    if (slot.pending.empty()) return;
    if (cancelled()) return;  // leftovers become "skipped" after the loop
    if (crashed) {
      ++worker_crashes;
      const std::string cause =
          slot.sigkilled_by_watchdog
              ? std::string("worker stalled past the heartbeat watchdog")
          : signaled
              ? "worker died to signal " + std::to_string(slot.child->term_signal())
              : "worker exited with code " + std::to_string(code);
      // The jobs that were IN FLIGHT when the worker died are the crash
      // suspects; each gets a bounded number of second chances before it
      // is quarantined as the likely cause.
      for (const std::uint64_t key : std::vector<std::uint64_t>(
               slot.in_flight.begin(), slot.in_flight.end())) {
        if (slot.pending.count(key) == 0) continue;
        const int count = ++crash_count[key];
        if (count > sopt.crash_retries) {
          const auto it = index_of.find(key);
          if (it == index_of.end()) continue;
          const CampaignJob& job = jobs[it->second];
          JobRecord rec = summarize(spec.name, job, nullptr);
          rec.status = "failed";
          quarantine(job, cause, count);
          slot.pending.erase(key);
          stream.deliver(it->second, std::move(rec));
        }
      }
    }
    if (slot.pending.empty()) return;
    const bool config_failure = !signaled && config_exit_code(code);
    if (!config_failure && slot.respawns < sopt.max_respawns) {
      ++slot.respawns;
      ++worker_respawns;
      if (spawn_worker(slot, /*respawn=*/true)) return;
    }
    // Respawn budget (or the spawn itself) exhausted: hand the leftovers
    // to a fresh worker over a fresh manifest, bounded rounds, then give
    // up to the in-process fallback.
    std::vector<std::uint64_t> leftovers;
    for (const std::uint64_t key : order_keys) {
      if (slot.pending.count(key) != 0) leftovers.push_back(key);
    }
    slot.pending.clear();
    if (reassign_rounds >= sopt.max_reassign_rounds) {
      orphans.insert(orphans.end(), leftovers.begin(), leftovers.end());
      return;
    }
    ++reassign_rounds;
    reassigned_jobs += static_cast<std::int64_t>(leftovers.size());
    Slot fresh;
    fresh.id = next_shard_id++;
    fresh.assigned = leftovers;
    fresh.pending.insert(leftovers.begin(), leftovers.end());
    if (!io::write_shard_manifest(
            shard_manifest_path(cache_dir, fresh.id), leftovers) ||
        !spawn_worker(fresh, /*respawn=*/true)) {
      orphans.insert(orphans.end(), leftovers.begin(), leftovers.end());
      return;
    }
    slots.push_back(std::move(fresh));
  };

  // --- Supervision loop -----------------------------------------------------
  std::vector<std::string> lines;
  for (;;) {
    bool any_live = false;
    bool progressed = false;
    // Index loop, not iterators: handle_exit may push reassignment slots.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].live) continue;
      any_live = true;
      Slot& slot = slots[s];
      lines.clear();
      const bool open = slot.child->read_available(lines);
      for (const std::string& line : lines) {
        progressed = true;
        if (const auto ev = io::decode_shard_event(line)) {
          handle_event(slot, *ev);
        } else {
          ++heartbeat_drops;  // torn/corrupt status line: tolerated
        }
      }
      if (!open && slot.child->poll_exit()) {
        progressed = true;
        handle_exit(slot);
        continue;
      }
      if (cancelled()) continue;  // cancel path below owns signaling
      if (watchdog_s > 0.0 && !slot.sigkilled_by_watchdog &&
          std::chrono::duration<double>(Clock::now() - slot.last_event)
                  .count() > watchdog_s) {
        slot.sigkilled_by_watchdog = true;
        slot.child->signal_now(SIGKILL);
      }
    }
    if (!any_live) break;
    if (cancelled()) {
      if (!sigterm_sent) {
        sigterm_sent = true;
        sigterm_at = Clock::now();
        for (Slot& slot : slots) {
          if (slot.live) slot.child->signal_now(SIGTERM);
        }
      } else if (std::chrono::duration<double>(Clock::now() - sigterm_at)
                     .count() > 5.0) {
        for (Slot& slot : slots) {
          if (slot.live) slot.child->signal_now(SIGKILL);
        }
      }
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // --- Degradation: whatever no worker delivered runs in-process ------------
  if (!cancelled()) {
    std::vector<std::uint64_t> missing;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!stream.has(i)) missing.push_back(jobs[i].key);
    }
    if (!missing.empty()) {
      fallback_jobs = static_cast<std::int64_t>(missing.size());
      CampaignOptions fopt = sopt.base;
      fopt.stream = nullptr;  // the supervisor's ordered stream re-emits
      fopt.on_record = nullptr;
      fopt.job_keys = &missing;
      fopt.on_job_start = nullptr;
      CampaignResult fres = run_campaign(spec, fopt);
      absorb_registry(fres.metrics);
      for (JobRecord& rec : fres.records) {
        const std::uint64_t key = rec.key;
        deliver_key(key, std::move(rec));
      }
    }
  }
  // Interrupted (or pathological) leftovers: emit "skipped" so the stream
  // stays one-record-per-job — exactly what the single-process engine does.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (stream.has(i)) continue;
    JobRecord rec = summarize(spec.name, jobs[i], nullptr);
    rec.status = "skipped";
    stream.deliver(i, std::move(rec));
  }

  out.merge = merge_shard_stores(cache_dir, &order_keys);
  result.records = stream.take();

  // --- Canonical metrics ----------------------------------------------------
  // run/cache_hits/infeasible/total and the outcome counters re-derive from
  // the delivered records (ground truth that survives worker crashes);
  // telemetry counters come from the summed worker summaries. Registration
  // order: the engine's canonical resume_summary order, supervisor counters
  // appended AFTER "interrupted" (CI greps match line prefixes).
  std::int64_t run = 0, hits = 0, infeasible = 0;
  std::int64_t quarantined = 0, skipped = 0, timeouts = 0;
  for (const JobRecord& rec : result.records) {
    if (rec.status == "ok") {
      if (rec.cache_hit) {
        ++hits;
      } else {
        ++run;
      }
      if (!rec.feasible) ++infeasible;
    } else if (rec.status == "skipped") {
      ++skipped;
    } else {
      ++quarantined;
      if (rec.status == "timeout") ++timeouts;
    }
  }
  obs::Registry& m = result.metrics;
  m.add("run", run);
  m.add("cache_hits", hits);
  m.add("infeasible", infeasible);
  m.add("total", static_cast<std::int64_t>(jobs.size()));
  m.add("structure_groups", summed.value("structure_groups"));
  m.add("structure_shared_jobs", summed.value("structure_shared_jobs"));
  m.record_max("peak_buffered_outcomes",
               summed.value("peak_buffered_outcomes"));
  m.add("delta_candidates", summed.value("delta_candidates"));
  m.add("delta_flows_reused", summed.value("delta_flows_reused"));
  m.add("delta_flows_certified", summed.value("delta_flows_certified"));
  m.add("delta_flows_rerouted", summed.value("delta_flows_rerouted"));
  m.add("delta_cert_rejects", summed.value("delta_cert_rejects"));
  m.add("retries", summed.value("retries"));
  m.add("job_timeouts", timeouts);
  m.add("quarantined_jobs", quarantined);
  m.add("skipped_jobs", skipped);
  m.add("recovered_records", summed.value("recovered_records"));
  m.add("evicted_records", summed.value("evicted_records"));
  m.add("store_write_errors", summed.value("store_write_errors"));
  m.add("interrupted", cancelled() ? 1 : 0);
  m.add("delta_members_skipped", summed.value("delta_members_skipped"));
  // Sharding counters (this PR) — appended after every pre-existing one.
  m.add("shards", plan.shards());
  m.add("workers_spawned", workers_spawned);
  m.add("worker_crashes", worker_crashes);
  m.add("worker_respawns", worker_respawns);
  m.add("reassign_rounds", reassign_rounds);
  m.add("reassigned_jobs", reassigned_jobs);
  m.add("fallback_jobs", fallback_jobs);
  m.add("heartbeat_drops", heartbeat_drops);
  m.add("merge_duplicates",
        static_cast<std::int64_t>(out.merge.duplicates));
  m.add("merge_conflicts", static_cast<std::int64_t>(out.merge.conflicts));
  m.add("merge_quarantined",
        static_cast<std::int64_t>(out.merge.quarantined));
  m.set_gauge("delta_reuse_rate", result.delta_reuse_rate());
  result.wall_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  return out;
}

}  // namespace vinoc::campaign
