// vinoc — command-line front end to the synthesis flow.
//
//   vinoc synth     <spec.soc>      one synthesis run, exports dot/svg/csv
//   vinoc sweep     <spec.soc>      link-width sweep + global Pareto front
//   vinoc sim       <spec.soc>      traffic-simulate the best-power design
//   vinoc gate      <spec.soc>      shutdown/transition accounting
//   vinoc campaign  <file.campaign> batched multi-scenario synthesis
//                                   (--shards N = multi-process supervisor)
//   vinoc campaign-worker <file>    one shard of a sharded campaign
//                                   (spawned by the supervisor, not by hand)
//   vinoc store     verify|merge    inspect / merge a campaign store family
//
// `--strategy spec` (default) keeps the island assignment from the file;
// `logical`/`comm` re-island the cores with the requested island count.
// Run `vinoc` with no arguments for the full flag list and exit codes.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/campaign/shard.hpp"
#include "vinoc/campaign/shard_merge.hpp"
#include "vinoc/campaign/shard_supervisor.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/deadlock.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/shutdown_safety.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/exec/cancel.hpp"
#include "vinoc/faultinject/faultinject.hpp"
#include "vinoc/io/exports.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/obs_writers.hpp"
#include "vinoc/io/shard_wire.hpp"
#include "vinoc/io/spec_format.hpp"
#include "vinoc/obs/profile.hpp"
#include "vinoc/obs/registry.hpp"
#include "vinoc/obs/trace.hpp"
#include "vinoc/power/gating.hpp"
#include "vinoc/power/transitions.hpp"
#include "vinoc/sim/simulator.hpp"
#include "vinoc/soc/islanding.hpp"

namespace {

using namespace vinoc;

// Exit codes, documented in usage(): scripts driving the CLI can tell a
// mistyped flag from a broken input file from an unsatisfiable request.
enum ExitCode {
  kExitOk = 0,
  kExitRuntime = 1,      // unexpected error while running
  kExitUsage = 2,        // bad command line
  kExitParse = 3,        // input file does not parse
  kExitSpec = 4,         // input parses but is semantically invalid
  kExitInfeasible = 5,   // valid input, but no feasible design exists
  kExitPartial = 6,      // campaign completed with quarantined/skipped jobs
                         // or a degraded store — partial results on disk
  kExitInterrupted = 7,  // stopped by SIGINT/SIGTERM; finished work flushed
};

/// The process-wide interrupt token. The signal handler only flips its
/// atomic flag (async-signal-safe); every synthesis/campaign poll observes
/// it, abandons in-flight work at the next candidate boundary and lets the
/// command exit through the normal checkpoint-and-flush path. A second
/// signal falls back to the default handler (hard kill).
vinoc::exec::CancelToken g_interrupt;

void handle_interrupt(int sig) {
  g_interrupt.cancel();
  std::signal(sig, SIG_DFL);
}

struct Args {
  std::string command;
  std::string spec_path;
  int islands = 0;  // 0 = keep file islands
  std::string strategy = "spec";
  double alpha = 0.6;
  double alpha_power = 0.7;
  int width = 32;
  std::vector<int> widths = {16, 32, 64, 128};
  bool intermediate = true;
  bool prune = true;
  double scale = 1.0;
  int threads = 0;  // 0 = hardware concurrency (results are thread-count independent)
  bool progress = false;
  bool json = false;
  bool resume = false;
  bool no_timing = false;
  std::string cache_dir;
  double job_timeout_s = 0.0;     // --job-timeout; 0 = none
  int retries = 2;                // --retries
  double retry_backoff_ms = 100;  // --retry-backoff
  double deadline_s = 0.0;        // --deadline; 0 = none
  std::uint64_t store_max_bytes = 0;  // --store-max-bytes; 0 = unlimited
  int shards = 1;                 // --shards; >1 = multi-process supervisor
  int shard = -1;                 // --shard; campaign-worker's shard id
  int max_respawns = 2;           // --max-respawns (per worker slot)
  int crash_retries = 1;          // --crash-retries (per job)
  std::string self_exe;           // argv[0], for spawning campaign-workers
  std::string out = "vinoc_out";
  std::string trace_path;    // --trace: Chrome trace_event JSON export
  std::string metrics_path;  // --metrics-out: registry + phase_profile JSONL
};

/// Registry records contributed by the command (campaign summary, sweep
/// stats, ...) for the --metrics-out export written after the command
/// returns; the phase_profile record is appended last. Purely diagnostic:
/// never part of result fingerprints or the job record stream.
std::vector<std::string> g_metric_lines;

int usage() {
  std::fprintf(
      stderr,
      "usage: vinoc <command> <input> [options]\n"
      "\n"
      "commands:\n"
      "  synth <spec.soc>        run Algorithm 1 once; export .dot/.svg/.csv\n"
      "  sweep <spec.soc>        explore link widths; global Pareto front\n"
      "  sim <spec.soc>          simulate traffic on the best-power design\n"
      "  gate <spec.soc>         shutdown-savings + wake-up accounting\n"
      "  campaign <file>         batched multi-scenario synthesis (job matrix\n"
      "                          x cache x streaming JSONL report)\n"
      "  store <verify|merge> <cache-dir>\n"
      "                          verify: validate store/ledger checksums and\n"
      "                          duplicate keys; merge: union shard stores\n"
      "                          (store-<k>.jsonl) into the canonical store\n"
      "\n"
      "options (synth/sweep/sim/gate):\n"
      "  --islands N             re-island into N voltage islands\n"
      "  --strategy S            spec | logical | comm (default spec)\n"
      "  --alpha A               Definition-1 weight (default 0.6)\n"
      "  --alpha-power P         router cost weight (default 0.7)\n"
      "  --width BITS            link data width for 'synth' (default 32)\n"
      "  --widths A,B,...        widths for 'sweep' (default 16,32,64,128)\n"
      "  --no-intermediate       forbid the intermediate NoC VI\n"
      "  --no-prune              keep every routed design point (disable the\n"
      "                          Pareto-bound pruning of dominated candidates)\n"
      "  --scale X               injection scale for 'sim' (default 1)\n"
      "options (campaign):\n"
      "  --cache-dir DIR         content-hash store; re-runs skip cached jobs\n"
      "  --resume                serve jobs already in the store as cache hits\n"
      "  --no-timing             omit wall_ms from records (byte-exact diffs)\n"
      "  --job-timeout SEC       per-job wall-clock timeout; a job past it is\n"
      "                          quarantined with status \"timeout\" (0 = none)\n"
      "  --retries N             retry attempts for transient job failures\n"
      "                          before quarantine (default 2)\n"
      "  --retry-backoff MS      base backoff between retries, exponential\n"
      "                          with seeded jitter (default 100)\n"
      "  --deadline SEC          whole-campaign budget; remaining jobs are\n"
      "                          emitted with status \"skipped\" (0 = none)\n"
      "  --store-max-bytes N     cap store.jsonl, evicting oldest records\n"
      "                          (0 = unlimited)\n"
      "  --shards N              run the matrix across N supervised worker\n"
      "                          processes (requires --cache-dir); crashed or\n"
      "                          stalled workers are respawned, their shard\n"
      "                          stores merged back into store.jsonl\n"
      "  --max-respawns N        respawns per worker slot before its leftover\n"
      "                          jobs are reassigned (default 2)\n"
      "  --crash-retries N       times a job may be in flight during a worker\n"
      "                          crash before it is quarantined as the cause\n"
      "                          (default 1)\n"
      "options (all commands):\n"
      "  --threads N             parallelism; 0 = all cores (default 0,\n"
      "                          bit-identical results for any N)\n"
      "  --json                  machine-readable JSONL records on stdout\n"
      "  --progress              progress to stderr\n"
      "  --out PREFIX            output file prefix (default vinoc_out)\n"
      "  --trace FILE            record scoped spans and write a Chrome\n"
      "                          trace_event JSON (chrome://tracing, Perfetto;\n"
      "                          results stay bit-identical to untraced runs)\n"
      "  --metrics-out FILE      write the run's merged metric registries and\n"
      "                          a phase_profile record as JSONL\n"
      "\n"
      "exit codes:\n"
      "  0 success    1 runtime error      2 bad command line\n"
      "  3 input does not parse            4 input semantically invalid\n"
      "  5 no feasible design (width infeasible or zero design points)\n"
      "  6 campaign completed with partial results (quarantined or skipped\n"
      "    jobs, or the store degraded) — see failed.jsonl and resume_summary\n"
      "  7 interrupted (SIGINT/SIGTERM or deadline in synth/sweep); finished\n"
      "    work was checkpointed and flushed\n");
  return kExitUsage;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 3) return false;
  args.self_exe = argv[0];
  args.command = argv[1];
  args.spec_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--islands") {
      const char* v = next();
      if (v == nullptr) return false;
      args.islands = std::atoi(v);
    } else if (flag == "--strategy") {
      const char* v = next();
      if (v == nullptr) return false;
      args.strategy = v;
    } else if (flag == "--alpha") {
      const char* v = next();
      if (v == nullptr) return false;
      args.alpha = std::atof(v);
    } else if (flag == "--alpha-power") {
      const char* v = next();
      if (v == nullptr) return false;
      args.alpha_power = std::atof(v);
    } else if (flag == "--width") {
      const char* v = next();
      if (v == nullptr) return false;
      args.width = std::atoi(v);
    } else if (flag == "--widths") {
      const char* v = next();
      if (v == nullptr) return false;
      args.widths.clear();
      for (const char* p = v; *p != '\0';) {
        args.widths.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (flag == "--no-intermediate") {
      args.intermediate = false;
    } else if (flag == "--no-prune") {
      args.prune = false;
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      args.threads = std::atoi(v);
    } else if (flag == "--progress") {
      args.progress = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--no-timing") {
      args.no_timing = true;
    } else if (flag == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args.cache_dir = v;
    } else if (flag == "--job-timeout") {
      const char* v = next();
      if (v == nullptr) return false;
      args.job_timeout_s = std::atof(v);
    } else if (flag == "--retries") {
      const char* v = next();
      if (v == nullptr) return false;
      args.retries = std::atoi(v);
    } else if (flag == "--retry-backoff") {
      const char* v = next();
      if (v == nullptr) return false;
      args.retry_backoff_ms = std::atof(v);
    } else if (flag == "--deadline") {
      const char* v = next();
      if (v == nullptr) return false;
      args.deadline_s = std::atof(v);
    } else if (flag == "--store-max-bytes") {
      const char* v = next();
      if (v == nullptr) return false;
      args.store_max_bytes = std::strtoull(v, nullptr, 10);
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      args.shards = std::atoi(v);
    } else if (flag == "--shard") {
      const char* v = next();
      if (v == nullptr) return false;
      args.shard = std::atoi(v);
    } else if (flag == "--max-respawns") {
      const char* v = next();
      if (v == nullptr) return false;
      args.max_respawns = std::atoi(v);
    } else if (flag == "--crash-retries") {
      const char* v = next();
      if (v == nullptr) return false;
      args.crash_retries = std::atoi(v);
    } else if (args.command == "store" && flag.rfind("--", 0) != 0 &&
               args.cache_dir.empty()) {
      // `vinoc store <verify|merge> <cache-dir>` — the dir rides as the one
      // positional (also reachable as --cache-dir for symmetry).
      args.cache_dir = flag;
    } else if (flag == "--scale") {
      const char* v = next();
      if (v == nullptr) return false;
      args.scale = std::atof(v);
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args.out = v;
    } else if (flag == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      args.trace_path = v;
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args.metrics_path = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

soc::SocSpec load_spec(const Args& args, int& error_code) {
  error_code = kExitOk;
  const io::ParseResult parsed = io::parse_soc_spec_file(args.spec_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "failed to parse %s:\n", args.spec_path.c_str());
    for (const io::ParseError& e : parsed.errors) {
      std::fprintf(stderr, "  line %d: %s\n", e.line, e.message.c_str());
    }
    error_code = kExitParse;
    return {};
  }
  if (args.strategy != "spec" && args.strategy != "logical" &&
      args.strategy != "comm") {
    std::fprintf(stderr, "unknown strategy '%s'\n", args.strategy.c_str());
    error_code = kExitUsage;
    return {};
  }
  if (args.strategy == "spec" || args.islands == 0) return parsed.spec;
  if (args.strategy == "logical") {
    return soc::with_logical_islands(parsed.spec, args.islands);
  }
  return soc::with_communication_islands(parsed.spec, args.islands);
}

core::SynthesisOptions options_from(const Args& args) {
  core::SynthesisOptions options;
  options.alpha = args.alpha;
  options.alpha_power = args.alpha_power;
  options.link_width_bits = args.width;
  options.allow_intermediate_island = args.intermediate;
  options.prune = args.prune;
  options.threads = args.threads;
  options.cancel = &g_interrupt;
  if (args.progress) {
    options.on_progress = [](const core::SynthesisProgress& p) {
      std::fprintf(stderr, "\r  evaluating candidates: %zu/%zu", p.completed,
                   p.total);
      if (p.completed == p.total) std::fprintf(stderr, "\n");
    };
  }
  return options;
}

/// One-off CampaignJob wrapper so synth/sweep --json reuse the campaign
/// record writer instead of inventing a second format.
campaign::JobRecord record_for(const Args& args, const soc::SocSpec& spec,
                               const core::SynthesisOptions& options,
                               const core::SynthesisResult* result) {
  campaign::CampaignJob job;
  job.scenario = spec.name;
  job.strategy = args.strategy;
  job.islands = static_cast<int>(spec.islands.size());
  job.width = options.link_width_bits;
  job.name = spec.name + "/" + args.strategy + "/i" +
             std::to_string(job.islands) + "/w" + std::to_string(job.width);
  job.options = options;
  job.options.threads = 1;
  job.options.on_progress = nullptr;
  job.options.cancel = nullptr;
  job.key = campaign::job_key(spec, job.options);
  return campaign::summarize(args.command, job, result);
}

void print_json_record(const campaign::JobRecord& record, bool include_timing) {
  std::printf("%s\n", campaign::record_to_jsonl(record, include_timing).c_str());
}

int cmd_synth(const Args& args, const soc::SocSpec& spec) {
  core::SynthesisResult result;
  try {
    result = core::synthesize(spec, options_from(args));
  } catch (const core::InfeasibleWidthError& e) {
    if (args.json) {
      print_json_record(record_for(args, spec, options_from(args), nullptr),
                        !args.no_timing);
    }
    std::fprintf(stderr, "infeasible width: %s\n", e.what());
    return kExitInfeasible;
  }
  if (args.json) {
    print_json_record(record_for(args, spec, options_from(args), &result),
                      !args.no_timing);
  } else {
    std::printf("%s: %d configs explored, %zu design points (%.3f s)\n",
                spec.name.c_str(), result.stats.configs_explored,
                result.points.size(), result.stats.elapsed_seconds);
  }
  if (result.points.empty()) {
    std::fprintf(stderr, "no feasible design point\n");
    return kExitInfeasible;
  }
  const core::DesignPoint& best = result.best_power();
  if (!args.json) {
    std::printf("best power point: %.2f mW dynamic, %.3f mW leakage, "
                "%.4f mm^2, %.2f cycles avg latency\n",
                best.metrics.noc_dynamic_w * 1e3,
                best.metrics.noc_leakage_w * 1e3, best.metrics.noc_area_mm2,
                best.metrics.avg_latency_cycles);
    std::printf("shutdown safety: %s; deadlock free: %s\n",
                core::verify_shutdown_safety(best.topology, spec).empty()
                    ? "OK"
                    : "VIOLATED",
                core::is_deadlock_free(best.topology) ? "yes" : "NO");
  }
  io::write_file(args.out + ".dot", io::topology_to_dot(best.topology, spec));
  io::write_file(args.out + ".svg",
                 io::floorplan_to_svg(result.floorplan, spec, &best.topology));
  io::write_file(args.out + ".csv", io::design_points_to_csv(result));
  if (!args.json) std::printf("wrote %s.{dot,svg,csv}\n", args.out.c_str());
  return kExitOk;
}

int cmd_sweep(const Args& args, const soc::SocSpec& spec) {
  core::SynthesisOptions options = options_from(args);
  if (args.progress) {
    // The sweep reports SWEEP-GLOBAL totals: completed rises monotonically
    // over every (candidate, width) evaluation of the whole set and
    // link_width_bits names the width that just finished (the callback is
    // serialised across the whole sweep; see explore.hpp).
    options.on_progress = [](const core::SynthesisProgress& p) {
      std::fprintf(stderr, "\r  evaluated %zu/%zu candidate-width pairs (w%d)",
                   p.completed, p.total, p.link_width_bits);
    };
  }
  core::WidthSetStats sweep_stats;
  const core::WidthSweepResult sweep =
      core::explore_link_widths(spec, args.widths, options, &sweep_stats);
  if (args.progress) std::fprintf(stderr, "\n");
  // The ONE serialization of the sweep telemetry: the --json record, the
  // sharing:/delta: console lines and the --metrics-out export all read
  // from this registry (counters first, delta_reuse_rate as the trailing
  // gauge — see WidthSetStats::to_registry).
  const obs::Registry sweep_reg = sweep_stats.to_registry();
  const auto counter = [&sweep_reg](const char* name) {
    return static_cast<long long>(sweep_reg.value(name));
  };
  g_metric_lines.push_back(io::registry_record("width_sweep_stats", sweep_reg));
  if (args.json) {
    // One campaign-format record per width (infeasible widths included with
    // feasible=false), machine-readable counterpart of the table below,
    // then one sweep-level telemetry record (see core::WidthSetStats).
    for (const core::WidthSweepEntry& e : sweep.entries) {
      core::SynthesisOptions wopt = options;
      wopt.link_width_bits = e.width_bits;
      print_json_record(
          record_for(args, spec, wopt, e.feasible ? &e.result : nullptr),
          !args.no_timing);
    }
    std::printf("%s\n",
                io::registry_record("width_sweep_stats", sweep_reg).c_str());
    return kExitOk;
  }
  std::printf("%-8s %-10s %-18s %-18s\n", "width", "points", "best power [mW]",
              "best latency [cy]");
  for (const core::WidthSweepEntry& e : sweep.entries) {
    if (!e.feasible) {
      std::printf("%-8d infeasible (NI link exceeds capacity)\n", e.width_bits);
      continue;
    }
    if (e.result.points.empty()) {
      std::printf("%-8d 0\n", e.width_bits);
      continue;
    }
    std::printf("%-8d %-10zu %-18.2f %-18.2f\n", e.width_bits,
                e.result.points.size(),
                e.result.best_power().metrics.noc_dynamic_w * 1e3,
                e.result.best_latency().metrics.avg_latency_cycles);
  }
  std::printf("global pareto (power asc):\n");
  for (const core::GlobalPointRef& ref : sweep.pareto) {
    const core::Metrics& m = sweep.point(ref).metrics;
    std::printf("  %3d-bit  %8.2f mW  %6.2f cycles\n", sweep.width_of(ref),
                m.noc_dynamic_w * 1e3, m.avg_latency_cycles);
  }
  // Every counter of the --json width_sweep_stats record, same names and
  // values — both surfaces read the same registry.
  std::printf(
      "sharing: %lld width classes, %lld partition-cache hits, peak %lld "
      "buffered outcomes\n",
      counter("width_classes"), counter("partition_cache_hits"),
      counter("peak_buffered_outcomes"));
  std::printf(
      "delta: %lld candidates replayed, %lld flows reused + %lld certified, "
      "%lld rerouted (%.0f%% reuse rate, %lld certificate rejects), %lld "
      "members skipped\n",
      counter("delta_candidates"), counter("delta_flows_reused"),
      counter("delta_flows_certified"), counter("delta_flows_rerouted"),
      sweep_reg.gauge("delta_reuse_rate") * 100.0,
      counter("delta_cert_rejects"), counter("delta_members_skipped"));
  return kExitOk;
}

int cmd_sim(const Args& args, const soc::SocSpec& spec) {
  const core::SynthesisOptions options = options_from(args);
  const core::SynthesisResult result = core::synthesize(spec, options);
  if (result.points.empty()) {
    std::fprintf(stderr, "no feasible design point\n");
    return kExitInfeasible;
  }
  sim::SimOptions sopts;
  sopts.injection_scale = args.scale;
  const sim::SimReport report =
      sim::simulate(result.best_power().topology, spec, options.tech, sopts);
  std::printf("injection x%.2f: %lld packets, avg latency %.2f cycles, "
              "max link util %.2f, %s\n",
              args.scale, static_cast<long long>(report.packets_delivered),
              report.avg_latency_cycles, report.max_link_utilization,
              report.saturated ? "SATURATED" : "stable");
  return kExitOk;
}

int cmd_gate(const Args& args, const soc::SocSpec& spec) {
  if (spec.scenarios.empty()) {
    std::fprintf(stderr, "spec has no scenarios; add 'scenario' lines\n");
    return kExitSpec;
  }
  const core::SynthesisOptions options = options_from(args);
  const core::SynthesisResult result = core::synthesize(spec, options);
  if (result.points.empty()) {
    std::fprintf(stderr, "no feasible design point\n");
    return kExitInfeasible;
  }
  const power::ShutdownReport report = power::evaluate_shutdown_savings(
      spec, result.best_power().topology, options.tech);
  for (const power::ScenarioPower& s : report.scenarios) {
    std::printf("%-24s %4.0f%%: %8.1f -> %8.1f mW\n", s.name.c_str(),
                s.time_fraction * 100.0, s.power_no_gating_w * 1e3,
                s.power_with_gating_w * 1e3);
  }
  const power::TransitionReport trans =
      power::evaluate_transition_overhead(spec, report);
  std::printf("gating saves %.1f%% (%.1f%% net of wake-up costs; "
              "break-even dwell %.2f ms)\n",
              report.saved_fraction * 100.0, trans.net_saved_fraction * 100.0,
              trans.breakeven_dwell_s * 1e3);
  return kExitOk;
}

// --- campaign-worker: one shard of a sharded campaign -----------------------

/// One status line, one write(2): under PIPE_BUF the write is atomic, so a
/// worker killed mid-stream tears at line granularity — the supervisor sees
/// whole lines or nothing, never interleaved fragments.
void emit_status_line(const io::ShardEvent& event) {
  using faultinject::Site;
  if (faultinject::armed() &&
      faultinject::should_fire(Site::kHeartbeatDrop)) {
    return;  // injected heartbeat loss — the shard store still has the truth
  }
  const std::string line = io::encode_shard_event(event) + "\n";
  const ssize_t n = ::write(STDOUT_FILENO, line.data(), line.size());
  (void)n;  // a closed pipe means the supervisor is gone; nothing to report to
}

/// `vinoc campaign-worker <file.campaign> --cache-dir D --shard K` — spawned
/// by the supervisor, not meant for direct use. Reads its assignment from
/// <cache>/shards/<k>.manifest, appends to its private store-<k>.jsonl /
/// failed-<k>.jsonl, and streams checksummed status lines on stdout. The
/// engine always runs with resume=true against the shard store, so a
/// RESPAWNED worker re-serves its predecessor's finished jobs as cache hits
/// and recomputes only what was never recorded.
int cmd_campaign_worker(const Args& args) {
  if (args.cache_dir.empty() || args.shard < 0) {
    std::fprintf(stderr,
                 "campaign-worker needs --cache-dir and --shard (it is "
                 "spawned by `vinoc campaign --shards N`)\n");
    return kExitUsage;
  }
  const campaign::CampaignParseResult parsed =
      campaign::parse_campaign_spec_file(args.spec_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "failed to parse %s\n", args.spec_path.c_str());
    return kExitParse;
  }
  const std::optional<std::vector<std::uint64_t>> manifest =
      io::read_shard_manifest(
          campaign::shard_manifest_path(args.cache_dir, args.shard));
  if (!manifest.has_value()) {
    // A torn manifest must not silently shrink the shard's assignment.
    std::fprintf(stderr, "shard %d: manifest missing or corrupt\n", args.shard);
    return kExitSpec;
  }

  campaign::ResultCache cache(args.cache_dir,
                              campaign::shard_store_file(args.shard));
  if (args.resume) {
    // Canonical-store records serve as hits but live in the memory tier
    // only — this shard's store never absorbs another run's records.
    cache.load_side_store(args.cache_dir + "/store.jsonl");
  }

  campaign::CampaignOptions copt;
  copt.threads = args.threads;
  copt.cache = &cache;
  copt.resume = true;
  copt.include_timing = !args.no_timing;
  copt.job_timeout_s = args.job_timeout_s;
  copt.max_retries = args.retries;
  copt.retry_backoff_ms = args.retry_backoff_ms;
  copt.deadline_s = args.deadline_s;
  copt.cancel = &g_interrupt;
  copt.job_keys = &manifest.value();
  copt.failed_file = campaign::shard_failed_file(args.shard);
  copt.on_job_start = [](const campaign::CampaignJob& job) {
    io::ShardEvent ev;
    ev.type = io::ShardEventType::kStart;
    ev.key = job.key;
    // The heartbeat goes out BEFORE the crash/stall sites so the supervisor
    // can attribute what follows to this job.
    emit_status_line(ev);
    using faultinject::Site;
    if (faultinject::armed()) {
      if (faultinject::should_fire(Site::kShardCrash)) {
        ::kill(::getpid(), SIGKILL);  // simulated hard crash (OOM, segfault)
      }
      faultinject::maybe_stall(Site::kShardStall);
    }
  };
  copt.on_record = [&args](const campaign::JobRecord& rec) {
    io::ShardEvent ev;
    ev.type = io::ShardEventType::kDone;
    ev.key = rec.key;
    ev.payload = campaign::record_to_jsonl(rec, !args.no_timing);
    emit_status_line(ev);
  };

  campaign::CampaignResult result;
  try {
    result = campaign::run_campaign(parsed.spec, copt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid campaign: %s\n", e.what());
    return kExitSpec;
  }
  io::ShardEvent summary;
  summary.type = io::ShardEventType::kSummary;
  summary.payload = io::registry_record("", result.metrics);
  emit_status_line(summary);
  if (result.interrupted()) return kExitInterrupted;
  if (result.quarantined_jobs() > 0 || result.skipped_jobs() > 0 ||
      result.store_write_errors() > 0) {
    return kExitPartial;
  }
  // An empty assignment (every job already in the store) is a healthy no-op.
  return kExitOk;
}

// --- store: inspect / merge a campaign store family --------------------------

int cmd_store(const Args& args) {
  const std::string& verb = args.spec_path;
  if (args.cache_dir.empty()) {
    std::fprintf(stderr, "store %s: missing <cache-dir>\n", verb.c_str());
    return kExitUsage;
  }
  if (verb == "verify") {
    const campaign::VerifyStats stats = campaign::verify_stores(args.cache_dir);
    std::printf("%s\n", stats.summary().c_str());
    return stats.clean() ? kExitOk : kExitPartial;
  }
  if (verb == "merge") {
    const campaign::MergeStats stats =
        campaign::merge_shard_stores(args.cache_dir, nullptr);
    if (!stats.ok) {
      std::fprintf(stderr, "store merge failed: %s\n", stats.error.c_str());
      return kExitRuntime;
    }
    std::printf("store merge: %zu shard stores -> %zu records "
                "(%zu duplicates, %zu conflicts, %zu quarantined)\n",
                stats.shard_files, stats.merged_records, stats.duplicates,
                stats.conflicts, stats.quarantined);
    return (stats.conflicts > 0 || stats.quarantined > 0) ? kExitPartial
                                                          : kExitOk;
  }
  std::fprintf(stderr, "unknown store verb '%s' (verify|merge)\n",
               verb.c_str());
  return kExitUsage;
}

// --- campaign (single-process engine or sharded supervisor) ------------------

/// The binary to exec as campaign-worker: this very image. /proc/self/exe
/// survives PATH games and cwd changes; argv[0] is the fallback elsewhere.
std::string self_exe_path(const std::string& fallback) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return fallback;
}

int cmd_campaign(const Args& args) {
  if (args.resume && args.cache_dir.empty()) {
    // Without a store there is nothing to resume from; erroring beats
    // silently recomputing the whole matrix.
    std::fprintf(stderr, "--resume requires --cache-dir\n");
    return kExitUsage;
  }
  if (args.shards > 1 && args.cache_dir.empty()) {
    std::fprintf(stderr,
                 "--shards requires --cache-dir (shard manifests and stores "
                 "live there)\n");
    return kExitUsage;
  }
  const campaign::CampaignParseResult parsed =
      campaign::parse_campaign_spec_file(args.spec_path);
  if (!parsed.ok) {
    std::fprintf(stderr, "failed to parse %s:\n", args.spec_path.c_str());
    for (const campaign::CampaignParseError& e : parsed.errors) {
      std::fprintf(stderr, "  line %d: %s\n", e.line, e.message.c_str());
    }
    return kExitParse;
  }

  campaign::CampaignOptions copt;
  copt.threads = args.threads;
  copt.cache_dir = args.cache_dir;
  copt.resume = args.resume;
  copt.include_timing = !args.no_timing;
  copt.job_timeout_s = args.job_timeout_s;
  copt.max_retries = args.retries;
  copt.retry_backoff_ms = args.retry_backoff_ms;
  copt.deadline_s = args.deadline_s;
  copt.store_max_bytes = args.store_max_bytes;
  copt.cancel = &g_interrupt;

  const std::string jsonl_path = args.out + ".jsonl";
  std::FILE* stream = std::fopen(jsonl_path.c_str(), "w");
  if (stream == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
    return kExitRuntime;
  }
  copt.stream = stream;
  int emitted = 0;
  copt.on_record = [&args, &emitted](const campaign::JobRecord& rec) {
    ++emitted;
    if (args.json) {
      std::printf("%s\n",
                  campaign::record_to_jsonl(rec, !args.no_timing).c_str());
    }
    if (args.progress) {
      std::fprintf(stderr, "[%4d] %-40s %s%s\n", emitted, rec.job.c_str(),
                   rec.feasible ? "ok" : "infeasible",
                   rec.cache_hit ? " (cached)" : "");
    }
  };

  const bool sharded = args.shards > 1;
  campaign::CampaignResult result;
  campaign::MergeStats merge;
  try {
    if (sharded) {
      campaign::ShardCampaignOptions sopt;
      sopt.base = copt;
      sopt.shards = args.shards;
      sopt.worker_exe = self_exe_path(args.self_exe);
      sopt.spec_path = args.spec_path;
      // Split a --threads budget across the workers; 0 lets each worker
      // size itself (N x hardware concurrency — fine for chaos tests, rude
      // for shared machines, exactly like -j without an argument).
      sopt.worker_threads =
          args.threads > 0 ? std::max(1, args.threads / args.shards) : 0;
      sopt.max_respawns = args.max_respawns;
      sopt.crash_retries = args.crash_retries;
      campaign::ShardCampaignResult sres =
          campaign::run_sharded_campaign(parsed.spec, sopt);
      result = std::move(sres.campaign);
      merge = sres.merge;
    } else {
      result = campaign::run_campaign(parsed.spec, copt);
    }
  } catch (const std::invalid_argument& e) {
    std::fclose(stream);
    std::fprintf(stderr, "invalid campaign: %s\n", e.what());
    return kExitSpec;
  } catch (...) {
    std::fclose(stream);
    throw;
  }
  std::fclose(stream);
  io::write_file(args.out + ".csv", campaign::records_to_csv(result.records));

  std::fprintf(stderr,
               "%s: %d jobs (%d raw, %d filtered, %d deduped) — %d run "
               "(%d width-shared in %d groups), %d cache hits, %d infeasible, "
               "%.2f s\n",
               parsed.spec.name.c_str(), result.jobs_total(),
               result.expand.raw, result.expand.filtered, result.expand.deduped,
               result.jobs_run(), result.structure_shared_jobs(),
               result.structure_groups(), result.cache_hits(),
               result.infeasible(), result.wall_s);
  std::fprintf(
      stderr,
      "sharing: peak %d buffered outcomes; delta: %d candidates, %lld "
      "reused + %lld certified, %lld rerouted (%.0f%% reuse rate), %d "
      "members skipped\n",
      result.peak_buffered_outcomes(), result.delta_candidates(), result.delta_flows_reused(),
      result.delta_flows_certified(), result.delta_flows_rerouted(),
      result.delta_reuse_rate() * 100.0, result.delta_members_skipped());
  // Machine-readable run summary: scripts (and CI's resume assertion) parse
  // this line instead of the human-formatted one above. The serialization
  // is CampaignResult::metrics verbatim — the engine registers its counters
  // in the canonical order and test_campaign locks the prefix in, so there
  // is no field list here to drift.
  std::fprintf(stderr, "resume_summary %s\n",
               io::registry_record("", result.metrics).c_str());
  g_metric_lines.push_back(
      io::registry_record("campaign_summary", result.metrics));
  if (obs::profiling_enabled()) {
    std::fprintf(stderr, "%s\n",
                 io::phase_profile_record(obs::phase_totals()).c_str());
  }
  std::fprintf(stderr, "wrote %s.{jsonl,csv}\n", args.out.c_str());
  if (result.jobs_total() == 0) {
    std::fprintf(stderr, "campaign matrix expanded to zero jobs\n");
    return kExitSpec;
  }
  // Degradation report + exit code: the campaign always completes with one
  // record per job, but anything short of a full healthy run is surfaced
  // both as a stderr line and a distinct exit code so scripts can branch.
  if (result.retries() > 0 || result.quarantined_jobs() > 0 ||
      result.skipped_jobs() > 0 || result.recovered_records() > 0 ||
      result.evicted_records() > 0 || result.store_write_errors() > 0) {
    std::fprintf(stderr,
                 "robustness: %d retries, %d quarantined (%d timeouts), "
                 "%d skipped, %d store records recovered, %d evicted, "
                 "%d store write errors%s\n",
                 result.retries(), result.quarantined_jobs(),
                 result.job_timeouts(), result.skipped_jobs(),
                 result.recovered_records(), result.evicted_records(),
                 result.store_write_errors(),
                 result.interrupted() ? " — interrupted" : "");
  }
  if (sharded) {
    const auto sv = [&result](const char* name) {
      return static_cast<long long>(result.metrics.value(name));
    };
    std::fprintf(
        stderr,
        "shards: %lld planned, %lld workers spawned, %lld crashes, "
        "%lld respawns, %lld reassigned, %lld fallback, %lld heartbeat "
        "drops; merge: %zu shard stores -> %zu records (%zu duplicates, "
        "%zu conflicts, %zu quarantined)%s%s\n",
        sv("shards"), sv("workers_spawned"), sv("worker_crashes"),
        sv("worker_respawns"), sv("reassigned_jobs"), sv("fallback_jobs"),
        sv("heartbeat_drops"), merge.shard_files, merge.merged_records,
        merge.duplicates, merge.conflicts, merge.quarantined,
        merge.ok ? "" : " — MERGE FAILED: ",
        merge.ok ? "" : merge.error.c_str());
  }
  if (result.interrupted()) {
    std::fprintf(stderr,
                 "interrupted: finished work flushed; rerun with --resume\n");
    return kExitInterrupted;
  }
  if (result.quarantined_jobs() > 0 || result.skipped_jobs() > 0 ||
      result.store_write_errors() > 0 ||
      (sharded &&
       (!merge.ok || merge.conflicts > 0 || merge.quarantined > 0))) {
    return kExitPartial;
  }
  return kExitOk;
}

int run_command(const Args& args) {
  try {
    if (args.command == "campaign") return cmd_campaign(args);
    if (args.command == "campaign-worker") return cmd_campaign_worker(args);
    if (args.command == "store") return cmd_store(args);
    if (args.command != "synth" && args.command != "sweep" &&
        args.command != "sim" && args.command != "gate") {
      return usage();
    }
    int error_code = kExitOk;
    const soc::SocSpec spec = load_spec(args, error_code);
    if (error_code != kExitOk) return error_code;
    {
      const auto problems = spec.validate();
      if (!problems.empty()) {
        std::fprintf(stderr, "invalid spec: %s\n", problems.front().c_str());
        return kExitSpec;
      }
    }
    if (args.command == "synth") return cmd_synth(args, spec);
    if (args.command == "sweep") return cmd_sweep(args, spec);
    if (args.command == "sim") return cmd_sim(args, spec);
    return cmd_gate(args, spec);
  } catch (const core::InfeasibleWidthError& e) {
    std::fprintf(stderr, "infeasible width: %s\n", e.what());
    return kExitInfeasible;
  } catch (const exec::CancelledError&) {
    // synth/sweep/sim/gate interrupted mid-synthesis (the campaign engine
    // absorbs cancellation itself and exits through cmd_campaign).
    std::fprintf(stderr, "interrupted\n");
    return kExitInterrupted;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitRuntime;
  }
}

/// Writes the --trace / --metrics-out exports after the command returned
/// (worker sinks were flushed when the command's pools joined; the main
/// thread's live sink is snapshotted directly). An export that cannot be
/// written turns a successful exit into kExitRuntime — CI relies on the
/// artifacts existing — but never masks a command failure.
int export_observability(const Args& args, int code) {
  if (!args.metrics_path.empty()) {
    std::string text;
    for (const std::string& line : g_metric_lines) {
      text += line;
      text += '\n';
    }
    text += io::phase_profile_record(obs::phase_totals());
    text += '\n';
    try {
      // Atomic (temp + rename): a crash mid-export never leaves CI with a
      // half-written metrics file.
      io::write_file(args.metrics_path, text);
    } catch (const std::exception&) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_path.c_str());
      if (code == kExitOk) code = kExitRuntime;
    }
  }
  if (!args.trace_path.empty()) {
    if (!io::write_chrome_trace_file(args.trace_path,
                                     obs::collect_trace_events())) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
      if (code == kExitOk) code = kExitRuntime;
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  // Graceful shutdown: first SIGINT/SIGTERM flips the cancel token and the
  // run exits through checkpoint-and-flush; a second signal kills outright.
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  // Deterministic fault injection (VINOC_FAULT / VINOC_FAULT_SEED /
  // VINOC_FAULT_STALL_MS) for chaos testing; off unless the env asks.
  try {
    vinoc::faultinject::configure_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad VINOC_FAULT: %s\n", e.what());
    return kExitUsage;
  }
  // Arm observability BEFORE any pool exists so worker threads register
  // their trace sinks; tracing/profiling never feed content hashes or
  // result fingerprints, so armed runs stay bit-identical to bare ones.
  if (!args.trace_path.empty()) {
    obs::set_tracing_enabled(true);
    obs::set_thread_trace_name("main");
  }
  if (!args.trace_path.empty() || !args.metrics_path.empty()) {
    obs::set_profiling_enabled(true);
  }
  return export_observability(args, run_command(args));
}
