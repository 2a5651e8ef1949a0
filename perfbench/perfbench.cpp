// perfbench — the repository benchmark (see perfbench/README.md).
//
// One process runs ONE workload as a closed loop with one client: the next
// iteration starts when the previous one returns. Inputs are generated
// in-process from --seed. Every timed iteration's output is checked against
// pinned fingerprints (pins.txt) or, for a seed without pins, against the
// first result the process computed — outside the timed region.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--pins FILE] [--work-dir DIR] [--commit HEX] [--print-pins]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
// at threads = 1 and prints the per-layer metrics. The traced pass records
// its own spans around calls into each module's public functions (nothing
// inside src/ is instrumented), keeps them in memory and writes them to
// <work-dir>/trace-<workload>-<seed>.jsonl at the end. The last stdout line
// is one JSON object {"correct","attempted","failed","metrics"}; a failed
// check makes the exit code 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fat_runner.hpp"
#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/frequency.hpp"
#include "vinoc/core/prune.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/floorplan/floorplan.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace {

using namespace vinoc;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU seconds (user + system, every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty vector.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) { return bench::median_of(v); }

/// Runs `iteration` until `seconds` have elapsed, at least `min_iterations`
/// times. Past that minimum, an iteration is not started when the previous
/// one's duration would carry the loop past the budget.
void timed_loop(double seconds, std::size_t min_iterations,
                const std::function<void()>& iteration) {
  const Clock::time_point t0 = Clock::now();
  double last = 0.0;
  for (std::size_t n = 0; n < min_iterations || since(t0) + last <= seconds; ++n) {
    const Clock::time_point s = Clock::now();
    iteration();
    last = since(s);
  }
}

// --- Command line -------------------------------------------------------------

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins;
  std::string work_dir = ".bench_work";
  std::string commit = "unknown";
  bool print_pins = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-pins") {
      a.print_pins = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      const unsigned long s = std::strtoul(v.c_str(), &end, 10);
      if (*end != '\0' || s > 0xffffffffUL) return false;
      a.seed = static_cast<unsigned>(s);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--pins") {
      a.pins = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

// --- Correctness --------------------------------------------------------------

/// Pinned fingerprints: lines `<workload> <seed> <name> <16 hex digits>`,
/// '#' comments, where <seed> is the seed of one input. An input seed with
/// at least one line is PINNED: every value checked under it must match its
/// line. Any other input falls back to determinism — every value must equal
/// the first one this process computed under the same (seed, name).
class Verifier {
 public:
  explicit Verifier(const Args& args) : workload_(args.workload) {
    if (args.pins.empty()) return;
    std::ifstream in(args.pins);
    if (!in) throw std::runtime_error("cannot read pins file " + args.pins);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string workload;
      unsigned seed = 0;
      std::string name;
      std::string hex;
      std::uint64_t value = 0;
      if (!(fields >> workload >> seed >> name >> hex) ||
          !campaign::key_from_hex(hex, value)) {
        throw std::runtime_error("malformed pins line: " + line);
      }
      if (workload == workload_) {
        expected_[{seed, name}] = value;
        pinned_seeds_.push_back(seed);
      }
    }
  }

  [[nodiscard]] bool pinned(unsigned seed) const {
    return std::find(pinned_seeds_.begin(), pinned_seeds_.end(), seed) !=
           pinned_seeds_.end();
  }

  /// True when `value` matches the expectation for (seed, name).
  bool check(unsigned seed, const std::string& name, std::uint64_t value) {
    const Key key{seed, name};
    seen_.emplace(key, value);
    const auto it = expected_.find(key);
    if (it == expected_.end()) {
      if (pinned(seed)) return fail(key, value, "no pinned value");
      expected_.emplace(key, value);
      return true;
    }
    if (it->second != value) return fail(key, value, campaign::key_hex(it->second));
    return true;
  }

  [[nodiscard]] bool ok() const { return mismatches_ == 0; }

  void print_pins() const {
    for (const auto& [key, value] : seen_) {
      std::printf("%s %u %s %s\n", workload_.c_str(), key.first, key.second.c_str(),
                  campaign::key_hex(value).c_str());
    }
  }

 private:
  using Key = std::pair<unsigned, std::string>;

  bool fail(const Key& key, std::uint64_t value, const std::string& want) {
    ++mismatches_;
    std::fprintf(stderr, "perfbench: %s input seed %u: %s = %s, expected %s\n",
                 workload_.c_str(), key.first, key.second.c_str(),
                 campaign::key_hex(value).c_str(), want.c_str());
    return false;
  }

  std::string workload_;
  std::vector<unsigned> pinned_seeds_;
  std::map<Key, std::uint64_t> expected_;
  std::map<Key, std::uint64_t> seen_;
  int mismatches_ = 0;
};

// --- Spans --------------------------------------------------------------------

/// In-memory span recorder: name, start, end and the enclosing span.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), parent, since(kProcessStart), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = since(kProcessStart);
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += sp.end_s - sp.start_s;
    }
    return s;
  }
  /// Duration of span `id` not covered by its direct children.
  [[nodiscard]] double self_time(int id) const {
    const Span& root = spans_[static_cast<std::size_t>(id)];
    double covered = 0.0;
    for (const Span& sp : spans_) {
      if (sp.parent == id) covered += sp.end_s - sp.start_s;
    }
    return (root.end_s - root.start_s) - covered;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced twin of a pass).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- Metrics ------------------------------------------------------------------

/// Ordered name -> (value, unit) map.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }

  void print_table() const {
    for (const Entry& e : entries_) {
      std::printf("  %-36s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      if (i > 0) out += ',';
      out += "\"" + io::json_escape(entries_[i].name) + "\":{\"value\":" + buf +
             ",\"unit\":\"" + io::json_escape(entries_[i].unit) + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Every per-layer metric, in BENCHMARK.json order, with its unit. A
/// workload that bypasses a layer reports it as 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kList = {
      {"soc.build_s", "s"},
      {"campaign.expand_s", "s"},
      {"floorplan.build_s", "s"},
      {"core.params_s", "s"},
      {"core.enumerate_s", "s"},
      {"core.candidates", "count"},
      {"partition.compute_s", "s"},
      {"partition.problems", "count"},
      {"core.evaluate_s", "s"},
      {"core.evaluate.calls", "count"},
      {"core.evaluate.p50_ms", "ms"},
      {"core.evaluate.p99_ms", "ms"},
      {"core.outcome.saved", "count"},
      {"core.outcome.saved_s", "s"},
      {"core.outcome.duplicate", "count"},
      {"core.outcome.duplicate_s", "s"},
      {"core.outcome.unroutable", "count"},
      {"core.outcome.unroutable_s", "s"},
      {"core.outcome.latency", "count"},
      {"core.outcome.latency_s", "s"},
      {"core.outcome.deadlock", "count"},
      {"core.outcome.deadlock_s", "s"},
      {"core.outcome.pruned", "count"},
      {"core.outcome.pruned_s", "s"},
      {"core.saved_per_routed", "ratio"},
      {"core.delta.flows_reused", "count"},
      {"core.delta.flows_rerouted", "count"},
      {"core.delta.reuse_rate", "ratio"},
      {"core.merge_s", "s"},
      {"core.width_set_s", "s"},
      {"core.width_set.shared_evals", "count"},
      {"core.width_set.fallback_evals", "count"},
      {"core.width_set.cohort_evals", "count"},
      {"core.width_set.certificate_accepts", "count"},
      {"core.width_set.partition_cache_hits", "count"},
      {"core.width_set.peak_buffered_outcomes", "count"},
      {"exec.cpu_util", "ratio"},
      {"cache.load_store_s", "s"},
      {"cache.find_record_s", "s"},
      {"cache.store_bytes", "bytes"},
      {"campaign.cache_hits", "count"},
      {"campaign.structure_groups", "count"},
      {"io.record_jsonl_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unattributed_s", "s"},
  };
  return kList;
}

/// Layer values of one traced pass. Measured values (times, and sizes that
/// embed times) are combined across passes by median; counts must repeat
/// exactly across passes (threads = 1).
struct LayerSample {
  std::map<std::string, double> measured;
  std::map<std::string, double> counts;
};

/// Combines the traced passes into the per-layer MetricSet. Returns false
/// when some count differs between passes.
bool fold_layers(const std::vector<LayerSample>& passes, MetricSet& out) {
  bool repeat = true;
  for (const auto& [name, unit] : per_layer_metrics()) {
    std::vector<double> values;
    bool is_count = false;
    for (const LayerSample& p : passes) {
      if (const auto it = p.counts.find(name); it != p.counts.end()) {
        values.push_back(it->second);
        is_count = true;
      } else if (const auto jt = p.measured.find(name); jt != p.measured.end()) {
        values.push_back(jt->second);
      }
    }
    double value = 0.0;
    if (!values.empty()) {
      value = is_count ? values.front() : median(values);
      if (is_count && std::any_of(values.begin(), values.end(),
                                  [&](double v) { return v != values.front(); })) {
        std::fprintf(stderr, "perfbench: count %s differs between traced passes\n",
                     name);
        repeat = false;
      }
    }
    out.set(name, value, unit);
  }
  return repeat;
}

// --- Shared run state -----------------------------------------------------------

/// Timed iterations cycle through this many inputs, seeded --seed,
/// --seed + 1, ...: a run's figures then rest on several inputs instead of
/// one, so runs with different seeds stay comparable.
constexpr std::size_t kInputs = 4;

/// Sample i belongs to input i mod kInputs. Takes each input's median and
/// averages them with equal weights, so the input mix stays the same however
/// many samples the time budget allows. Needs a sample of every input.
double balanced_median(const std::vector<double>& samples) {
  double sum = 0.0;
  for (std::size_t j = 0; j < kInputs; ++j) {
    std::vector<double> own;
    for (std::size_t i = j; i < samples.size(); i += kInputs) own.push_back(samples[i]);
    sum += median(own);
  }
  return sum / static_cast<double>(kInputs);
}

struct Run {
  Args args;
  Verifier verifier;
  int threads = 1;
  long long attempted = 0;
  long long failed = 0;
  bool counts_repeat = true;
  /// Whether the untimed warm-up's outputs checked out. The warm-up is not
  /// a measured operation, so it counts here and not in attempted/failed.
  bool warmup_ok = true;
  MetricSet metrics;
  std::vector<Tracer> traces;  ///< one per traced pass, written at the end
  /// Setup time spent in repetitions of input construction beyond the
  /// median one (see construct()).
  double construct_excess_s = 0.0;

  explicit Run(const Args& a) : args(a), verifier(a) {}

  /// Seed of input i (iterations cycle through kInputs inputs).
  [[nodiscard]] unsigned input_seed(std::size_t i) const {
    return args.seed + static_cast<unsigned>(i % kInputs);
  }

  /// Wall seconds from process start to now, with each repeated input
  /// construction counted once, at its median.
  [[nodiscard]] double setup_s() const {
    return since(kProcessStart) - construct_excess_s;
  }

  void count_op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// End-to-end metrics of a --trace 0 run.
  void set_end_to_end(double setup, const std::vector<double>& wall,
                      const std::vector<double>& cpu,
                      const std::vector<double>& warm_wall) {
    const auto print_samples = [](const char* name, const std::vector<double>& v) {
      std::printf("samples %s n=%zu:", name, v.size());
      for (const double x : v) std::printf(" %.4g", x);
      std::printf("\n");
    };
    print_samples("wall_s", wall);
    print_samples("cpu_s", cpu);
    print_samples("warm_wall_s", warm_wall);
    metrics.set("setup_s", setup, "s");
    metrics.set("wall_s", balanced_median(wall), "s");
    metrics.set("cpu_s", balanced_median(cpu), "s");
    metrics.set("warm_wall_s", balanced_median(warm_wall), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.set("ok_frac",
                attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                              : 0.0,
                "ratio");
  }
};

constexpr int kConstructReps = 5;

/// Times `build` kConstructReps times and returns the median; the last
/// build's product is kept in `out`. Setup counts the construction once, at
/// that median.
template <class T>
double construct(Run& run, T& out, const std::function<T()>& build) {
  std::vector<double> times;
  double sum = 0.0;
  for (int i = 0; i < kConstructReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    out = build();
    times.push_back(since(t0));
    sum += times.back();
  }
  const double med = median(times);
  run.construct_excess_s += sum - med;
  return med;
}

// --- Stage attribution (outside any timed or traced wall) ------------------------

/// Times the pipeline stages a solo synthesize() of (spec, options) would
/// run before evaluation, by calling each stage's public function once.
void attribute_stages(const soc::SocSpec& spec, const core::SynthesisOptions& options,
                      LayerSample& out) {
  Clock::time_point t0 = Clock::now();
  const floorplan::Floorplan fp = floorplan::Floorplan::build(spec, options.floorplan);
  out.measured["floorplan.build_s"] += since(t0);
  (void)fp;
  t0 = Clock::now();
  const std::vector<core::IslandNocParams> params = core::derive_island_params(
      spec, options.tech, options.link_width_bits, options.port_reserve);
  const core::IslandNocParams inter = core::derive_intermediate_params(params, options.tech);
  out.measured["core.params_s"] += since(t0);
  (void)inter;
  for (const core::IslandNocParams& p : params) {
    if (p.core_count > 0 && p.max_sw_size == 0) return;  // infeasible width
  }
  t0 = Clock::now();
  const std::vector<core::CandidateConfig> candidates =
      core::enumerate_candidates(spec, params, options);
  out.measured["core.enumerate_s"] += since(t0);
  exec::ThreadPool pool(1);
  t0 = Clock::now();
  const core::PartitionTable table =
      core::compute_partitions(spec, options, params, candidates, pool);
  out.measured["partition.compute_s"] += since(t0);
  out.counts["partition.problems"] += static_cast<double>(table.size());
}

/// Outcome ledger counts of a finished result (no per-class seconds).
void ledger_counts(const core::SynthesisStats& s, LayerSample& out) {
  out.counts["core.outcome.saved"] += s.configs_saved;
  out.counts["core.outcome.duplicate"] += s.rejected_duplicate;
  out.counts["core.outcome.unroutable"] += s.rejected_unroutable;
  out.counts["core.outcome.latency"] += s.rejected_latency;
  out.counts["core.outcome.deadlock"] += s.rejected_deadlock;
  out.counts["core.outcome.pruned"] += s.rejected_pruned;
  out.counts["core.candidates"] += s.configs_explored;
  out.counts["core.routed"] += s.configs_routed;  // only for the ratio below
}

void finish_ratios(LayerSample& s) {
  const double routed = s.counts["core.routed"];
  s.counts["core.saved_per_routed"] =
      routed > 0 ? s.counts["core.outcome.saved"] / routed : 0.0;
  const double reused = s.counts["core.delta.flows_reused"];
  const double total = reused + s.counts["core.delta.flows_rerouted"];
  s.counts["core.delta.reuse_rate"] = total > 0 ? reused / total : 0.0;
}

// --- synth-d64-l2 ---------------------------------------------------------------

const std::vector<int> kFineWidths = {128, 160, 192, 256};

soc::SocSpec d64_islanded(int islands) {
  const soc::Benchmark d64 = soc::make_d64_tile_soc();
  return soc::with_logical_islands(d64.soc, islands, d64.use_cases);
}

/// Drives synthesize()'s pipeline stage by stage through the public API —
/// floorplan, params, enumeration, partitions, then evaluate_candidate with
/// synthesize()'s delta-group wiring and the OutcomeMerger — with a span
/// around every call. threads = 1 only (candidates in enumeration order).
core::SynthesisResult staged_synthesize(const soc::SocSpec& spec,
                                        const core::SynthesisOptions& options,
                                        Tracer& tr, LayerSample& layers) {
  using core::EvalStatus;
  core::SynthesisResult result;
  {
    const SpanScope s(&tr, "floorplan.build");
    result.floorplan = floorplan::Floorplan::build(spec, options.floorplan);
  }
  {
    const SpanScope s(&tr, "core.params");
    result.island_params = core::derive_island_params(
        spec, options.tech, options.link_width_bits, options.port_reserve);
    result.intermediate_params =
        core::derive_intermediate_params(result.island_params, options.tech);
  }
  std::vector<core::CandidateConfig> candidates;
  {
    const SpanScope s(&tr, "core.enumerate");
    candidates = core::enumerate_candidates(spec, result.island_params, options);
  }
  exec::ThreadPool pool(1);
  core::PartitionTable partitions;
  {
    const SpanScope s(&tr, "partition.compute");
    partitions = core::compute_partitions(spec, options, result.island_params,
                                          candidates, pool);
  }
  std::vector<double> traffic;
  std::vector<std::size_t> flow_order;
  double ni_base = 0.0;
  // Delta groups: runs of candidates sharing switches_per_island; the first
  // of each run records, later members replay (as in synthesize()).
  std::vector<char> leader(candidates.size(), 0);
  std::vector<int> group_size;
  {
    const SpanScope s(&tr, "core.prepare");
    traffic = core::compute_core_traffic(spec);
    flow_order = core::bandwidth_descending_order(spec);
    ni_base = options.prune ? core::compute_ni_dynamic_base_w(spec, options.tech) : 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      leader[i] = i == 0 || candidates[i].switches_per_island !=
                                candidates[i - 1].switches_per_island;
      if (leader[i]) group_size.push_back(0);
      ++group_size.back();
    }
  }
  const core::EvalContext ctx{spec,        result.floorplan, result.island_params,
                              result.intermediate_params,    partitions,
                              traffic,     options,          &flow_order,
                              ni_base};
  core::EvalScratchPool scratch_pool;
  core::EvalScratch& scratch = scratch_pool.local();
  core::SharedParetoBound shared_bound;
  const core::ParetoBound empty_bound;
  core::OutcomeMerger merger(
      options,
      [&](std::size_t i, const core::ParetoBound& bound) {
        return core::evaluate_candidate(ctx, candidates[i], &scratch_pool.local(),
                                        &bound);
      },
      result);

  static const char* const kClasses[] = {"saved",   "duplicate", "unroutable",
                                         "latency", "deadlock",  "pruned"};
  std::vector<double> eval_ms;
  eval_ms.reserve(candidates.size());
  std::shared_ptr<const core::DeltaReference> group_ref;
  int group = -1;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const core::ParetoBound* bound = nullptr;
    std::shared_ptr<const core::ParetoBound> snap;
    if (options.prune) {
      snap = shared_bound.snapshot();
      bound = snap != nullptr ? snap.get() : &empty_bound;
    }
    std::shared_ptr<core::DeltaReference> rec;
    core::DeltaRouteState* delta = nullptr;
    if (leader[i]) {
      ++group;
      group_ref = nullptr;
    }
    if (options.delta_eval) {
      if (leader[i]) {
        if (group_size[static_cast<std::size_t>(group)] > 1) {
          rec = std::make_shared<core::DeltaReference>();
        }
      } else if (group_ref != nullptr) {
        scratch.delta.ref = group_ref.get();
        delta = &scratch.delta;
      }
    }
    const Clock::time_point t0 = Clock::now();
    core::CandidateOutcome out;
    {
      const SpanScope s(&tr, "core.evaluate");
      out = core::evaluate_candidate(ctx, candidates[i], &scratch, bound, rec.get(),
                                     delta);
    }
    const double eval_s = since(t0);
    eval_ms.push_back(1e3 * eval_s);
    if (rec != nullptr && rec->valid) group_ref = std::move(rec);
    if (delta != nullptr) {
      scratch.delta.ref = nullptr;
      if (delta->pnorm_matched) {
        layers.counts["core.delta.flows_reused"] += delta->flows_reused;
        layers.counts["core.delta.flows_rerouted"] += delta->flows_rerouted;
      }
    }
    if (options.prune && out.status == EvalStatus::kRouted && out.deadlock_free) {
      shared_bound.publish(out.point.metrics.noc_dynamic_w,
                           out.point.metrics.avg_latency_cycles);
    }
    const core::SynthesisStats before = result.stats;
    {
      const SpanScope s(&tr, "core.merge");
      merger.add(std::move(out));
    }
    // Classify from the merger's verdict (the stats counter that moved).
    const core::SynthesisStats& after = result.stats;
    const int moved[] = {after.configs_saved - before.configs_saved,
                         after.rejected_duplicate - before.rejected_duplicate,
                         after.rejected_unroutable - before.rejected_unroutable,
                         after.rejected_latency - before.rejected_latency,
                         after.rejected_deadlock - before.rejected_deadlock,
                         after.rejected_pruned - before.rejected_pruned};
    for (int c = 0; c < 6; ++c) {
      if (moved[c] != 0) {
        layers.measured[std::string("core.outcome.") + kClasses[c] + "_s"] += eval_s;
      }
    }
  }
  {
    const SpanScope s(&tr, "core.merge");
    merger.finish();
  }
  ledger_counts(result.stats, layers);
  layers.counts["partition.problems"] = static_cast<double>(partitions.size());
  layers.counts["core.evaluate.calls"] = static_cast<double>(eval_ms.size());
  layers.measured["core.evaluate.p50_ms"] = percentile(eval_ms, 0.50);
  layers.measured["core.evaluate.p99_ms"] = percentile(eval_ms, 0.99);
  for (const char* c : kClasses) {
    layers.measured.emplace(std::string("core.outcome.") + c + "_s", 0.0);
  }
  static const std::pair<const char*, const char*> kStageSpans[] = {
      {"floorplan.build_s", "floorplan.build"}, {"core.params_s", "core.params"},
      {"core.enumerate_s", "core.enumerate"},   {"partition.compute_s", "partition.compute"},
      {"core.evaluate_s", "core.evaluate"},     {"core.merge_s", "core.merge"}};
  for (const auto& [metric, span] : kStageSpans) layers.measured[metric] = tr.total(span);
  return result;
}

/// Options of the run's inputs: partition_seed = input seed.
std::vector<core::SynthesisOptions> d64_inputs(const Run& run) {
  std::vector<core::SynthesisOptions> inputs(kInputs);
  for (std::size_t j = 0; j < kInputs; ++j) {
    inputs[j].partition_seed = run.input_seed(j);
    inputs[j].threads = run.threads;
  }
  return inputs;
}

/// Untraced timed loop of a d64 workload: iteration i runs `op` on input
/// i mod kInputs, and `check` verifies its output outside the timed region.
template <class Result>
void measure_d64(Run& run, const std::vector<core::SynthesisOptions>& inputs,
                 const std::function<Result(const core::SynthesisOptions&)>& op,
                 const std::function<bool(unsigned, const Result&)>& check) {
  const double setup = run.setup_s();
  std::vector<double> wall;
  std::vector<double> cpu;
  timed_loop(run.args.seconds, kInputs, [&] {
    const std::size_t j = wall.size() % kInputs;
    const double c0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const Result r = op(inputs[j]);
    wall.push_back(since(t0));
    cpu.push_back(cpu_seconds() - c0);
    run.count_op(check(run.input_seed(j), r));
  });
  // No state survives between calls, so a warm repeat is the same
  // measurement as an iteration.
  run.set_end_to_end(setup, wall, cpu, wall);
}

/// Traced loop: alternates `reference` (one untraced iteration) with
/// `traced` (the traced pass, recorded under a root span named
/// `root_name`) until the run's seconds are spent; both check and count
/// their own outputs. Returns the passes' layer samples, with exec.cpu_util
/// (from the reference iterations) and trace.overhead_frac added.
std::vector<LayerSample> trace_loop(Run& run, const char* root_name,
                                    const std::function<void()>& reference,
                                    const std::function<void(Tracer&, LayerSample&)>& traced) {
  std::vector<double> ref_wall;
  std::vector<double> ref_util;
  std::vector<double> traced_wall;
  std::vector<LayerSample> passes;
  timed_loop(run.args.seconds, 1, [&] {
    const double c0 = cpu_seconds();
    Clock::time_point t0 = Clock::now();
    reference();
    ref_wall.push_back(since(t0));
    ref_util.push_back((cpu_seconds() - c0) / ref_wall.back() / run.threads);

    Tracer& tr = run.traces.emplace_back();
    LayerSample layers;
    t0 = Clock::now();
    const int root = tr.begin(root_name);
    traced(tr, layers);
    tr.end(root);
    traced_wall.push_back(since(t0));
    layers.measured["trace.unattributed_s"] = tr.self_time(root);
    finish_ratios(layers);
    passes.push_back(std::move(layers));
  });
  // Run-level values ride on the first pass (fold_layers takes the median
  // over the passes that carry a value).
  passes.front().measured["exec.cpu_util"] = median(ref_util);
  passes.front().measured["trace.overhead_frac"] =
      (median(traced_wall) - median(ref_wall)) / median(ref_wall);
  return passes;
}

void run_synth(Run& run) {
  soc::SocSpec spec;
  const double build_s = construct<soc::SocSpec>(run, spec, [] { return d64_islanded(2); });
  const std::vector<core::SynthesisOptions> inputs = d64_inputs(run);
  const auto op = [&](const core::SynthesisOptions& o) { return core::synthesize(spec, o); };
  const auto check = [&](unsigned seed, const core::SynthesisResult& r) {
    return run.verifier.check(seed, "result", campaign::result_fingerprint(r));
  };

  // Warm-up iteration on the first input (which the traced pass uses too):
  // establishes or checks the reference fingerprint.
  run.warmup_ok = check(run.input_seed(0), op(inputs.front()));
  if (run.args.print_pins) return;
  if (!run.args.trace) {
    measure_d64<core::SynthesisResult>(run, inputs, op, check);
    return;
  }

  core::SynthesisResult ref;
  const std::vector<LayerSample> passes = trace_loop(
      run, "synth.traced",
      [&] {
        ref = op(inputs.front());
        run.count_op(check(run.input_seed(0), ref));
      },
      [&](Tracer& tr, LayerSample& layers) {
        const core::SynthesisResult staged =
            staged_synthesize(spec, inputs.front(), tr, layers);
        // The staged pass must reproduce synthesize() exactly, delta
        // tallies included.
        const bool same_delta =
            layers.counts["core.delta.flows_reused"] == ref.stats.delta_flows_reused &&
            layers.counts["core.delta.flows_rerouted"] == ref.stats.delta_flows_rerouted;
        if (!same_delta) std::fprintf(stderr, "perfbench: staged delta tallies differ\n");
        run.count_op(check(run.input_seed(0), staged) && same_delta);
      });
  run.counts_repeat = fold_layers(passes, run.metrics);
  run.metrics.set("soc.build_s", build_s, "s");
}

// --- sweep-d64-l4-fine ------------------------------------------------------------

void run_sweep(Run& run) {
  soc::SocSpec spec;
  const double build_s = construct<soc::SocSpec>(run, spec, [] { return d64_islanded(4); });
  const std::vector<core::SynthesisOptions> inputs = d64_inputs(run);
  const auto op = [&](const core::SynthesisOptions& o) {
    return core::explore_link_widths(spec, kFineWidths, o).entries;
  };
  const auto check = [&](unsigned seed, const std::vector<core::WidthSweepEntry>& entries) {
    bool ok = entries.size() == kFineWidths.size();
    for (const core::WidthSweepEntry& e : entries) {
      ok = run.verifier.check(seed, "w" + std::to_string(e.width_bits),
                              campaign::result_fingerprint(e.result)) &&
           ok;
    }
    return ok;
  };

  run.warmup_ok = check(run.input_seed(0), op(inputs.front()));
  if (run.args.print_pins) return;
  if (!run.args.trace) {
    measure_d64<std::vector<core::WidthSweepEntry>>(run, inputs, op, check);
    return;
  }

  std::vector<LayerSample> passes = trace_loop(
      run, "sweep.traced",
      [&] { run.count_op(check(run.input_seed(0), op(inputs.front()))); },
      [&](Tracer& tr, LayerSample& layers) {
        core::WidthSetStats st;
        std::vector<core::WidthSweepEntry> entries;
        {
          exec::ThreadPool pool(1);
          core::EvalScratchPool scratch;
          const SpanScope s(&tr, "core.width_set");
          entries = core::synthesize_width_set(spec, kFineWidths, inputs.front(), pool,
                                               scratch, &st);
        }
        layers.measured["core.width_set_s"] = tr.total("core.width_set");
        layers.counts["core.width_set.shared_evals"] = st.shared_evals;
        layers.counts["core.width_set.fallback_evals"] = st.fallback_evals;
        layers.counts["core.width_set.cohort_evals"] = st.cohort_evals;
        layers.counts["core.width_set.certificate_accepts"] = st.certificate_accepts;
        layers.counts["core.width_set.partition_cache_hits"] = st.partition_cache_hits;
        layers.counts["core.width_set.peak_buffered_outcomes"] = st.peak_buffered_outcomes;
        layers.counts["core.delta.flows_reused"] = static_cast<double>(st.delta_flows_reused);
        layers.counts["core.delta.flows_rerouted"] =
            static_cast<double>(st.delta_flows_rerouted);
        for (const core::WidthSweepEntry& e : entries) ledger_counts(e.result.stats, layers);
        run.count_op(check(run.input_seed(0), entries));
      });
  // Stage attribution: each width's pre-evaluation stages as a solo
  // synthesize() would run them (the sweep itself shares some across widths).
  LayerSample& first = passes.front();
  for (const int w : kFineWidths) {
    core::SynthesisOptions wopt = inputs.front();
    wopt.link_width_bits = w;
    attribute_stages(spec, wopt, first);
  }
  for (LayerSample& p : passes) p.counts["partition.problems"] = first.counts["partition.problems"];
  run.counts_repeat = fold_layers(passes, run.metrics);
  for (const char* m : {"floorplan.build_s", "core.params_s", "core.enumerate_s",
                        "partition.compute_s"}) {
    run.metrics.set(m, first.measured[m], "s");
  }
  run.metrics.set("soc.build_s", build_s, "s");
}

// --- campaign-mix -------------------------------------------------------------------

campaign::CampaignSpec campaign_mix(unsigned seed) {
  campaign::CampaignSpec cs;
  cs.name = "campaign-mix";
  campaign::SyntheticScenario small;
  small.params.cores = 24;
  small.params.hubs = 3;
  small.params.seed = seed;
  small.perturbations = 7;
  campaign::SyntheticScenario large;
  large.params.cores = 36;
  large.params.hubs = 4;
  large.params.seed = seed + 4;
  large.perturbations = 3;
  cs.synthetic = {small, large};
  cs.strategies = {"logical", "comm"};
  cs.island_counts = {2, 3};
  cs.widths = {32, 64};
  return cs;
}

/// Builds every islanded SoC of the matrix through the soc module's public
/// generators (what expand_jobs does before hashing). Returns the count.
std::size_t build_campaign_socs(const campaign::CampaignSpec& cs) {
  std::size_t n = 0;
  for (const campaign::SyntheticScenario& sc : cs.synthetic) {
    for (int v = 0; v <= sc.perturbations; ++v) {
      const soc::Benchmark b = soc::make_synthetic_soc(
          soc::perturb_synthetic_params(sc.params, static_cast<unsigned>(v)));
      for (const int k : cs.island_counts) {
        n += soc::with_logical_islands(b.soc, k, b.use_cases).core_count() > 0;
        n += soc::with_communication_islands(b.soc, k, b.use_cases).core_count() > 0;
      }
    }
  }
  return n;
}

std::uint64_t stream_hash(const std::vector<campaign::JobRecord>& records,
                          bool as_computed) {
  std::string text;
  for (campaign::JobRecord r : records) {
    if (as_computed) r.cache_hit = false;
    text += campaign::record_to_jsonl(r, false);
    text += '\n';
  }
  return io::fnv1a64(text);
}

/// Checks one campaign result; returns the number of failed jobs. A cold
/// run must match the pinned stream; a warm run must be all cache hits and,
/// with cache_hit cleared, reproduce the cold stream byte for byte.
long long check_campaign(Run& run, unsigned seed, const campaign::CampaignResult& r,
                         bool warm, std::size_t jobs) {
  long long bad = 0;
  for (const campaign::JobRecord& rec : r.records) bad += rec.status != "ok";
  bool ok = run.verifier.check(seed, "records", stream_hash(r.records, warm)) &&
            r.records.size() == jobs;
  if (warm) ok = ok && static_cast<std::size_t>(r.cache_hits()) == jobs;
  if (!ok) bad = static_cast<long long>(jobs);
  run.attempted += static_cast<long long>(jobs);
  run.failed += bad;
  return bad;
}

struct CampaignPass {
  campaign::CampaignResult cold;
  campaign::CampaignResult warm;
};

/// Expansion, cold run into a fresh store, then the warm path: fresh cache,
/// load_store, find_record over every job, record_to_jsonl over every
/// record, warm resume. With a tracer every step is a span; without one it
/// is the untraced twin the tracing overhead is measured against.
CampaignPass campaign_pass(const campaign::CampaignSpec& cs, const std::string& store,
                           int threads, Tracer* tr, LayerSample* layers) {
  std::filesystem::remove_all(store);
  CampaignPass pass;
  std::vector<campaign::CampaignJob> jobs;
  {
    const SpanScope s(tr, "campaign.expand");
    jobs = campaign::expand_jobs(cs);
  }
  campaign::ResultCache cold_cache(store);
  {
    const SpanScope s(tr, "campaign.run_cold");
    campaign::CampaignOptions opt;
    opt.threads = threads;
    opt.cache = &cold_cache;
    pass.cold = campaign::run_campaign(cs, opt);
  }
  campaign::ResultCache warm_cache(store);
  {
    const SpanScope s(tr, "cache.load_store");
    (void)warm_cache.load_store();
  }
  std::size_t found = 0;
  {
    const SpanScope s(tr, "cache.find_record");
    for (const campaign::CampaignJob& job : jobs) found += warm_cache.find_record(job.key).has_value();
  }
  std::size_t bytes = 0;
  {
    const SpanScope s(tr, "io.record_jsonl");
    for (const campaign::JobRecord& rec : pass.cold.records) {
      bytes += campaign::record_to_jsonl(rec, false).size();
    }
  }
  {
    const SpanScope s(tr, "campaign.run_warm");
    campaign::CampaignOptions opt;
    opt.threads = threads;
    opt.cache = &warm_cache;
    opt.resume = true;
    pass.warm = campaign::run_campaign(cs, opt);
  }
  if (found != jobs.size() || bytes == 0) {
    throw std::runtime_error("campaign store does not serve every job");
  }
  if (layers != nullptr) {
    // Measured, not counted: store lines carry each job's measured wall_ms.
    layers->measured["cache.store_bytes"] =
        static_cast<double>(std::filesystem::file_size(cold_cache.store_path()));
    // Outcome ledger of every computed job, read back from the cache's
    // full-result tier.
    for (const campaign::CampaignJob& job : jobs) {
      if (const auto res = cold_cache.find_result(job.key)) {
        ledger_counts(res->stats, *layers);
      }
    }
  }
  return pass;
}

void run_campaign_mix(Run& run) {
  std::vector<campaign::CampaignSpec> inputs;
  for (std::size_t j = 0; j < kInputs; ++j) inputs.push_back(campaign_mix(run.input_seed(j)));
  // The warm-up and the traced pass use the first input.
  const campaign::CampaignSpec& cs = inputs.front();
  const unsigned seed0 = run.input_seed(0);
  std::size_t socs = 0;
  const double build_s = construct<std::size_t>(
      run, socs, [&] { return build_campaign_socs(cs); });
  std::vector<campaign::CampaignJob> jobs;
  const double expand_s = construct<std::vector<campaign::CampaignJob>>(
      run, jobs, [&] { return campaign::expand_jobs(cs); });
  std::vector<std::size_t> job_count = {jobs.size()};
  for (std::size_t j = 1; j < kInputs; ++j) {
    job_count.push_back(campaign::expand_jobs(inputs[j]).size());
  }
  const std::string store = run.args.work_dir + "/campaign-store";

  // Warm-up: one cold run and one warm resume, checked.
  double warm_probe_s = 0.0;
  const auto cold_once = [&](const campaign::CampaignSpec& spec) {
    std::filesystem::remove_all(store);
    campaign::CampaignOptions opt;
    opt.threads = run.threads;
    opt.cache_dir = store;
    return campaign::run_campaign(spec, opt);
  };
  campaign::CampaignOptions warm_opt;
  warm_opt.threads = run.threads;
  warm_opt.cache_dir = store;
  warm_opt.resume = true;
  {
    const campaign::CampaignResult cold = cold_once(cs);
    const Clock::time_point t0 = Clock::now();
    const campaign::CampaignResult warm = campaign::run_campaign(cs, warm_opt);
    warm_probe_s = since(t0);
    run.warmup_ok = check_campaign(run, seed0, cold, false, jobs.size()) == 0 &&
                    check_campaign(run, seed0, warm, true, jobs.size()) == 0;
    run.attempted = 0;
    run.failed = 0;
  }
  if (run.args.print_pins) return;

  if (!run.args.trace) {
    // One warm resume takes milliseconds: batch enough of them per sample
    // to time ~0.25 s.
    const int batch = std::clamp(static_cast<int>(0.25 / warm_probe_s), 1, 200);
    const double setup = run.setup_s();
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> warm_wall;
    timed_loop(run.args.seconds, kInputs, [&] {
      const std::size_t j = wall.size() % kInputs;
      std::filesystem::remove_all(store);
      campaign::CampaignOptions opt;
      opt.threads = run.threads;
      opt.cache_dir = store;
      const double c0 = cpu_seconds();
      Clock::time_point t0 = Clock::now();
      const campaign::CampaignResult cold = campaign::run_campaign(inputs[j], opt);
      wall.push_back(since(t0));
      cpu.push_back(cpu_seconds() - c0);
      (void)check_campaign(run, run.input_seed(j), cold, false, job_count[j]);

      std::vector<campaign::CampaignResult> warm(static_cast<std::size_t>(batch));
      t0 = Clock::now();
      for (campaign::CampaignResult& w : warm) w = campaign::run_campaign(inputs[j], warm_opt);
      warm_wall.push_back(since(t0) / batch);
      for (const campaign::CampaignResult& w : warm) {
        (void)check_campaign(run, run.input_seed(j), w, true, job_count[j]);
      }
    });
    std::printf("warm resumes per warm_wall_s sample: %d\n", batch);
    run.set_end_to_end(setup, wall, cpu, warm_wall);
    std::filesystem::remove_all(store);
    return;
  }

  // Traced runs are always single-threaded so every count repeats.
  std::vector<LayerSample> passes = trace_loop(
      run, "campaign.traced",
      [&] {
        const CampaignPass ref = campaign_pass(cs, store, 1, nullptr, nullptr);
        (void)check_campaign(run, seed0, ref.cold, false, jobs.size());
        (void)check_campaign(run, seed0, ref.warm, true, jobs.size());
      },
      [&](Tracer& tr, LayerSample& layers) {
        const CampaignPass p = campaign_pass(cs, store, 1, &tr, &layers);
        (void)check_campaign(run, seed0, p.cold, false, jobs.size());
        (void)check_campaign(run, seed0, p.warm, true, jobs.size());
        layers.measured["cache.load_store_s"] = tr.total("cache.load_store");
        layers.measured["cache.find_record_s"] = tr.total("cache.find_record");
        layers.measured["io.record_jsonl_s"] = tr.total("io.record_jsonl");
        layers.counts["campaign.cache_hits"] = p.warm.cache_hits();
        layers.counts["campaign.structure_groups"] = p.cold.structure_groups();
        layers.counts["core.width_set.shared_evals"] = p.cold.width_shared_evals();
        layers.counts["core.width_set.fallback_evals"] = p.cold.width_fallback_evals();
        layers.counts["core.width_set.cohort_evals"] = p.cold.width_cohort_evals();
        layers.counts["core.width_set.certificate_accepts"] = p.cold.certificate_accepts();
        layers.counts["core.width_set.peak_buffered_outcomes"] =
            p.cold.peak_buffered_outcomes();
        layers.counts["core.delta.flows_reused"] =
            static_cast<double>(p.cold.delta_flows_reused());
        layers.counts["core.delta.flows_rerouted"] =
            static_cast<double>(p.cold.delta_flows_rerouted());
      });
  std::filesystem::remove_all(store);

  // Stage attribution per job, and the CPU use of the configured pool.
  LayerSample& first = passes.front();
  for (const campaign::CampaignJob& job : jobs) attribute_stages(job.spec, job.options, first);
  for (LayerSample& p : passes) p.counts["partition.problems"] = first.counts["partition.problems"];
  run.counts_repeat = fold_layers(passes, run.metrics);
  for (const char* m : {"floorplan.build_s", "core.params_s", "core.enumerate_s",
                        "partition.compute_s"}) {
    run.metrics.set(m, first.measured[m], "s");
  }
  const double c0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const campaign::CampaignResult cold = cold_once(cs);
  const double util = (cpu_seconds() - c0) / since(t0) / run.threads;
  (void)check_campaign(run, seed0, cold, false, jobs.size());
  std::filesystem::remove_all(store);
  run.metrics.set("soc.build_s", build_s, "s");
  run.metrics.set("campaign.expand_s", expand_s, "s");
  run.metrics.set("exec.cpu_util", util, "ratio");
}

// --- Entry point ------------------------------------------------------------------

void print_provenance(const Run& run) {
  const bench::CpuSample cpu = bench::sample_cpu();
  io::JsonlWriter w;
  w.field("record", "provenance")
      .field("workload", run.args.workload)
      .field("seed", static_cast<std::int64_t>(run.args.seed))
      .field("threads", run.threads)
      .field("trace_threads", 1)
      .field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .field("cpu_model", [] {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line)) {
          if (line.rfind("model name", 0) == 0) {
            const std::size_t p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
          }
        }
        return std::string("unknown");
      }())
      .field("cpu_governor", cpu.governor)
#if defined(__clang__)
      .field("compiler", std::string("clang ") + __clang_version__)
#else
      .field("compiler", std::string("gcc ") + __VERSION__)
#endif
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("git_commit", run.args.commit)
      .field("inputs", [&] {
        std::string seeds;
        for (std::size_t j = 0; j < (run.args.trace ? 1 : kInputs); ++j) {
          seeds += (j > 0 ? " " : "") + std::to_string(run.input_seed(j)) +
                   (run.verifier.pinned(run.input_seed(j)) ? "(pinned)" : "");
        }
        return seeds;
      }());
  std::printf("%s\n", w.line().c_str());
}

void write_traces(const Run& run) {
  if (run.traces.empty()) return;
  const std::string path = run.args.work_dir + "/trace-" + run.args.workload + "-" +
                           std::to_string(run.args.seed) + ".jsonl";
  std::ofstream out(path);
  for (std::size_t p = 0; p < run.traces.size(); ++p) {
    const std::vector<Tracer::Span>& spans = run.traces[p].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      io::JsonlWriter w;
      w.field("pass", static_cast<std::int64_t>(p))
          .field("id", static_cast<std::int64_t>(i))
          .field("parent", spans[i].parent)
          .field("name", spans[i].name)
          .field("start_s", spans[i].start_s)
          .field("end_s", spans[i].end_s);
      out << w.line() << '\n';
    }
  }
  std::printf("trace: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <synth-d64-l2|sweep-d64-l4-fine|"
                 "campaign-mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--pins FILE] [--work-dir DIR] [--commit HEX] [--print-pins]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: assertions are enabled; refusing to measure\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: build type %s is not Release; refusing to measure\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    Run run(args);
    std::filesystem::create_directories(args.work_dir);
    const int nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    if (args.workload == "synth-d64-l2") {
      run_synth(run);
    } else if (args.workload == "sweep-d64-l4-fine") {
      run_sweep(run);
    } else if (args.workload == "campaign-mix") {
      run.threads = std::min(2, nproc);
      run_campaign_mix(run);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    if (args.print_pins) {
      run.verifier.print_pins();
      return run.verifier.ok() && run.warmup_ok ? 0 : 1;
    }
    print_provenance(run);
    write_traces(run);
    run.metrics.print_table();
    const bool correct =
        run.verifier.ok() && run.failed == 0 && run.counts_repeat && run.warmup_ok;
    std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
                correct ? "true" : "false", run.attempted, run.failed,
                run.metrics.json().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
