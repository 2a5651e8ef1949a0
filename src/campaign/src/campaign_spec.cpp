#include "vinoc/campaign/campaign_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::campaign {

namespace {

const std::vector<std::string>& known_benchmarks() {
  static const std::vector<std::string> names = {"d26", "d16", "d36", "d64",
                                                 "d24"};
  return names;
}

soc::Benchmark make_named_benchmark(const std::string& name) {
  if (name == "d26") return soc::make_d26_media_soc();
  if (name == "d16") return soc::make_d16_auto_soc();
  if (name == "d36") return soc::make_d36_settop_soc();
  if (name == "d64") return soc::make_d64_tile_soc();
  if (name == "d24") return soc::make_d24_imaging_soc();
  throw std::invalid_argument("unknown benchmark '" + name + "'");
}

bool known_strategy(const std::string& s) {
  return s == "logical" || s == "comm" || s == "spec";
}

bool name_passes_filters(const std::string& name, const CampaignSpec& spec) {
  if (!spec.include.empty()) {
    bool matched = false;
    for (const std::string& pat : spec.include) {
      if (name.find(pat) != std::string::npos) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  for (const std::string& pat : spec.exclude) {
    if (name.find(pat) != std::string::npos) return false;
  }
  return true;
}

}  // namespace

std::vector<CampaignJob> expand_jobs(const CampaignSpec& spec,
                                     ExpandStats* stats) {
  // Scenario axis: named benchmarks first (in spec order), then synthetic
  // families (base = variant 0, then the perturbed variants).
  struct Scenario {
    std::string name;
    unsigned seed = 0;
    soc::Benchmark bench;
  };
  std::vector<Scenario> scenarios;
  for (const std::string& name : spec.benchmarks) {
    if (name == "all") {
      for (const std::string& n : known_benchmarks()) {
        scenarios.push_back({n, 0, make_named_benchmark(n)});
      }
      continue;
    }
    scenarios.push_back({name, 0, make_named_benchmark(name)});
  }
  for (const SyntheticScenario& family : spec.synthetic) {
    if (family.perturbations < 0) {
      throw std::invalid_argument("synthetic perturb count must be >= 0");
    }
    for (int v = 0; v <= family.perturbations; ++v) {
      const soc::SyntheticParams params = soc::perturb_synthetic_params(
          family.params, static_cast<unsigned>(v));
      soc::Benchmark bench = soc::make_synthetic_soc(params);
      // The generator names the SoC "synthetic_c<cores>_s<seed>"; that is
      // unique per family member and doubles as the scenario name.
      std::string name = bench.soc.name;
      scenarios.push_back({std::move(name), params.seed, std::move(bench)});
    }
  }
  for (const std::string& strategy : spec.strategies) {
    if (!known_strategy(strategy)) {
      throw std::invalid_argument("unknown strategy '" + strategy + "'");
    }
  }

  ExpandStats local;
  std::vector<CampaignJob> jobs;
  std::unordered_set<std::uint64_t> seen;
  // Emits one job per width of one islanded spec. The spec is hashed once,
  // when the first width passes the filters, and copied into every kept job
  // but the last, which takes it.
  auto emit_widths = [&](const Scenario& sc, const std::string& strategy,
                         const std::string& prefix, soc::SocSpec job_spec) {
    std::optional<std::uint64_t> spec_hash;
    const std::size_t first = jobs.size();
    for (const int width : spec.widths) {
      ++local.raw;
      std::string name = prefix + "/w" + std::to_string(width);
      if (!name_passes_filters(name, spec)) {
        ++local.filtered;
        continue;
      }
      if (!spec_hash) spec_hash = hash_soc_spec(job_spec);
      CampaignJob job;
      job.name = std::move(name);
      job.scenario = sc.name;
      job.strategy = strategy;
      job.islands = static_cast<int>(job_spec.islands.size());
      job.width = width;
      job.seed = sc.seed;
      job.options = spec.base_options;
      job.options.link_width_bits = width;
      job.options.threads = 1;
      job.options.on_progress = nullptr;
      job.key = job_key(*spec_hash, job.options);
      if (!seen.insert(job.key).second) {
        ++local.deduped;
        continue;
      }
      job.structure_key = structure_key(*spec_hash, job.options);
      jobs.push_back(std::move(job));
    }
    for (std::size_t i = first; i < jobs.size(); ++i) {
      if (i + 1 < jobs.size()) {
        jobs[i].spec = job_spec;
      } else {
        jobs[i].spec = std::move(job_spec);
      }
    }
  };

  for (const Scenario& sc : scenarios) {
    for (const std::string& strategy : spec.strategies) {
      if (strategy == "spec") {
        emit_widths(sc, strategy, sc.name + "/spec", sc.bench.soc);
        continue;
      }
      for (const int islands : spec.island_counts) {
        // Clamp to the core count (one core per island is the maximum) and
        // name the job with the CLAMPED count, so the name matches the
        // record and an over-sized axis point collapses onto the saturated
        // one via the ordinary content dedup (visible in ExpandStats).
        const int clamped =
            std::min(islands, static_cast<int>(sc.bench.soc.core_count()));
        emit_widths(sc, strategy,
                    sc.name + "/" + strategy + "/i" + std::to_string(clamped),
                    strategy == "logical"
                        ? soc::with_logical_islands(sc.bench.soc, clamped,
                                                    sc.bench.use_cases)
                        : soc::with_communication_islands(sc.bench.soc, clamped,
                                                          sc.bench.use_cases));
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return jobs;
}

// --- Parser -----------------------------------------------------------------

namespace {

std::vector<std::string> split_tokens(const std::string& s) {
  std::vector<std::string> tokens;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

bool parse_int(const std::string& s, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || s.empty()) return false;
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || s.empty()) return false;
  out = v;
  return true;
}

/// Parses one `key:value` field of a `synthetic = ...` line.
bool parse_synthetic_field(const std::string& token, SyntheticScenario& out,
                           std::string& error) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) {
    error = "synthetic field '" + token + "' is not key:value";
    return false;
  }
  const std::string key = token.substr(0, colon);
  const std::string value = token.substr(colon + 1);
  int iv = 0;
  double dv = 0.0;
  if (key == "cores" && parse_int(value, iv)) {
    out.params.cores = iv;
  } else if (key == "hubs" && parse_int(value, iv)) {
    out.params.hubs = iv;
  } else if (key == "seed" && parse_int(value, iv)) {
    out.params.seed = static_cast<unsigned>(iv);
  } else if (key == "flows" && parse_double(value, dv)) {
    out.params.flows_per_core = dv;
  } else if (key == "latency" && parse_double(value, dv)) {
    out.params.latency_budget_cycles = dv;
  } else if (key == "perturb" && parse_int(value, iv)) {
    out.perturbations = iv;
  } else {
    error = "bad synthetic field '" + token + "'";
    return false;
  }
  return true;
}

}  // namespace

CampaignParseResult parse_campaign_spec(std::istream& in) {
  CampaignParseResult result;
  CampaignSpec& spec = result.spec;
  bool saw_benchmark_axis = false;
  std::string line;
  int line_no = 0;
  auto fail = [&result, &line_no](std::string message) {
    result.errors.push_back({line_no, std::move(message)});
  };
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::vector<std::string> tokens = split_tokens(line);
    if (tokens.empty()) continue;
    if (tokens.size() < 3 || tokens[1] != "=") {
      fail("expected 'key = value...'");
      continue;
    }
    const std::string& key = tokens[0];
    const std::vector<std::string> values(tokens.begin() + 2, tokens.end());
    // Scalar keys take exactly one value; trailing tokens are an error, not
    // silently dropped (catches two settings jammed onto one line).
    if ((key == "name" || key == "alpha" || key == "alpha_power" ||
         key == "intermediate") &&
        values.size() != 1) {
      fail("'" + key + "' takes exactly one value");
      continue;
    }
    auto single = [&]() -> const std::string& { return values.front(); };
    if (key == "name") {
      spec.name = single();
    } else if (key == "benchmarks") {
      spec.benchmarks.clear();
      for (const std::string& v : values) {
        if (v != "all" &&
            std::find(known_benchmarks().begin(), known_benchmarks().end(),
                      v) == known_benchmarks().end()) {
          fail("unknown benchmark '" + v + "'");
          continue;
        }
        spec.benchmarks.push_back(v);
      }
      saw_benchmark_axis = true;
    } else if (key == "synthetic") {
      SyntheticScenario family;
      bool ok = true;
      for (const std::string& v : values) {
        std::string error;
        if (!parse_synthetic_field(v, family, error)) {
          fail(std::move(error));
          ok = false;
        }
      }
      if (ok) spec.synthetic.push_back(family);
      saw_benchmark_axis = true;
    } else if (key == "strategies") {
      spec.strategies.clear();
      for (const std::string& v : values) {
        if (!known_strategy(v)) {
          fail("unknown strategy '" + v + "'");
          continue;
        }
        spec.strategies.push_back(v);
      }
    } else if (key == "islands" || key == "widths") {
      std::vector<int> ints;
      for (const std::string& v : values) {
        int iv = 0;
        if (!parse_int(v, iv) || iv <= 0) {
          fail("bad positive integer '" + v + "' for " + key);
          continue;
        }
        ints.push_back(iv);
      }
      (key == "islands" ? spec.island_counts : spec.widths) = std::move(ints);
    } else if (key == "alpha" || key == "alpha_power") {
      double dv = 0.0;
      if (!parse_double(single(), dv)) {
        fail("bad number '" + single() + "' for " + key);
        continue;
      }
      (key == "alpha" ? spec.base_options.alpha
                      : spec.base_options.alpha_power) = dv;
    } else if (key == "intermediate") {
      if (single() == "on") {
        spec.base_options.allow_intermediate_island = true;
      } else if (single() == "off") {
        spec.base_options.allow_intermediate_island = false;
      } else {
        fail("intermediate must be 'on' or 'off'");
      }
    } else if (key == "include") {
      spec.include.insert(spec.include.end(), values.begin(), values.end());
    } else if (key == "exclude") {
      spec.exclude.insert(spec.exclude.end(), values.begin(), values.end());
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (!saw_benchmark_axis) {
    line_no = 0;
    fail("campaign needs at least one 'benchmarks' or 'synthetic' line");
  }
  result.ok = result.errors.empty();
  return result;
}

CampaignParseResult parse_campaign_spec_string(const std::string& text) {
  std::istringstream in(text);
  return parse_campaign_spec(in);
}

CampaignParseResult parse_campaign_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    CampaignParseResult result;
    result.errors.push_back({0, "cannot open '" + path + "'"});
    return result;
  }
  return parse_campaign_spec(in);
}

}  // namespace vinoc::campaign
