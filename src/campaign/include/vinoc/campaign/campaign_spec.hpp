// Declarative job matrix of a synthesis campaign.
//
// A CampaignSpec names the axes — benchmark / synthetic-generator scenarios,
// islanding strategies, island counts, link widths, seeded SyntheticParams
// perturbations — and expand_jobs() takes their cross product, applies the
// include/exclude name filters, and content-hash-deduplicates the result
// into the ordered job list the engine runs. Job order is deterministic
// (axis nesting order: scenario → strategy → islands → width), which is what
// the engine's job-ordered streaming reporter and the byte-identical-output
// guarantee build on.
//
// The on-disk spelling (parse_campaign_spec) is a line-oriented `key =
// values` file, '#' comments, in the spirit of io/spec_format.hpp:
//
//   name = nightly
//   benchmarks = all              # or: d26 d16 d36 d64 d24
//   synthetic = cores:24 hubs:3 seed:7 flows:2.0 perturb:4
//   strategies = logical comm     # logical | comm | spec
//   islands = 2 3 4
//   widths = 32 64 128
//   alpha = 0.6
//   alpha_power = 0.7
//   intermediate = on             # on | off
//   include = d26 syn             # keep jobs whose name contains any of these
//   exclude = w128                # drop jobs whose name contains any of these
//
// `synthetic` and the filters are repeatable; list-valued keys replace the
// defaults.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "vinoc/core/synthesis.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::campaign {

/// One synthetic-generator scenario family: the base parameters plus
/// `perturbations` seeded variants (soc::perturb_synthetic_params).
struct SyntheticScenario {
  soc::SyntheticParams params;
  int perturbations = 0;
};

struct CampaignSpec {
  std::string name = "campaign";
  /// Named benchmarks (d26, d16, d36, d64, d24); "all" expands to all five.
  std::vector<std::string> benchmarks;
  std::vector<SyntheticScenario> synthetic;
  /// Islanding strategies: "logical" | "comm" | "spec" ("spec" keeps the
  /// benchmark's own islanding and ignores the island-count axis).
  std::vector<std::string> strategies = {"logical"};
  std::vector<int> island_counts = {2, 3, 4};
  std::vector<int> widths = {32, 64};
  /// Base options for every job; link_width_bits is overwritten by the width
  /// axis, threads / on_progress are controlled by the engine.
  core::SynthesisOptions base_options;
  /// Substring filters on the job name, applied before deduplication. Empty
  /// include list = keep everything.
  std::vector<std::string> include;
  std::vector<std::string> exclude;
};

/// One expanded, filter-surviving, deduplicated job.
struct CampaignJob {
  /// "<scenario>/<strategy>/i<islands>/w<width>" (no island segment for the
  /// "spec" strategy).
  std::string name;
  std::string scenario;
  std::string strategy;
  int islands = 0;  ///< actual island count of `spec`
  int width = 0;
  unsigned seed = 0;  ///< synthetic generator seed; 0 for named benchmarks
  soc::SocSpec spec;  ///< fully islanded, use-case scenarios attached
  core::SynthesisOptions options;
  std::uint64_t key = 0;  ///< content hash (vinoc/campaign/spec_hash.hpp)
  std::uint64_t structure_key = 0;  ///< width-group key (spec_hash.hpp)
};

struct ExpandStats {
  int raw = 0;       ///< cross-product size before filters
  int filtered = 0;  ///< dropped by include/exclude
  int deduped = 0;   ///< dropped as content-identical to an earlier job
};

/// Expands the matrix (see file header). Throws std::invalid_argument on an
/// unknown benchmark or strategy name and propagates synthetic-generator
/// errors; a spec that expands to zero jobs is returned empty, not an error.
[[nodiscard]] std::vector<CampaignJob> expand_jobs(const CampaignSpec& spec,
                                                   ExpandStats* stats = nullptr);

struct CampaignParseError {
  int line = 0;
  std::string message;
};

struct CampaignParseResult {
  bool ok = false;
  CampaignSpec spec;
  std::vector<CampaignParseError> errors;
};

/// Parses the key = values format. On any error `ok` is false and `errors`
/// lists every offending line; parsing continues past errors.
[[nodiscard]] CampaignParseResult parse_campaign_spec(std::istream& in);
[[nodiscard]] CampaignParseResult parse_campaign_spec_string(
    const std::string& text);
[[nodiscard]] CampaignParseResult parse_campaign_spec_file(
    const std::string& path);

}  // namespace vinoc::campaign
