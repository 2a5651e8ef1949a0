// Core-to-voltage-island assignment strategies.
//
// The paper (Section 5) studies two ways of grouping the D26 cores into VIs,
// with the island count swept from 1 (reference: everything in one island)
// to 26 (every core its own island):
//   * "logical partitioning": cores grouped by functionality — e.g. all
//     shared memories in one island (which is then never shut down, since
//     shared memories must stay reachable);
//   * "communication based partitioning": cores with high mutual bandwidth
//     grouped together, so heavy flows stay inside an island.
//
// The island assignment is an *input* to topology synthesis; these helpers
// just build the input variants the experiments sweep over.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::soc {

/// Device-level use case expressed on cores (islanding-independent). The
/// islanding helpers translate these into SocSpec::scenarios.
struct UseCase {
  std::string name;
  double time_fraction = 0.0;
  std::vector<std::string> active_cores;
};

/// Ordered functional groups used by logical partitioning; adjacent groups
/// merge first when the island count is smaller than the group count.
/// Group 0 (shared memories) yields a non-shutdown island.
[[nodiscard]] int logical_group_of(CoreKind kind);
[[nodiscard]] int logical_group_count();

/// Rebuilds `base` with `island_count` islands assigned by functionality.
/// island_count == core_count() puts every core in its own island.
/// The island containing shared memories (and the single island when
/// island_count == 1) is marked can_shutdown = false.
[[nodiscard]] SocSpec with_logical_islands(const SocSpec& base, int island_count,
                                           const std::vector<UseCase>& use_cases = {});

/// Cluster size cap of with_communication_islands for `cores` cores in
/// `island_count` islands: 1.5x the balanced share (at least 2), or 0 (no
/// cap) for a single island. Requires island_count >= 1.
[[nodiscard]] std::size_t communication_cluster_cap(std::size_t cores, int island_count);

/// Rebuilds `base` with `island_count` islands by agglomerative clustering of
/// the core communication graph (heaviest-bandwidth pairs merge first) under
/// communication_cluster_cap.
[[nodiscard]] SocSpec with_communication_islands(
    const SocSpec& base, int island_count,
    const std::vector<UseCase>& use_cases = {});

/// Rebuilds `base` using an explicit assignment (size core_count(), values in
/// [0, island_count)). Used by tests and the text-format loader.
[[nodiscard]] SocSpec with_explicit_islands(const SocSpec& base,
                                            const std::vector<int>& island_of,
                                            int island_count,
                                            const std::vector<UseCase>& use_cases = {});

}  // namespace vinoc::soc
