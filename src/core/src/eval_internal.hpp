// Internal helper of the candidate-evaluation stage, shared by
// compute_partitions() (candidates.cpp) and the engine's cross-width
// partition cache (explore.cpp). NOT part of the public API —
// intra-module include only.
#pragma once

#include <memory>
#include <vector>

#include "vinoc/core/candidates.hpp"
#include "vinoc/core/vcg.hpp"
#include "vinoc/partition/kway.hpp"

namespace vinoc::core::detail {

/// Min-cut partitions of the islands of one spec into switch blocks
/// (Algorithm 1, step 11). Each island's VCG is built and coalesced once,
/// and one partition::KwayMemo per island serves every (switch count, max
/// switch size) problem of that island, so bisections and pair refinements
/// that several problems share run once. A partition depends on the spec,
/// alpha/seed, the VCG scaling, the switch count and `max_sw_size` — NOT
/// on the link width or island frequency — so one result serves every
/// width whose island has the same max switch size (the cross-width
/// partition cache keys on exactly these inputs). partition() may run
/// concurrently.
class IslandPartitioner {
 public:
  IslandPartitioner(const soc::SocSpec& spec, const SynthesisOptions& opts);

  /// Partition of `island` into `switch_count` blocks of at most
  /// max_sw_size - port_reserve cores (at least 1); empty blocks dropped.
  [[nodiscard]] IslandPartition partition(soc::IslandId island, int switch_count,
                                          int max_sw_size);

  /// Distinct bisections and pair refinements run so far, over all
  /// islands (see partition::KwayMemo).
  [[nodiscard]] long long bisections() const;
  [[nodiscard]] long long pair_refinements() const;

 private:
  int port_reserve_;
  std::vector<std::vector<soc::CoreId>> cores_;  ///< per island
  /// Per island; null for an island without cores.
  std::vector<std::unique_ptr<partition::KwayMemo>> memos_;
};

}  // namespace vinoc::core::detail
