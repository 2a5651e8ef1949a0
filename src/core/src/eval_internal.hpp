// Internal helper of the candidate-evaluation stage, shared by
// synthesize()'s partition stage (candidates.cpp) and the width sweep's
// cross-width partition cache (explore.cpp). NOT part of the public API —
// intra-module include only.
#pragma once

#include "vinoc/core/candidates.hpp"
#include "vinoc/core/vcg.hpp"

namespace vinoc::core::detail {

/// Min-cut partition of one island's VCG into `switch_count` blocks (empty
/// blocks dropped). Depends on the spec, alpha/seed, the VCG scaling and
/// `max_sw_size` — NOT on the link width or island frequency — so one
/// result serves every width whose island has the same max switch size
/// (the cross-width partition cache keys on exactly these inputs).
IslandPartition partition_island_mincut(const soc::SocSpec& spec,
                                        const SynthesisOptions& opts,
                                        const VcgScaling& scaling,
                                        soc::IslandId island, int switch_count,
                                        int max_sw_size);

}  // namespace vinoc::core::detail
