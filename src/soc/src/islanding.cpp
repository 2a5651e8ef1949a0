#include "vinoc/soc/islanding.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "vinoc/partition/kway.hpp"

namespace vinoc::soc {

namespace {

/// Builds scenarios for the new islanding: an island is active in a use case
/// iff any of its cores is active; non-shutdown islands are always active.
std::vector<Scenario> scenarios_from_use_cases(const SocSpec& soc,
                                               const std::vector<UseCase>& use_cases) {
  std::vector<Scenario> scenarios;
  for (const UseCase& uc : use_cases) {
    std::unordered_set<std::string> active(uc.active_cores.begin(),
                                           uc.active_cores.end());
    Scenario s;
    s.name = uc.name;
    s.time_fraction = uc.time_fraction;
    s.island_active.assign(soc.islands.size(), false);
    for (const CoreSpec& c : soc.cores) {
      if (active.count(c.name) > 0) {
        s.island_active[static_cast<std::size_t>(c.island)] = true;
      }
    }
    for (std::size_t i = 0; i < soc.islands.size(); ++i) {
      if (!soc.islands[i].can_shutdown) s.island_active[i] = true;
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

bool island_has_shared_memory(const SocSpec& soc, IslandId island) {
  for (const CoreSpec& c : soc.cores) {
    if (c.island == island && c.kind == CoreKind::kMemory) return true;
  }
  return false;
}

}  // namespace

int logical_group_of(CoreKind kind) {
  switch (kind) {
    case CoreKind::kMemory:
    case CoreKind::kMemController:
      return 0;  // shared memory subsystem: stays powered
    case CoreKind::kCpu:
    case CoreKind::kCache:
      return 1;
    case CoreKind::kDsp:
    case CoreKind::kAudio:
      return 2;
    case CoreKind::kVideo:
    case CoreKind::kGpu:
    case CoreKind::kImaging:
    case CoreKind::kDisplay:
      return 3;
    case CoreKind::kModem:
    case CoreKind::kCrypto:
      return 4;
    case CoreKind::kDma:
      return 5;
    case CoreKind::kPeripheral:
    case CoreKind::kOther:
      return 6;
  }
  return 6;
}

int logical_group_count() { return 7; }

SocSpec with_explicit_islands(const SocSpec& base, const std::vector<int>& island_of,
                              int island_count,
                              const std::vector<UseCase>& use_cases) {
  if (island_of.size() != base.cores.size()) {
    throw std::invalid_argument("with_explicit_islands: island_of size mismatch");
  }
  if (island_count < 1) {
    throw std::invalid_argument("with_explicit_islands: island_count < 1");
  }
  SocSpec out = base;
  out.islands.clear();
  for (int i = 0; i < island_count; ++i) {
    VoltageIsland vi;
    vi.name = "VI" + std::to_string(i);
    vi.vdd_v = 1.0;
    vi.can_shutdown = true;
    out.islands.push_back(std::move(vi));
  }
  for (std::size_t c = 0; c < out.cores.size(); ++c) {
    const int isl = island_of[c];
    if (isl < 0 || isl >= island_count) {
      throw std::invalid_argument("with_explicit_islands: island index out of range");
    }
    out.cores[c].island = isl;
  }
  // Single-island reference and shared-memory islands cannot be gated.
  if (island_count == 1) {
    out.islands[0].can_shutdown = false;
  }
  for (int i = 0; i < island_count; ++i) {
    if (island_has_shared_memory(out, i)) {
      out.islands[static_cast<std::size_t>(i)].can_shutdown = false;
      out.islands[static_cast<std::size_t>(i)].name += "_mem";
    }
  }
  out.scenarios = scenarios_from_use_cases(out, use_cases);
  return out;
}

SocSpec with_logical_islands(const SocSpec& base, int island_count,
                             const std::vector<UseCase>& use_cases) {
  const auto n = static_cast<int>(base.cores.size());
  if (island_count < 1 || island_count > n) {
    throw std::invalid_argument("with_logical_islands: island_count out of range");
  }
  std::vector<int> island_of(base.cores.size(), 0);
  if (island_count >= n) {
    for (int c = 0; c < n; ++c) island_of[static_cast<std::size_t>(c)] = c;
    return with_explicit_islands(base, island_of, n, use_cases);
  }
  const int groups = logical_group_count();
  if (island_count <= groups) {
    // Merge adjacent functional groups: group g -> island g*k/groups.
    for (std::size_t c = 0; c < base.cores.size(); ++c) {
      const int g = logical_group_of(base.cores[c].kind);
      island_of[c] = g * island_count / groups;
    }
  } else {
    // More islands than groups: split the largest groups round-robin.
    // Deterministic: cores of group g get islands from a per-group pool.
    std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(groups));
    for (std::size_t c = 0; c < base.cores.size(); ++c) {
      members[static_cast<std::size_t>(logical_group_of(base.cores[c].kind))].push_back(c);
    }
    // Give each non-empty group one island, then hand extra islands to the
    // biggest groups.
    std::vector<int> extra(static_cast<std::size_t>(groups), 0);
    int non_empty = 0;
    for (const auto& m : members) {
      if (!m.empty()) ++non_empty;
    }
    int spare = island_count - non_empty;
    while (spare > 0) {
      int big = -1;
      std::size_t big_size = 0;
      for (int g = 0; g < groups; ++g) {
        const auto gs = static_cast<std::size_t>(g);
        const std::size_t shares = static_cast<std::size_t>(extra[gs]) + 1;
        if (members[gs].size() / shares > big_size &&
            members[gs].size() > shares) {
          big_size = members[gs].size() / shares;
          big = g;
        }
      }
      if (big < 0) break;
      ++extra[static_cast<std::size_t>(big)];
      --spare;
    }
    int next_island = 0;
    for (int g = 0; g < groups; ++g) {
      const auto gs = static_cast<std::size_t>(g);
      if (members[gs].empty()) continue;
      const int shares = extra[gs] + 1;
      for (std::size_t i = 0; i < members[gs].size(); ++i) {
        island_of[members[gs][i]] =
            next_island + static_cast<int>(i % static_cast<std::size_t>(shares));
      }
      next_island += shares;
    }
  }
  // Compact island ids (some may be unused if a group is empty).
  std::vector<int> remap(static_cast<std::size_t>(n), -1);
  int next = 0;
  for (int& isl : island_of) {
    if (remap[static_cast<std::size_t>(isl)] == -1) {
      remap[static_cast<std::size_t>(isl)] = next++;
    }
    isl = remap[static_cast<std::size_t>(isl)];
  }
  return with_explicit_islands(base, island_of, next, use_cases);
}

std::size_t communication_cluster_cap(std::size_t cores, int island_count) {
  // Pure greedy agglomeration would absorb every core into the memory-hub
  // cluster (hub-and-spoke traffic), leaving no island that can run its NoC
  // slower.
  if (island_count == 1) return 0;
  const auto k = static_cast<std::size_t>(island_count);
  return std::max<std::size_t>(2, (cores * 3 + 2 * k - 1) / (2 * k));
}

SocSpec with_communication_islands(const SocSpec& base, int island_count,
                                   const std::vector<UseCase>& use_cases) {
  const auto n = static_cast<int>(base.cores.size());
  if (island_count < 1 || island_count > n) {
    throw std::invalid_argument("with_communication_islands: island_count out of range");
  }
  const partition::PartitionResult clustering = partition::agglomerative_cluster(
      base.core_graph(), island_count,
      communication_cluster_cap(base.cores.size(), island_count));
  return with_explicit_islands(base, clustering.block_of, clustering.blocks,
                               use_cases);
}

}  // namespace vinoc::soc
