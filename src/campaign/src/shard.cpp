#include "vinoc/campaign/shard.hpp"

#include <filesystem>
#include <map>

#include "vinoc/campaign/spec_hash.hpp"

namespace vinoc::campaign {

namespace {

/// splitmix64 finalizer: structure keys are already uniform FNV-1a hashes,
/// but mixing before the modulo keeps the low bits independent of the hash
/// construction (FNV's low bits are its weakest).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

int ShardPlan::populated() const {
  int n = 0;
  for (const auto& keys : assignment) {
    if (!keys.empty()) ++n;
  }
  return n;
}

ShardPlan plan_shards(const std::vector<CampaignJob>& jobs, int shards) {
  if (shards < 1) shards = 1;
  ShardPlan plan;
  plan.assignment.resize(static_cast<std::size_t>(shards));
  for (const CampaignJob& job : jobs) {
    const std::size_t shard = static_cast<std::size_t>(
        mix64(job.structure_key) % static_cast<std::uint64_t>(shards));
    plan.assignment[shard].push_back(job.key);
  }
  return plan;
}

std::string shards_dir(const std::string& cache_dir) {
  return (std::filesystem::path(cache_dir) / "shards").string();
}

std::string shard_manifest_path(const std::string& cache_dir, int shard) {
  return (std::filesystem::path(shards_dir(cache_dir)) /
          (std::to_string(shard) + ".manifest"))
      .string();
}

std::string shard_store_file(int shard) {
  return "store-" + std::to_string(shard) + ".jsonl";
}

std::string shard_failed_file(int shard) {
  return "failed-" + std::to_string(shard) + ".jsonl";
}

}  // namespace vinoc::campaign
