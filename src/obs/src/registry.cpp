#include "vinoc/obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace vinoc::obs {

void Histogram::observe(std::int64_t value) {
  if (buckets.empty()) buckets.assign(kBuckets, 0);
  const auto v = value < 0 ? 0ull : static_cast<std::uint64_t>(value);
  const int bucket = std::bit_width(v);  // 0 for 0, 1 for 1, 2 for 2..3, ...
  ++buckets[static_cast<std::size_t>(bucket)];
  ++count;
  sum += value < 0 ? 0 : value;
  max = std::max(max, value);
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count == 0) return;
  if (buckets.empty()) buckets.assign(kBuckets, 0);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

void Registry::add(std::string_view name, std::int64_t delta, MergeOp op) {
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.op != op) {
      throw std::logic_error("obs::Registry: merge-op mismatch for metric '" +
                             e.name + "'");
    }
    if (op == MergeOp::kMax) {
      e.value = std::max(e.value, delta);
    } else {
      e.value += delta;
    }
    return;
  }
  index_.emplace(std::string(name), entries_.size());
  entries_.push_back(Entry{std::string(name), op, delta});
}

void Registry::record_max(std::string_view name, std::int64_t value) {
  add(name, value, MergeOp::kMax);
}

std::int64_t Registry::value(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? 0 : entries_[it->second].value;
}

void Registry::observe(std::string_view name, std::int64_t value) {
  auto key = std::string(name);
  const auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    histogram_names_.push_back(key);
    histograms_[std::move(key)].observe(value);
  } else {
    it->second.observe(value);
  }
}

const Histogram* Registry::histogram(std::string_view name) const {
  const auto it = histograms_.find(std::string(name));
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::set_gauge(std::string_view name, double value) {
  auto key = std::string(name);
  if (gauges_.find(key) == gauges_.end()) gauge_names_.push_back(key);
  gauges_[std::move(key)] = value;
}

double Registry::gauge(std::string_view name) const {
  const auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? 0.0 : it->second;
}

void Registry::merge_from(const Registry& other) {
  for (const Entry& e : other.entries_) add(e.name, e.value, e.op);
  for (const std::string& name : other.histogram_names_) {
    auto key = name;
    const auto src = other.histograms_.find(key);
    const auto it = histograms_.find(key);
    if (it == histograms_.end()) {
      histogram_names_.push_back(key);
      histograms_[std::move(key)].merge_from(src->second);
    } else {
      it->second.merge_from(src->second);
    }
  }
  // Gauges intentionally NOT merged: they are serialization-time derived
  // values, and cross-shard double accumulation would be order-dependent.
}

void Registry::sort_by_name() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  index_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_.emplace(entries_[i].name, i);
  }
  std::sort(gauge_names_.begin(), gauge_names_.end());
  std::sort(histogram_names_.begin(), histogram_names_.end());
}

Registry& ShardedRegistry::local() {
  const std::thread::id id = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = shards_[id];
  if (!slot) slot = std::make_unique<Registry>();
  return *slot;
}

Registry ShardedRegistry::merged() const {
  Registry out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, shard] : shards_) {
      (void)id;
      out.merge_from(*shard);
    }
  }
  out.sort_by_name();
  return out;
}

}  // namespace vinoc::obs
