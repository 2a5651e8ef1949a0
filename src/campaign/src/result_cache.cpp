#include "vinoc/campaign/result_cache.hpp"

#include <filesystem>
#include <fstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "vinoc/faultinject/faultinject.hpp"
#include "vinoc/io/jsonl.hpp"

namespace vinoc::campaign {

namespace {

/// Append failures tolerated before the cache stops touching the disk store
/// for the rest of its lifetime (memory tiers keep serving). Three strikes:
/// one flaky write is worth retrying on the next record, a dead disk is not
/// worth stalling every job on.
constexpr std::uint64_t kDegradeAfterErrors = 3;

/// Reads the whole file at `path` into `text` in one read; false when it
/// cannot be opened.
bool read_file(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  text.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
  in.seekg(0);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return true;
}

/// The '\n'-separated lines of `text`, without their newlines; a final
/// line without one (a torn tail) is included.
std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

}  // namespace

ResultCache::ResultCache(std::string dir, std::string store_file)
    : dir_(std::move(dir)), store_file_(std::move(store_file)) {
  if (!dir_.empty()) std::filesystem::create_directories(dir_);
}

std::shared_ptr<const core::SynthesisResult> ResultCache::find_result(
    std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = results_.find(key);
  return it == results_.end() ? nullptr : it->second;
}

void ResultCache::put_result(
    std::uint64_t key, std::shared_ptr<const core::SynthesisResult> result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  results_.emplace(key, std::move(result));  // first writer wins
}

std::optional<JobRecord> ResultCache::find_record(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::string ResultCache::record_line(const JobRecord& record) const {
  return io::add_line_checksum(record_to_jsonl(record));
}

void ResultCache::put_record(const JobRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!records_.emplace(record.key, record).second) return;  // already stored
  if (dir_.empty() || degraded_) return;
  const std::string line = record_line(record);
  bool ok = false;
  try {
    faultinject::maybe_fail(faultinject::Site::kStoreWrite, "store append");
    std::ofstream out(store_path(), std::ios::app);
    if (out) {
      out << line << '\n';
      out.flush();
      ok = static_cast<bool>(out);
    }
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    // Graceful degradation, not an abort: the record stays served from
    // memory, the campaign keeps running, and the error is surfaced through
    // the store_write_errors counter (the CLI degrades the exit code).
    ++store_write_errors_;
    if (store_write_errors_ >= kDegradeAfterErrors) degraded_ = true;
    return;
  }
  store_order_.push_back(record.key);
  if (store_bytes_) *store_bytes_ += line.size() + 1;
  if (store_max_bytes_ > 0 && store_bytes_locked() > store_max_bytes_) {
    evict_to_cap_locked();
  }
}

std::uint64_t ResultCache::store_bytes_locked() {
  if (!store_bytes_) {
    std::uint64_t bytes = 0;
    for (const std::uint64_t key : store_order_) {
      bytes += record_line(records_.at(key)).size() + 1;
    }
    store_bytes_ = bytes;
  }
  return *store_bytes_;
}

void ResultCache::rewrite_store_locked(const std::vector<std::uint64_t>& keys) {
  std::string text;
  std::uint64_t bytes = 0;
  for (const std::uint64_t key : keys) {
    const std::string line = record_line(records_.at(key));
    text += line;
    text += '\n';
    bytes += line.size() + 1;
  }
  const std::string tmp = store_path() + ".tmp";
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      out << text;
      out.flush();
      ok = static_cast<bool>(out);
    }
  }
  if (ok) {
    std::error_code ec;
    std::filesystem::rename(tmp, store_path(), ec);
    ok = !ec;
  }
  if (!ok) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    ++store_write_errors_;
    if (store_write_errors_ >= kDegradeAfterErrors) degraded_ = true;
    return;
  }
  store_order_ = keys;
  store_bytes_ = bytes;
}

void ResultCache::evict_to_cap_locked() {
  // Keep the longest NEWEST-record suffix that fits the cap (always at
  // least the newest record). Evicted records stay in the memory tier; only
  // their on-disk lines go, so a fresh process recomputes them on --resume.
  std::uint64_t bytes = 0;
  std::size_t keep_from = store_order_.size();
  while (keep_from > 0) {
    const std::uint64_t line_bytes =
        record_line(records_.at(store_order_[keep_from - 1])).size() + 1;
    if (bytes + line_bytes > store_max_bytes_ &&
        keep_from != store_order_.size()) {
      break;
    }
    bytes += line_bytes;
    --keep_from;
  }
  if (keep_from == 0) return;  // everything fits
  evicted_records_ += keep_from;
  const std::vector<std::uint64_t> kept(store_order_.begin() +
                                            static_cast<std::ptrdiff_t>(keep_from),
                                        store_order_.end());
  rewrite_store_locked(kept);
}

StoreRecoveryStats ResultCache::load_store() {
  const std::lock_guard<std::mutex> lock(mutex_);
  StoreRecoveryStats stats;
  store_order_.clear();
  // The canonical size of the loaded lines is summed only when a size cap
  // asks for it (store_bytes_locked).
  store_bytes_.reset();
  if (dir_.empty()) return stats;
  std::string text;
  if (!read_file(store_path(), text)) return stats;
  // A store that does not end in '\n' has a crash-torn tail: the final
  // append was cut mid-line. The torn line itself almost always fails its
  // checksum below; republishing the store is what matters either way,
  // because appending after a newline-less tail would CONCATENATE the next
  // record onto the torn bytes and corrupt both.
  bool needs_rewrite = !text.empty() && text.back() != '\n';
  std::vector<std::string_view> quarantined;
  std::unordered_set<std::uint64_t> on_disk;
  for (const std::string_view line : lines_of(text)) {
    if (line.empty()) {
      needs_rewrite = true;  // stray blank line: drop on republish
      continue;
    }
    std::string payload;
    const io::ChecksumStatus cs = io::verify_line_checksum(line, &payload);
    JobRecord rec;
    const bool good =
        (cs == io::ChecksumStatus::kOk || cs == io::ChecksumStatus::kAbsent) &&
        record_from_jsonl(payload, rec);
    if (!good) {
      quarantined.push_back(line);
      ++stats.recovered;
      needs_rewrite = true;
      continue;
    }
    if (cs == io::ChecksumStatus::kAbsent) needs_rewrite = true;  // v1 upgrade
    if (!on_disk.insert(rec.key).second) {
      needs_rewrite = true;  // duplicate line: drop on republish
      continue;
    }
    const std::uint64_t key = rec.key;
    if (records_.emplace(key, std::move(rec)).second) ++stats.loaded;
    store_order_.push_back(key);
  }
  recovered_records_ += stats.recovered;
  if (!quarantined.empty()) {
    std::ofstream out(quarantine_path(), std::ios::app);
    if (out) {
      // Each rejected line rides inside a checksummed envelope so the
      // quarantine ledger itself stays verifiable (vinoc store verify).
      for (const std::string_view line : quarantined) {
        out << io::quarantine_envelope(line, "store recovery") << '\n';
      }
    }
  }
  const std::size_t evicted_before = static_cast<std::size_t>(evicted_records_);
  if (store_max_bytes_ > 0 && store_bytes_locked() > store_max_bytes_) {
    evict_to_cap_locked();  // republishes the store itself
    stats.evicted = static_cast<std::size_t>(evicted_records_) - evicted_before;
    stats.rewritten = true;
  } else if (needs_rewrite) {
    rewrite_store_locked(store_order_);
    stats.rewritten = true;
  }
  return stats;
}

std::size_t ResultCache::load_side_store(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t loaded = 0;
  for (const std::string_view line : lines_of(text)) {
    if (line.empty()) continue;
    std::string payload;
    const io::ChecksumStatus cs = io::verify_line_checksum(line, &payload);
    JobRecord rec;
    if ((cs != io::ChecksumStatus::kOk && cs != io::ChecksumStatus::kAbsent) ||
        !record_from_jsonl(payload, rec)) {
      continue;  // not ours to quarantine
    }
    // Memory tier only: deliberately NOT added to store_order_, so these
    // records are never rewritten or evicted into this cache's own store.
    if (records_.emplace(rec.key, std::move(rec)).second) ++loaded;
  }
  return loaded;
}

void ResultCache::set_store_max_bytes(std::uint64_t max_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_max_bytes_ = max_bytes;
}

std::string ResultCache::store_path() const {
  if (dir_.empty()) return {};
  return (std::filesystem::path(dir_) / store_file_).string();
}

std::string ResultCache::quarantine_path() const {
  if (dir_.empty()) return {};
  return (std::filesystem::path(dir_) / "store.quarantine.jsonl").string();
}

std::uint64_t ResultCache::recovered_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recovered_records_;
}

std::uint64_t ResultCache::evicted_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evicted_records_;
}

std::uint64_t ResultCache::store_write_errors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_write_errors_;
}

}  // namespace vinoc::campaign
