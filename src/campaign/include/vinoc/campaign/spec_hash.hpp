// Content addressing of synthesis jobs.
//
// A campaign job is cached under a 64-bit key computed from a CANONICAL
// serialization of its full input, (SocSpec, SynthesisOptions): every field
// that can change the synthesized result is fed — tagged and length-prefixed
// so field boundaries are unambiguous — into an FNV-1a stream. Two jobs get
// the same key iff their inputs are value-identical, so editing one axis of
// a campaign matrix (a flow bandwidth, an island assignment, a link width)
// re-keys exactly the affected jobs and a resumed run recomputes only those.
//
// Deliberately EXCLUDED from the options hash: `threads` and `on_progress`.
// Both are wall-clock-only knobs — synthesize() guarantees bit-identical
// results for every thread count (see synthesis.hpp) — so a cache populated
// at --threads 8 must hit at --threads 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "vinoc/core/synthesis.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::campaign {

/// Incremental FNV-1a (64-bit) over a canonical byte stream. Multi-byte
/// values are fed little-endian at fixed width; strings are length-prefixed;
/// callers separate fields/sections with tag bytes.
class CanonicalHasher {
 public:
  CanonicalHasher& bytes(const void* data, std::size_t n);
  CanonicalHasher& tag(std::uint8_t t) { return bytes(&t, 1); }
  CanonicalHasher& u64(std::uint64_t v);
  CanonicalHasher& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }
  CanonicalHasher& boolean(bool v) { return tag(v ? 1 : 0); }
  /// Bit pattern of the double; -0.0 is normalized to 0.0 first so the two
  /// equal values hash equal.
  CanonicalHasher& f64(double v);
  CanonicalHasher& str(std::string_view s);

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a offset basis
};

/// Canonical hash of the full synthesis input spec (cores, islands, flows,
/// scenarios — names included, since reports key on them).
[[nodiscard]] std::uint64_t hash_soc_spec(const soc::SocSpec& spec);

/// Canonical hash of the result-affecting SynthesisOptions fields, including
/// the technology constants and floorplan options (see file header for the
/// documented exclusions).
[[nodiscard]] std::uint64_t hash_synthesis_options(
    const core::SynthesisOptions& options);

/// Cache key of one job: hash_soc_spec ⊕-combined with
/// hash_synthesis_options under distinct domain tags.
[[nodiscard]] std::uint64_t job_key(const soc::SocSpec& spec,
                                    const core::SynthesisOptions& options);
/// job_key from a precomputed `spec_hash` = hash_soc_spec(spec).
[[nodiscard]] std::uint64_t job_key(std::uint64_t spec_hash,
                                    const core::SynthesisOptions& options);

/// Like hash_synthesis_options but with link_width_bits EXCLUDED: two
/// option sets equal under this hash differ at most in the link width.
[[nodiscard]] std::uint64_t hash_synthesis_options_width_excluded(
    const core::SynthesisOptions& options);

/// Structure-sharing key of a job (the campaign engine's width-group key):
/// jobs with equal structure keys share every width-invariant input —
/// floorplan, traffic, min-cut partitions, candidate enumeration inputs —
/// and are synthesized together through core::synthesize_width_set so that
/// work is computed once per group instead of once per width.
[[nodiscard]] std::uint64_t structure_key(const soc::SocSpec& spec,
                                          const core::SynthesisOptions& options);
/// structure_key from a precomputed `spec_hash` = hash_soc_spec(spec).
[[nodiscard]] std::uint64_t structure_key(std::uint64_t spec_hash,
                                          const core::SynthesisOptions& options);

/// Structural fingerprint of a SynthesisResult (stats, per-point switch
/// counts + metrics + route shape, Pareto indices). Two results with equal
/// fingerprints are the same design space for every purpose the campaign
/// reports on; tests use it to assert bit-identical cache hits.
[[nodiscard]] std::uint64_t result_fingerprint(
    const core::SynthesisResult& result);

/// 16 lowercase hex digits, zero-padded (the JSONL spelling of a key).
[[nodiscard]] std::string key_hex(std::uint64_t key);
/// Inverse of key_hex; returns false on anything but exactly 16 hex digits.
[[nodiscard]] bool key_from_hex(std::string_view hex, std::uint64_t& key);

}  // namespace vinoc::campaign
