#include "vinoc/campaign/spec_hash.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace vinoc::campaign {

CanonicalHasher& CanonicalHasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;  // FNV-1a prime
  }
  return *this;
}

CanonicalHasher& CanonicalHasher::u64(std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(buf, sizeof buf);
}

CanonicalHasher& CanonicalHasher::f64(double v) {
  if (v == 0.0) v = 0.0;  // normalize -0.0
  return u64(std::bit_cast<std::uint64_t>(v));
}

CanonicalHasher& CanonicalHasher::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

namespace {

// Section tags keep field streams from aliasing across record kinds.
enum : std::uint8_t {
  kTagSpec = 0x01,
  kTagCore = 0x02,
  kTagIsland = 0x03,
  kTagFlow = 0x04,
  kTagScenario = 0x05,
  kTagOptions = 0x10,
  kTagTechnology = 0x11,
  kTagFloorplan = 0x12,
  kTagJob = 0x20,
  kTagResult = 0x30,
  kTagPoint = 0x31,
};

void hash_technology(CanonicalHasher& h, const models::Technology& t) {
  h.tag(kTagTechnology)
      .f64(t.node_nm)
      .f64(t.vdd_nominal_v)
      .f64(t.freq_grid_hz)
      .f64(t.max_freq_hz)
      .f64(t.sw_critical_path_base_ns)
      .f64(t.sw_critical_path_per_log2port_ns)
      .f64(t.sw_energy_base_pj_per_bit)
      .f64(t.sw_energy_per_port_pj_per_bit)
      .f64(t.sw_idle_power_per_port_w_per_hz)
      .f64(t.sw_leakage_base_mw)
      .f64(t.sw_leakage_per_port_mw)
      .f64(t.sw_area_base_um2)
      .f64(t.sw_area_per_port2_um2)
      .f64(t.sw_area_per_port_um2)
      .i64(t.sw_pipeline_cycles)
      .f64(t.link_energy_pj_per_bit_mm)
      .f64(t.wire_delay_ns_per_mm)
      .f64(t.link_leakage_mw_per_wire_mm)
      .f64(t.ni_energy_pj_per_bit)
      .f64(t.ni_area_um2)
      .f64(t.ni_leakage_mw)
      .f64(t.fifo_energy_pj_per_bit)
      .f64(t.fifo_area_um2)
      .f64(t.fifo_leakage_mw)
      .i64(t.fifo_latency_cycles);
}

}  // namespace

std::uint64_t hash_soc_spec(const soc::SocSpec& spec) {
  CanonicalHasher h;
  h.tag(kTagSpec).str(spec.name);
  h.u64(spec.cores.size());
  for (const soc::CoreSpec& c : spec.cores) {
    h.tag(kTagCore)
        .str(c.name)
        .i64(static_cast<std::int64_t>(c.kind))
        .i64(c.island)
        .f64(c.width_mm)
        .f64(c.height_mm)
        .f64(c.dynamic_power_w)
        .f64(c.leakage_power_w)
        .f64(c.clock_hz);
  }
  h.u64(spec.islands.size());
  for (const soc::VoltageIsland& v : spec.islands) {
    h.tag(kTagIsland).str(v.name).f64(v.vdd_v).boolean(v.can_shutdown);
  }
  h.u64(spec.flows.size());
  for (const soc::Flow& f : spec.flows) {
    h.tag(kTagFlow)
        .i64(f.src)
        .i64(f.dst)
        .f64(f.bandwidth_bits_per_s)
        .f64(f.max_latency_cycles)
        .str(f.label);
  }
  h.u64(spec.scenarios.size());
  for (const soc::Scenario& s : spec.scenarios) {
    h.tag(kTagScenario).str(s.name).f64(s.time_fraction);
    h.u64(s.island_active.size());
    for (const bool active : s.island_active) h.boolean(active);
  }
  return h.digest();
}

namespace {

/// Shared body of the two option hashes; `include_width` distinguishes the
/// full job hash from the width-excluded structure hash (a fixed sentinel
/// keeps the two streams from aliasing).
std::uint64_t hash_options_impl(const core::SynthesisOptions& options,
                                bool include_width) {
  CanonicalHasher h;
  h.tag(kTagOptions)
      .f64(options.alpha)
      .f64(options.alpha_power)
      .i64(include_width ? options.link_width_bits : -1)
      .boolean(options.allow_intermediate_island)
      .i64(options.max_intermediate_switches)
      .i64(options.port_reserve)
      .u64(options.partition_seed)
      .boolean(options.enforce_wire_timing)
      .boolean(options.enforce_deadlock_freedom)
      .boolean(options.prune)
      .boolean(options.deterministic_prune);
  // threads / delta_eval / on_progress intentionally omitted: pure
  // wall-clock knobs, bit-identical results either way (see header).
  hash_technology(h, options.tech);
  h.tag(kTagFloorplan)
      .f64(options.floorplan.whitespace)
      .f64(options.floorplan.pad_ring_mm);
  return h.digest();
}

}  // namespace

std::uint64_t hash_synthesis_options(const core::SynthesisOptions& options) {
  return hash_options_impl(options, /*include_width=*/true);
}

std::uint64_t hash_synthesis_options_width_excluded(
    const core::SynthesisOptions& options) {
  return hash_options_impl(options, /*include_width=*/false);
}

std::uint64_t job_key(std::uint64_t spec_hash,
                      const core::SynthesisOptions& options) {
  CanonicalHasher h;
  h.tag(kTagJob).u64(spec_hash).u64(hash_synthesis_options(options));
  return h.digest();
}

std::uint64_t job_key(const soc::SocSpec& spec,
                      const core::SynthesisOptions& options) {
  return job_key(hash_soc_spec(spec), options);
}

std::uint64_t structure_key(std::uint64_t spec_hash,
                            const core::SynthesisOptions& options) {
  CanonicalHasher h;
  h.tag(kTagJob).u64(spec_hash).u64(hash_synthesis_options_width_excluded(options));
  return h.digest();
}

std::uint64_t structure_key(const soc::SocSpec& spec,
                            const core::SynthesisOptions& options) {
  return structure_key(hash_soc_spec(spec), options);
}

std::uint64_t result_fingerprint(const core::SynthesisResult& result) {
  CanonicalHasher h;
  h.tag(kTagResult)
      .i64(result.stats.configs_explored)
      .i64(result.stats.configs_routed)
      .i64(result.stats.configs_saved)
      .i64(result.stats.rejected_unroutable)
      .i64(result.stats.rejected_latency)
      .i64(result.stats.rejected_duplicate)
      .i64(result.stats.rejected_deadlock)
      .i64(result.stats.rejected_pruned);
  h.u64(result.points.size());
  for (const core::DesignPoint& p : result.points) {
    h.tag(kTagPoint);
    h.u64(p.switches_per_island.size());
    for (const int k : p.switches_per_island) h.i64(k);
    h.i64(p.intermediate_switches);
    const core::Metrics& m = p.metrics;
    h.f64(m.noc_dynamic_w)
        .f64(m.noc_leakage_w)
        .f64(m.noc_area_mm2)
        .f64(m.avg_latency_cycles)
        .f64(m.max_latency_cycles)
        .f64(m.total_wire_mm)
        .i64(m.switch_count)
        .i64(m.link_count)
        .i64(m.fifo_count)
        .i64(m.max_switch_ports);
    h.u64(p.topology.switches.size());
    h.u64(p.topology.links.size());
    for (const core::FlowRoute& r : p.topology.routes) {
      h.i64(r.src_switch).i64(r.dst_switch).u64(r.links.size()).f64(
          r.latency_cycles);
    }
  }
  h.u64(result.pareto.size());
  for (const std::size_t i : result.pareto) h.u64(i);
  return h.digest();
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

bool key_from_hex(std::string_view hex, std::uint64_t& key) {
  if (hex.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  key = value;
  return true;
}

}  // namespace vinoc::campaign
