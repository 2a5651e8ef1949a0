// SoC specification: cores, voltage islands, traffic flows, use-case
// scenarios. This is the input to the topology synthesis (the paper's
// Figure 1 "Example Input"): the assignment of cores to VIs is part of the
// input, not something the synthesizer decides.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vinoc/graph/digraph.hpp"

namespace vinoc::soc {

/// Functional class of a core; drives logical partitioning and the synthetic
/// benchmark generator's traffic patterns.
enum class CoreKind {
  kCpu,
  kDsp,
  kGpu,
  kCache,
  kMemory,         ///< on-chip SRAM (often shared => non-shutdown island)
  kMemController,  ///< off-chip DRAM controller
  kDma,
  kVideo,     ///< video decode/encode engines
  kImaging,   ///< ISP / camera pipeline blocks
  kDisplay,
  kAudio,
  kModem,     ///< baseband / RF digital front ends
  kCrypto,
  kPeripheral,  ///< low-bandwidth I/O (UART, SPI, I2C, GPIO, timers, ...)
  kOther,
};

using CoreId = std::int32_t;
using IslandId = std::int32_t;

/// A hard IP block attached to the NoC through one network interface.
struct CoreSpec {
  std::string name;
  CoreKind kind = CoreKind::kOther;
  IslandId island = 0;
  /// Block dimensions for floorplanning [mm].
  double width_mm = 1.0;
  double height_mm = 1.0;
  /// Core-internal power, used for SoC-level overhead accounting (the NoC
  /// overhead claims are relative to *total* SoC power/area).
  double dynamic_power_w = 0.0;
  double leakage_power_w = 0.0;
  /// Core clock [Hz] (NIs do the conversion to the island's NoC clock).
  double clock_hz = 200e6;
};

/// A point-to-point traffic flow with its QoS constraints (Definition 1's
/// bw_{i,j} and lat_{i,j}).
struct Flow {
  CoreId src = 0;
  CoreId dst = 0;
  double bandwidth_bits_per_s = 0.0;
  /// Zero-load latency budget, in NoC cycles, NI output to NI input.
  double max_latency_cycles = 50.0;
  std::string label;
};

/// A voltage island: cores sharing VDD/ground rails, gated as a unit.
struct VoltageIsland {
  std::string name;
  double vdd_v = 1.0;
  /// Shared-service islands (e.g. shared memories) are never shut down.
  bool can_shutdown = true;
};

/// A use-case scenario for shutdown accounting: which islands are active and
/// what fraction of device time the scenario covers.
struct Scenario {
  std::string name;
  double time_fraction = 0.0;
  std::vector<bool> island_active;  ///< indexed by IslandId
};

/// The full synthesis input.
struct SocSpec {
  std::string name;
  std::vector<CoreSpec> cores;
  std::vector<VoltageIsland> islands;
  std::vector<Flow> flows;
  std::vector<Scenario> scenarios;  ///< optional; used by vinoc::power

  [[nodiscard]] std::size_t core_count() const { return cores.size(); }
  [[nodiscard]] std::size_t island_count() const { return islands.size(); }

  /// Cores assigned to a given island, in core-id order.
  [[nodiscard]] std::vector<CoreId> cores_in_island(IslandId island) const;

  /// Directed core-to-core communication graph; edge weight = bandwidth in
  /// bits/s, Edge::user = flow index.
  [[nodiscard]] graph::Digraph core_graph() const;

  /// Sum of per-core dynamic / leakage power [W].
  [[nodiscard]] double total_core_dynamic_w() const;
  [[nodiscard]] double total_core_leakage_w() const;
  /// Sum of core block areas [mm^2].
  [[nodiscard]] double total_core_area_mm2() const;

  [[nodiscard]] CoreId find_core(std::string_view name) const;

  /// Validates invariants; returns a list of human-readable problems
  /// (empty = valid): island ids in range, flows reference existing cores,
  /// no self-flows, positive bandwidths/latencies, scenario vectors sized,
  /// scenario fractions <= 1, names unique and non-empty.
  [[nodiscard]] std::vector<std::string> validate() const;
};

}  // namespace vinoc::soc
