#include "vinoc/core/router.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "vinoc/core/prune.hpp"
#include "vinoc/core/simd.hpp"
#include "vinoc/obs/trace.hpp"

// Load-bearing inlining hint for the relaxation body (see route_flow): a
// call per surviving target costs ~8% of the evaluation hot path. Non-GNU
// compilers fall back to the optimizer's judgement.
#if defined(__GNUC__) || defined(__clang__)
#define VINOC_ALWAYS_INLINE __attribute__((always_inline))
#else
#define VINOC_ALWAYS_INLINE
#endif

namespace vinoc::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Runtime switch for the vectorized relaxation filter; read once per
/// Router construction (never mid-flow). The scalar and vector paths are
/// bit-identical (see simd.hpp), so this is purely a test/verification
/// knob.
std::atomic<bool> g_router_simd{true};

/// Runtime switch forcing the delta evaluator to verify every replay with
/// the flow's own solo Dijkstra (see set_delta_cert_forced); read once per
/// Router construction, like the SIMD toggle.
std::atomic<bool> g_delta_cert_forced{false};

soc::IslandId island_of_switch(const NocTopology& topo, int sw) {
  return topo.switches[static_cast<std::size_t>(sw)].island;
}

double switch_freq(const NocTopology& topo, int sw) {
  return topo.switches[static_cast<std::size_t>(sw)].freq_hz;
}

#if defined(VINOC_SIMD_VECTOR_EXT)
/// 4-wide evaluation of the relaxation filter over consecutive targets
/// v..v+3 of one dense run: bit i of the result is set when target i
/// SURVIVES (its relaxation body must run). Each lane computes exactly
/// route_flow's scalar `skip` expression — the latency-part threshold, and
/// the opening-floor threshold gated on "no reusable link" — with per-lane
/// IEEE adds, so the mask equals four scalar evaluations bit-for-bit.
inline unsigned relax_survivors4(const double* dist, const double* floors,
                                 const int* links, double lat_thresh,
                                 double dist_u, double latpart) {
  const simd::F64x4 d = simd::load4(dist);
  unsigned skip = simd::ge_mask(simd::splat4(lat_thresh), d);
  const simd::F64x4 open_thresh =
      simd::splat4(dist_u) + (simd::load4(floors) + simd::splat4(latpart));
  skip |= simd::ge_mask(open_thresh, d) & simd::lt0_mask(simd::load4i(links));
  return ~skip & 0xFu;
}
#endif

}  // namespace

bool set_router_simd_enabled(bool enabled) {
  return g_router_simd.exchange(enabled, std::memory_order_relaxed);
}

bool router_simd_enabled() {
  return g_router_simd.load(std::memory_order_relaxed);
}

bool set_delta_cert_forced(bool enabled) {
  return g_delta_cert_forced.exchange(enabled, std::memory_order_relaxed);
}

bool delta_cert_forced() {
  return g_delta_cert_forced.load(std::memory_order_relaxed);
}

std::vector<std::size_t> bandwidth_descending_order(const soc::SocSpec& spec) {
  std::vector<std::size_t> order(spec.flows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&spec](std::size_t a, std::size_t b) {
                     return spec.flows[a].bandwidth_bits_per_s >
                            spec.flows[b].bandwidth_bits_per_s;
                   });
  return order;
}

bool link_admissible(soc::IslandId a_isl, soc::IslandId b_isl,
                     soc::IslandId src_isl, soc::IslandId dst_isl) {
  if (src_isl == dst_isl) {
    // Intra-island flow: never leaves its island.
    return a_isl == src_isl && b_isl == src_isl;
  }
  if (a_isl == b_isl) {
    // Intra-island hop inside the source island, the destination island or
    // the intermediate NoC VI.
    return a_isl == src_isl || a_isl == dst_isl || a_isl == kIntermediateIsland;
  }
  // Cross-island hop: direct source->destination, or via the intermediate.
  if (a_isl == src_isl && b_isl == dst_isl) return true;
  if (a_isl == src_isl && b_isl == kIntermediateIsland) return true;
  if (a_isl == kIntermediateIsland && b_isl == dst_isl) return true;
  return false;
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Technology constants of the edge cost, hoisted out of the inner loop
/// (it runs millions of times per sweep). Every expression replicates its
/// model function's operation order exactly (see noc_models.cpp), so costs
/// — and therefore routing decisions — are bit-identical to calling the
/// models per edge.
struct CostCoeffs {
  explicit CostCoeffs(const models::Technology& tech)
      : link_dyn(tech.link_energy_pj_per_bit_mm * 1e-12),
        link_leak(tech.link_leakage_mw_per_wire_mm * 1e-3),
        fifo_dyn(tech.fifo_energy_pj_per_bit * 1e-12),
        fifo_leak(tech.fifo_leakage_mw * 1e-3),
        idle_w_per_hz(tech.sw_idle_power_per_port_w_per_hz),
        hop_lat_intra(1.0 + tech.sw_pipeline_cycles),
        hop_lat_cross(static_cast<double>(tech.fifo_latency_cycles) +
                      tech.sw_pipeline_cycles),
        ebit_base(tech.sw_energy_base_pj_per_bit),
        ebit_per_port(tech.sw_energy_per_port_pj_per_bit) {}
  /// Crossbar energy per bit of a switch with `ports` = max(in, out).
  [[nodiscard]] double ebit(int ports) const {
    return (ebit_base + ebit_per_port * ports) * 1e-12;
  }
  double link_dyn, link_leak, fifo_dyn, fifo_leak, idle_w_per_hz;
  double hop_lat_intra, hop_lat_cross;
  double ebit_base, ebit_per_port;
};

/// Power normalizer of the link cost: opening a "typical" link (quarter-chip
/// wire at the design's peak flow bandwidth, with a FIFO). It reads every
/// switch position, intermediates included, which is why delta replay is
/// gated on it being bit-equal to the reference's.
double power_normalizer(const NocTopology& topo, const soc::SocSpec& spec,
                        const models::Technology& tech) {
  double max_bw = 0.0;
  double max_span = 0.0;
  for (const soc::Flow& f : spec.flows) {
    max_bw = std::max(max_bw, f.bandwidth_bits_per_s);
  }
  for (const SwitchInst& s : topo.switches) {
    max_span = std::max({max_span, s.pos.x_mm, s.pos.y_mm});
  }
  const double ref_len = std::max(0.5, max_span / 2.0);
  const double p_norm =
      models::LinkModel(tech).dynamic_power_w(ref_len, std::max(max_bw, 1.0)) +
      models::BisyncFifoModel(tech).dynamic_power_w(std::max(max_bw, 1.0));
  return p_norm <= 0.0 ? 1e-3 : p_norm;
}

/// Relative slack of the cross-island certificate's strict comparison. Both
/// sides sum the same non-negative terms in different association orders:
/// a computed opening cost is within ~12 ulp (relative) of its real value,
/// a path sum adds one rounding per hop of non-negative terms, and the
/// bound itself rounds ~12 times — under 40 ulp (~1e-14) in all. 1e-12
/// leaves more than 100x of that in reserve.
constexpr double kCrossBoundMargin = 1e-12;

/// The cross-island certificate of delta replay. While no link touches the
/// intermediate VI, a path of a flow from island A to island B through it
/// must OPEN an A->VI link and a VI->B link (link_admissible allows no
/// other way in or out of the VI) and every other hop costs >= 0. Opening
/// u->v costs alpha * (bw * slope + floor) / p_norm + latpart_cross with
///   slope = link_dyn * len + ebit(v) + fifo_dyn,
///   floor = idle * (f_u + f_v) + link_leak * len * width + fifo_leak,
/// all terms non-negative, and ebit(v) only grows as ports open. Minimising
/// slope and floor separately over each island's pairs with the VI on the
/// UNROUTED topology therefore bounds every such path from below for the
/// whole pass, at O(1) per flow. If the reference's exact distance beats
/// the bound, the VI switches can neither be extracted ahead of the
/// destination with a smaller key nor improve any node the reference path
/// uses, so the live Dijkstra would pick the recorded path (same nodes,
/// same reuse-vs-open choices, same tie order) — see README.
struct CrossIslandBound {
  std::vector<double> out_floor, out_slope;  ///< A->VI minima, per island
  std::vector<double> in_floor, in_slope;    ///< VI->B minima, per island
  double alpha = 0.0;
  double hop_lat_cross = 0.0;

  CrossIslandBound() = default;
  CrossIslandBound(const NocTopology& topo, std::size_t n_islands,
                   const RouterOptions& opts, const CostCoeffs& k,
                   double p_norm)
      : out_floor(n_islands, kInf),
        out_slope(n_islands, kInf),
        in_floor(n_islands, kInf),
        in_slope(n_islands, kInf),
        alpha(opts.alpha_power),
        hop_lat_cross(k.hop_lat_cross) {
    const double width = static_cast<double>(opts.link_width_bits);
    const double scale = opts.alpha_power / p_norm;
    for (const SwitchInst& w : topo.switches) {
      if (w.island != kIntermediateIsland) continue;
      const double ebit_w = k.ebit(static_cast<int>(w.cores.size()));
      for (const SwitchInst& u : topo.switches) {
        const auto i = static_cast<std::size_t>(u.island);
        if (u.island == kIntermediateIsland || i >= n_islands) continue;
        const double len = floorplan::manhattan_mm(u.pos, w.pos);
        const double floor =
            scale * ((k.idle_w_per_hz * (u.freq_hz + w.freq_hz) +
                      k.link_leak * len * width) +
                     k.fifo_leak);
        const double wire = k.link_dyn * len + k.fifo_dyn;
        const double ebit_u = k.ebit(static_cast<int>(u.cores.size()));
        out_floor[i] = std::min(out_floor[i], floor);
        in_floor[i] = std::min(in_floor[i], floor);
        out_slope[i] = std::min(out_slope[i], scale * (wire + ebit_w));
        in_slope[i] = std::min(in_slope[i], scale * (wire + ebit_u));
      }
    }
  }

  /// True when `dist_ref` (the reference's exact destination distance of
  /// `flow`, from island a to island b) is strictly below every path
  /// through the VI. NaN never certifies.
  [[nodiscard]] bool certifies(double dist_ref, const soc::Flow& flow,
                               soc::IslandId a, soc::IslandId b) const {
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    const double bw = flow.bandwidth_bits_per_s;
    const double lat = (1.0 - alpha) * (hop_lat_cross / flow.max_latency_cycles);
    const double lb = (out_floor[ia] + bw * out_slope[ia] + lat) +
                      (in_floor[ib] + bw * in_slope[ib] + lat);
    return dist_ref < lb * (1.0 - kCrossBoundMargin);
  }
};

/// Mutable routing state over a topology under construction. All transient
/// buffers live in the caller-provided RouterScratch, reset per construction
/// (assign, never shrink) so a sweep reuses one arena across candidates.
///
/// The per-flow shortest-path search is a Dijkstra over the flow's
/// admissible switches with two bit-exact accelerations:
///  * EXTRACTION uses a lazy (dist, index) min-heap, which pops nodes in
///    exactly the order the dense lowest-dist-then-lowest-index scan would
///    select them (stale entries — a superseded dist or an already-done
///    node — are skipped; every undone finite node always has one fresh
///    entry whose key equals its current dist);
///  * a RELAXATION is skipped outright when even the latency part of the
///    edge cost cannot beat dist[v]: the power part is non-negative and
///    IEEE addition is monotone, so the skipped relaxation provably would
///    not have updated anything.
/// Both leave results bit-identical to the naive dense loop.
class Router {
 public:
  Router(NocTopology& topo, const soc::SocSpec& spec, const RouterOptions& opts,
         RouterScratch& scratch, const RouteBound* bound,
         DeltaReference* rec_out, DeltaRouteState* delta)
      : topo_(topo), spec_(spec), opts_(opts), scratch_(scratch), bound_(bound),
        rec_out_(rec_out), delta_(delta), k_(opts.tech) {
    const std::size_t n_sw = topo_.switches.size();
    n_ = n_sw;
    scratch_.ports_in.assign(n_sw, 0);
    scratch_.ports_out.assign(n_sw, 0);
    for (std::size_t s = 0; s < n_sw; ++s) {
      scratch_.ports_in[s] = static_cast<int>(topo_.switches[s].cores.size());
      scratch_.ports_out[s] = scratch_.ports_in[s];
    }
    scratch_.link_at.assign(n_sw * n_sw, -1);
    p_norm_ = power_normalizer(topo_, spec_, opts_.tech);

    // Per-switch geometry hoisted out of the edge-cost inner loop.
    scratch_.max_wire_len.assign(n_sw, 0.0);
    if (opts_.enforce_wire_timing) {
      const models::LinkModel link_model(opts_.tech);
      for (std::size_t s = 0; s < n_sw; ++s) {
        scratch_.max_wire_len[s] =
            link_model.max_unpipelined_length_mm(topo_.switches[s].freq_hz);
      }
    }
    // Flat copies of the per-switch hot fields (SwitchInst drags its core
    // list through the cache otherwise), plus the per-switch crossbar
    // energy/bit at the CURRENT port count, kept in sync by open_link().
    scratch_.island_of.assign(n_sw, 0);
    scratch_.freq_of.assign(n_sw, 0.0);
    scratch_.ebit_of.assign(n_sw, 0.0);
    bool has_intermediate = false;
    for (std::size_t s = 0; s < n_sw; ++s) {
      scratch_.island_of[s] = topo_.switches[s].island;
      scratch_.freq_of[s] = topo_.switches[s].freq_hz;
      refresh_ebit(static_cast<int>(s));
      has_intermediate |= topo_.switches[s].island == kIntermediateIsland;
    }
    // A recorded distance certifies cross-island replays only when it came
    // from a Dijkstra without intermediate switches (see CrossIslandBound).
    rec_dist_ok_ = !has_intermediate;

    if (bound_ != nullptr && bound_->front != nullptr) {
      power_lb_ = bound_->base_power_lb_w;
      lat_sum_lb_ = bound_->base_latency_sum_cycles;
      fifo_w_per_bw_ = opts_.tech.fifo_energy_pj_per_bit * 1e-12;
      link_w_per_bw_mm_ = opts_.tech.link_energy_pj_per_bit_mm * 1e-12;
    }

    // Per-island contiguous index ranges, so each flow's Dijkstra can visit
    // only its admissible switches (source island, destination island, the
    // intermediate VI) instead of the full switch set. Topologies from the
    // synthesis pipeline are always laid out islands-ascending with the
    // intermediates last; anything else (hand-built) falls back to the full
    // range, which is merely slower, never different — inadmissible nodes
    // can neither be relaxed nor extracted (their distance stays infinite).
    const std::size_t n_islands = spec.islands.size();
    island_begin_.assign(n_islands + 1, -1);
    island_end_.assign(n_islands + 1, -1);
    contiguous_ = true;
    for (std::size_t s = 0; s < n_sw; ++s) {
      const soc::IslandId isl = topo_.switches[s].island;
      const std::size_t slot =
          isl == kIntermediateIsland ? n_islands : static_cast<std::size_t>(isl);
      if (island_begin_[slot] < 0) {
        island_begin_[slot] = static_cast<int>(s);
        island_end_[slot] = static_cast<int>(s + 1);
      } else if (island_end_[slot] == static_cast<int>(s)) {
        island_end_[slot] = static_cast<int>(s + 1);
      } else {
        contiguous_ = false;  // island split across the array
        break;
      }
    }
    if (contiguous_) {
      // Ranges must also appear in ascending island order (intermediate
      // last) so the subset scan visits indices ascending, preserving the
      // lowest-index tie-break of the dense scan.
      int prev_end = 0;
      for (std::size_t slot = 0; slot <= n_islands && contiguous_; ++slot) {
        if (island_begin_[slot] < 0) continue;  // island without switches
        if (island_begin_[slot] < prev_end) contiguous_ = false;
        prev_end = island_end_[slot];
      }
    }

    use_simd_ = simd::compiled_vector() &&
                g_router_simd.load(std::memory_order_relaxed);

    // Arm delta replay only when the reference's power normalizer is
    // bit-equal to ours: p_norm is the single cross-candidate coupling of
    // intra-island routing decisions (everything else an intra Dijkstra
    // reads is island-local), so with equal normalizers an in-sync
    // island's decisions are input-identical to the reference's. Each pass
    // re-arms with a fresh taint vector (pass 2 restarts from a pristine
    // topology compared against the same pass-1 records). Cross-island
    // replay additionally needs pass 1's rules (the records' rules) and the
    // certificate's bound on paths through the intermediate VI.
    if (delta_ != nullptr) {
      delta_->pnorm_matched = delta_->ref != nullptr && delta_->ref->valid &&
                              delta_->ref->p_norm == p_norm_;
      delta_apply_ = delta_->pnorm_matched;
      if (delta_apply_) {
        delta_->island_tainted.assign(spec.islands.size(), 0);
        cert_forced_ = g_delta_cert_forced.load(std::memory_order_relaxed);
        cross_armed_ = !opts_.forbid_direct_cross;
        if (cross_armed_) {
          cross_bound_ = CrossIslandBound(topo_, spec.islands.size(), opts_, k_,
                                          p_norm_);
        }
      }
    }

    build_floor_matrix();
  }

  [[nodiscard]] double p_norm() const { return p_norm_; }

  RouteOutcome run() {
    topo_.routes.assign(spec_.flows.size(), FlowRoute{});

    // The order is a pure function of the spec, so sweep callers pass it
    // precomputed; direct callers fall back to sorting here.
    const std::vector<std::size_t>* order = opts_.flow_order;
    if (order == nullptr) {
      scratch_.flow_order = bandwidth_descending_order(spec_);
      order = &scratch_.flow_order;
    }

    const bool bounding = bound_ != nullptr && bound_->front != nullptr &&
                          bound_->min_flow_latency != nullptr &&
                          !spec_.flows.empty();
    const double inv_flows =
        spec_.flows.empty() ? 0.0 : 1.0 / static_cast<double>(spec_.flows.size());

    RouteOutcome outcome;
    for (std::size_t pos = 0; pos < order->size(); ++pos) {
      const std::size_t f = (*order)[pos];
      last_dist_ = kNaN;  // set only by a live Dijkstra of this flow
      const bool ok = delta_apply_ && pos < delta_->ref->records.size()
                          ? delta_route_flow(pos, f, outcome)
                          : route_flow(f, outcome);
      if (ok && rec_out_ != nullptr) {
        // Pure observation: the routed hop sequence, reconstructed from the
        // finished route (a link was opened by this flow iff the flow is
        // its first user), and the Dijkstra's destination distance.
        DeltaRouteRec& rec = rec_out_->records.emplace_back();
        reconstruct_hops(f, rec.hops);
        rec.dist = rec_dist_ok_ ? last_dist_ : kNaN;
      }
      if (!ok) return outcome;
      ++outcome.flows_routed;
      if (bounding) {
        // Replace this flow's minimum latency with its exact final latency
        // (routes never change after routing) — both bounds stay monotone
        // lower bounds on the finished design's metrics.
        lat_sum_lb_ += topo_.routes[f].latency_cycles -
                       (*bound_->min_flow_latency)[f];
        const double avg_lb = lat_sum_lb_ * inv_flows;
        if (bound_->front->dominated(power_lb_, avg_lb)) {
          outcome.pruned = true;
          outcome.bound_checked = true;
          outcome.pruned_power_lb_w = power_lb_;
          outcome.pruned_latency_lb_cycles = avg_lb;
          return outcome;
        }
      }
    }
    outcome.success = true;
    if (bounding) {
      // Expose the last-checkpoint bounds: the merge stage re-checks them
      // against the enumeration-ordered front to decide whether a
      // sequential run (with a possibly richer front than our snapshot)
      // would have pruned this candidate.
      outcome.bound_checked = true;
      outcome.pruned_power_lb_w = power_lb_;
      outcome.pruned_latency_lb_cycles = lat_sum_lb_ * inv_flows;
    }
    return outcome;
  }

 private:
  /// Result of choose_hop(): edge cost (kInf = inadmissible) and the
  /// chosen link (-1 = open a new one).
  struct HopChoice {
    double cost = kInf;
    int link = -1;
  };

  /// Reuse-vs-open selection for one admissible hop u->v. `base_power` is
  /// the lazily computed width-invariant marginal power of the hop (wire +
  /// downstream crossbar + FIFO traversal).
  template <typename BasePowerFn>
  VINOC_ALWAYS_INLINE HopChoice choose_hop(
      double width_bits, double fu, double fv, int max_ports_u,
      int max_ports_v, double wire_cap_u, bool cross, double len,
      double latpart, double bw, int existing, std::size_t us, std::size_t vs,
      BasePowerFn&& base_power) {
    HopChoice choice;
    if (existing >= 0) {
      const TopLink& l = topo_.links[static_cast<std::size_t>(existing)];
      const double cap = width_bits * std::min(fu, fv);
      if (l.carried_bw_bits_per_s + bw <= cap + 1e-6) {
        choice.cost = opts_.alpha_power * base_power() / p_norm_ + latpart;
        choice.link = existing;
        return choice;
      }
      // Saturated: fall through and consider opening a parallel link.
    }
    // Opening needs a free out port on u and in port on v, enough
    // capacity, and (intra-island) a one-cycle wire.
    bool ok = scratch_.ports_out[us] + 1 <= max_ports_u &&
              scratch_.ports_in[vs] + 1 <= max_ports_v;
    if (ok) {
      const double cap = width_bits * std::min(fu, fv);
      ok = !(bw > cap + 1e-6);
    }
    if (ok && opts_.enforce_wire_timing && !cross) {
      ok = !(len > wire_cap_u);
    }
    if (ok) {
      // New ports clock on both sides; wires and (if crossing) a FIFO
      // leak. Same accumulation order as hop_power_w had.
      double p = base_power();
      p += k_.idle_w_per_hz * (fu + fv);
      p += k_.link_leak * len * width_bits;
      if (cross) p += k_.fifo_leak;
      choice.cost = opts_.alpha_power * p / p_norm_ + latpart;
      choice.link = -1;
    }
    return choice;
  }

  bool crossing(int a, int b) const {
    return scratch_.island_of[static_cast<std::size_t>(a)] !=
           scratch_.island_of[static_cast<std::size_t>(b)];
  }

  double hop_length_mm(int a, int b) const {
    return scratch_.geometry.hop_len[static_cast<std::size_t>(a) * n_ +
                                     static_cast<std::size_t>(b)];
  }

  /// Crossbar energy per bit of switch `s` at its CURRENT port count — the
  /// cached value always equals the expression the naive path evaluates per
  /// edge (refreshed whenever a port count changes).
  void refresh_ebit(int s) {
    const auto ss = static_cast<std::size_t>(s);
    const int ports = std::max(scratch_.ports_in[ss], scratch_.ports_out[ss]);
    scratch_.ebit_of[ss] = k_.ebit(ports);
  }

  /// Lazily builds (or returns) the admissible-hop CSR of one flow class.
  /// The class is width- and frequency-invariant, so it persists across both
  /// routing passes (see RoutingGeometry).
  RoutingGeometry::FlowClass& flow_class(soc::IslandId src_isl,
                                         soc::IslandId dst_isl) {
    RoutingGeometry& g = scratch_.geometry;
    const std::size_t ni = g.n_islands;
    auto slot = [ni](soc::IslandId i) {
      return i == kIntermediateIsland ? ni : static_cast<std::size_t>(i);
    };
    RoutingGeometry::FlowClass& c =
        g.classes[slot(src_isl) * (ni + 1) + slot(dst_isl)];
    if (c.built) return c;
    c.built = true;
    // Member switches of this class, ascending (preserves the dense scan's
    // iteration order); non-members are never extracted (their distance
    // stays infinite). Members are grouped into maximal runs of index-
    // consecutive switches of one island, so each source switch's
    // admissible targets are a handful of dense ranges the relaxation loop
    // streams over.
    std::vector<int> members;
    if (contiguous_) {
      auto push_range = [this, &members](std::size_t s) {
        for (int i = island_begin_[s]; i < island_end_[s]; ++i) {
          members.push_back(i);
        }
      };
      if (src_isl == dst_isl) {
        push_range(slot(src_isl));
      } else {
        const auto lo = std::min(slot(src_isl), slot(dst_isl));
        const auto hi = std::max(slot(src_isl), slot(dst_isl));
        push_range(lo);
        push_range(hi);
        push_range(ni);  // intermediate VI switches sit at the end
      }
    } else {
      for (std::size_t s = 0; s < n_; ++s) members.push_back(static_cast<int>(s));
    }
    struct Segment {
      int lo, hi;
      soc::IslandId island;
    };
    std::vector<Segment> segments;
    for (std::size_t i = 0; i < members.size();) {
      const int lo = members[i];
      const auto isl = static_cast<soc::IslandId>(
          scratch_.island_of[static_cast<std::size_t>(lo)]);
      std::size_t j = i + 1;
      while (j < members.size() && members[j] == members[j - 1] + 1 &&
             static_cast<soc::IslandId>(scratch_.island_of[static_cast<std::size_t>(
                 members[j])]) == isl) {
        ++j;
      }
      segments.push_back({lo, members[j - 1] + 1, isl});
      i = j;
    }
    c.run_begin.assign(n_ + 1, 0);
    c.runs.clear();
    for (std::size_t u = 0; u < n_; ++u) {
      c.run_begin[u] = static_cast<int>(c.runs.size());
      const auto a_isl = static_cast<soc::IslandId>(scratch_.island_of[u]);
      bool u_member = false;
      for (const Segment& seg : segments) {
        if (static_cast<int>(u) >= seg.lo && static_cast<int>(u) < seg.hi) {
          u_member = true;
          break;
        }
      }
      if (!u_member) continue;
      for (const Segment& seg : segments) {
        if (!link_admissible(a_isl, seg.island, src_isl, dst_isl)) continue;
        RoutingGeometry::HopRun run;
        run.crossing = a_isl != seg.island ? 1 : 0;
        run.direct_cross = (a_isl != seg.island && a_isl != kIntermediateIsland &&
                            seg.island != kIntermediateIsland)
                               ? 1
                               : 0;
        // The source switch is split out of its own segment.
        if (static_cast<int>(u) >= seg.lo && static_cast<int>(u) < seg.hi) {
          if (seg.lo < static_cast<int>(u)) {
            run.lo = seg.lo;
            run.hi = static_cast<int>(u);
            c.runs.push_back(run);
          }
          if (static_cast<int>(u) + 1 < seg.hi) {
            run.lo = static_cast<int>(u) + 1;
            run.hi = seg.hi;
            c.runs.push_back(run);
          }
        } else {
          run.lo = seg.lo;
          run.hi = seg.hi;
          c.runs.push_back(run);
        }
      }
    }
    c.run_begin[n_] = static_cast<int>(c.runs.size());
    return c;
  }

  /// Per-pass lower bounds on the cost of OPENING a link on each switch
  /// pair. The opening cost accumulates the non-negative idle-port, wire-
  /// leakage and (crossing) FIFO-leakage terms, and every later operation
  /// in the cost chain (multiply by alpha_power, divide by p_norm, add the
  /// latency part) is monotone in IEEE arithmetic, so
  ///   open cost >= fl(alpha_power * p_floor / p_norm) =: floor(a, b).
  /// A relaxation that must open (no reusable link) is therefore skipped —
  /// bit-exactly — whenever dist_u + (floor + latpart) cannot beat dist[v],
  /// without computing the full cost (or its division). Built once per
  /// routing pass (it depends on this pass's width and frequencies).
  void build_floor_matrix() {
    floor_.assign(n_ * n_, 0.0);
    const double w = static_cast<double>(opts_.link_width_bits);
    const std::vector<double>& leak_len = scratch_.geometry.leak_len;
    for (std::size_t a = 0; a < n_; ++a) {
      const double fa = scratch_.freq_of[a];
      const int a_isl = scratch_.island_of[a];
      for (std::size_t b = 0; b < n_; ++b) {
        const double ti = k_.idle_w_per_hz * (fa + scratch_.freq_of[b]);
        const double tl = leak_len[a * n_ + b] * w;
        const double p_floor = scratch_.island_of[b] != a_isl
                                   ? (ti + tl) + k_.fifo_leak
                                   : ti + tl;
        floor_[a * n_ + b] = opts_.alpha_power * p_floor / p_norm_;
      }
    }
  }

  bool route_flow(std::size_t flow_idx, RouteOutcome& outcome) {
    const soc::Flow& flow = spec_.flows[flow_idx];
    const int s_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.src)];
    const int d_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.dst)];
    FlowRoute& route = topo_.routes[flow_idx];
    route.src_switch = s_sw;
    route.dst_switch = d_sw;
    if (s_sw == d_sw) {
      route.latency_cycles = route_latency_cycles(topo_, route, opts_.tech);
      last_dist_ = 0.0;
      return true;
    }

    const std::size_t n = n_;
    const soc::IslandId src_isl =
        spec_.cores[static_cast<std::size_t>(flow.src)].island;
    const soc::IslandId dst_isl =
        spec_.cores[static_cast<std::size_t>(flow.dst)].island;
    // Width-invariant admissible-hop runs of this flow's island class (see
    // RoutingGeometry) — replaces the per-edge admissibility test.
    const RoutingGeometry::FlowClass& fclass = flow_class(src_isl, dst_isl);

    // Per-flow constants of the edge cost. lat_part_* is EXACTLY the second
    // addend of the cost formula below (same operations, same order), so it
    // doubles as the bit-exact early-skip threshold of a relaxation.
    const double bw = flow.bandwidth_bits_per_s;
    const double lat_part_intra =
        (1.0 - opts_.alpha_power) * (k_.hop_lat_intra / flow.max_latency_cycles);
    const double lat_part_cross =
        (1.0 - opts_.alpha_power) * (k_.hop_lat_cross / flow.max_latency_cycles);

    // Only dist needs a per-flow reset: pred/pred_link are read exclusively
    // for nodes the CURRENT flow updated (the path walk follows this flow's
    // tree), and done-ness is encoded in dist itself — an extracted node's
    // dist is clobbered to -inf, which both stales its heap entries and
    // trips every relaxation filter (anything finite >= -inf).
    scratch_.dist.assign(n, kInf);
    if (scratch_.pred.size() < n) {
      scratch_.pred.resize(n, -1);
      scratch_.pred_link.resize(n, -1);
    }
    std::vector<double>& dist = scratch_.dist;
    std::vector<int>& pred = scratch_.pred;
    std::vector<int>& pred_link = scratch_.pred_link;
    dist[static_cast<std::size_t>(s_sw)] = 0.0;
    auto heap_after = [](const std::pair<double, int>& a,
                         const std::pair<double, int>& b) {
      return a.first > b.first || (a.first == b.first && a.second > b.second);
    };
    std::vector<std::pair<double, int>>& heap = scratch_.heap;
    heap.clear();
    heap.emplace_back(0.0, s_sw);

    const bool forbid = opts_.forbid_direct_cross;
    const double width = static_cast<double>(opts_.link_width_bits);
    while (true) {
      // Extraction: lazy-heap pop == dense-scan argmin (see class comment).
      int u = -1;
      double dist_u = 0.0;
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), heap_after);
        const auto [du, cand] = heap.back();
        heap.pop_back();
        const auto cs = static_cast<std::size_t>(cand);
        if (du != dist[cs]) continue;  // stale entry (or node already done)
        u = cand;
        dist_u = du;
        break;
      }
      if (u < 0) break;
      const auto us = static_cast<std::size_t>(u);
      if (u == d_sw) break;
      dist[us] = -kInf;  // done: stales heap entries, trips relax filters

      const double freq_u = scratch_.freq_of[us];
      const double wire_cap_u =
          opts_.enforce_wire_timing ? scratch_.max_wire_len[us] : 0.0;
      const double* hop_row = &scratch_.geometry.hop_len[us * n_];
      const double* floor_row = &floor_[us * n_];
      const int* link_row = &scratch_.link_at[us * n_];
      const int run_end = fclass.run_begin[us + 1];
      for (int rr = fclass.run_begin[us]; rr < run_end; ++rr) {
        const RoutingGeometry::HopRun& run =
            fclass.runs[static_cast<std::size_t>(rr)];
        if (forbid && run.direct_cross != 0) continue;
        const bool cross = run.crossing != 0;
        const double latpart = cross ? lat_part_cross : lat_part_intra;
        const double lat_thresh = dist_u + latpart;
        // The relaxation of one target that survived the filter below.
        // Force-inlined: a call per surviving target costs ~8% of the whole
        // evaluation hot path.
        auto relax = [&](int v) VINOC_ALWAYS_INLINE {
          const auto vs = static_cast<std::size_t>(v);
          const double len = hop_row[vs];
          // Width-invariant part of the marginal power (wire + downstream
          // crossbar + FIFO traversal), computed lazily in the exact
          // operation order of the naive path.
          double p_base = -1.0;
          auto base_power = [&]() {
            if (p_base < 0.0) {
              double p = k_.link_dyn * len * bw;
              p += scratch_.ebit_of[vs] * bw;
              if (cross) p += k_.fifo_dyn * bw;
              p_base = p;
            }
            return p_base;
          };
          // Reuse the existing link when it has residual capacity, else try
          // to open a new one (see choose_hop).
          const HopChoice hc = choose_hop(
              width, freq_u, scratch_.freq_of[vs], opts_.max_ports[us],
              opts_.max_ports[vs], wire_cap_u, cross, len, latpart, bw,
              link_row[vs], us, vs, base_power);
          if (std::isfinite(hc.cost) && dist_u + hc.cost < dist[vs]) {
            dist[vs] = dist_u + hc.cost;
            pred[vs] = u;
            pred_link[vs] = hc.link;
            heap.emplace_back(dist[vs], v);
            std::push_heap(heap.begin(), heap.end(), heap_after);
          }
        };

        // Bit-exact early skips: the full cost is >= latpart, and when no
        // link exists to reuse it is also >= the pair's opening floor (see
        // build_floor_matrix); IEEE addition is monotone, so a filtered
        // relaxation provably would not have updated anything. The two
        // thresholds also dispose of done nodes (dist == -inf). The 4-wide
        // path evaluates the SAME two comparisons per lane (floors are
        // compared, never accumulated — see simd.hpp), so the survivor set
        // is bit-identical to the scalar tail loop's.
        int v = run.lo;
#if defined(VINOC_SIMD_VECTOR_EXT)
        if (use_simd_) {
          for (; v + simd::kWidth <= run.hi; v += simd::kWidth) {
            unsigned m = relax_survivors4(
                &dist[static_cast<std::size_t>(v)],
                &floor_row[static_cast<std::size_t>(v)],
                &link_row[static_cast<std::size_t>(v)], lat_thresh, dist_u,
                latpart);
            while (m != 0) {
              relax(v + __builtin_ctz(m));
              m &= m - 1;
            }
          }
        }
#endif
        for (; v < run.hi; ++v) {
          const auto vs = static_cast<std::size_t>(v);
          const bool skip =
              lat_thresh >= dist[vs] ||
              (link_row[vs] < 0 &&
               dist_u + (floor_row[vs] + latpart) >= dist[vs]);
          if (!skip) relax(v);
        }
      }
    }

    last_dist_ = dist[static_cast<std::size_t>(d_sw)];
    if (!std::isfinite(last_dist_)) {
      outcome.failure_reason =
          "no admissible path for flow '" + flow.label + "'";
      outcome.failed_flow = static_cast<int>(flow_idx);
      return false;
    }

    // Materialize the path, opening links as needed.
    std::vector<int>& rev_nodes = scratch_.path;
    rev_nodes.clear();
    for (int v = d_sw; v != s_sw; v = pred[static_cast<std::size_t>(v)]) {
      rev_nodes.push_back(v);
    }
    std::reverse(rev_nodes.begin(), rev_nodes.end());
    int prev = s_sw;
    for (const int v : rev_nodes) {
      // An earlier hop of this same path may have opened a link or consumed
      // ports, but hops of one shortest path touch distinct switches, so the
      // cached choice stays valid.
      int link_id = pred_link[static_cast<std::size_t>(v)];
      if (link_id < 0) {
        link_id = open_link(prev, v);
      }
      TopLink& l = topo_.links[static_cast<std::size_t>(link_id)];
      l.carried_bw_bits_per_s += flow.bandwidth_bits_per_s;
      l.flows.push_back(static_cast<int>(flow_idx));
      route.links.push_back(link_id);
      if (power_lb_ >= 0.0) {
        accumulate_power_lb(prev, v, l, flow.bandwidth_bits_per_s,
                            /*pass_through=*/v != d_sw);
      }
      prev = v;
    }
    route.crossings = 0;
    for (const int l : route.links) {
      if (topo_.links[static_cast<std::size_t>(l)].crosses_island) ++route.crossings;
    }
    route.latency_cycles = route_latency_cycles(topo_, route, opts_.tech);
    if (route.latency_cycles > flow.max_latency_cycles + 1e-9) {
      outcome.failure_reason = "latency violated for flow '" + flow.label +
                               "' (" + std::to_string(route.latency_cycles) +
                               " > " + std::to_string(flow.max_latency_cycles) + ")";
      outcome.failed_flow = static_cast<int>(flow_idx);
      outcome.latency_violation = true;
      return false;
    }
    return true;
  }

  /// Rebuilds the hop sequence of a FINISHED route in path order: endpoint
  /// switch ids per link plus whether THIS flow opened the link (it did iff
  /// it is the link's first user — links record their users in routing
  /// order). Shared by the delta recorder and the live-route comparison.
  void reconstruct_hops(std::size_t flow_idx, std::vector<DeltaHop>& hops) const {
    hops.clear();
    const FlowRoute& route = topo_.routes[flow_idx];
    for (const int lid : route.links) {
      const TopLink& l = topo_.links[static_cast<std::size_t>(lid)];
      DeltaHop h;
      h.src = l.src_switch;
      h.dst = l.dst_switch;
      h.open = !l.flows.empty() && l.flows.front() == static_cast<int>(flow_idx)
                   ? 1
                   : 0;
      hops.push_back(h);
    }
  }

  /// Marks every REAL island touched by `hops` as diverged from the
  /// reference: its incremental state no longer matches, so later intra-
  /// island flows of that island must route live. (The intermediate VI
  /// carries no intra-island flows; it needs no taint.)
  void taint_hops(const std::vector<DeltaHop>& hops) {
    for (const DeltaHop& h : hops) {
      for (const int sw : {h.src, h.dst}) {
        if (sw < 0 || sw >= static_cast<int>(n_)) continue;
        const int isl = scratch_.island_of[static_cast<std::size_t>(sw)];
        if (isl != kIntermediateIsland &&
            static_cast<std::size_t>(isl) < delta_->island_tainted.size()) {
          delta_->island_tainted[static_cast<std::size_t>(isl)] = 1;
        }
      }
    }
  }

  /// Replays a recorded reference route onto the current topology without a
  /// Dijkstra: open where the reference opened, reuse the pair's latest
  /// link where it reused, with exactly the state mutations and bound
  /// accounting the materialisation loop performs. Returns 1 when routed,
  /// 0 on a latency violation (`outcome` filled, identically to the live
  /// path), -1 when the record is not applicable (malformed chain or a
  /// missing reuse link — never expected for an in-sync island; the caller
  /// falls back to live routing).
  int replay_recorded_flow(std::size_t flow_idx, const DeltaRouteRec& rec,
                           int s_sw, int d_sw, RouteOutcome& outcome) {
    // Validate before mutating anything.
    if (rec.hops.empty() || rec.hops.front().src != s_sw ||
        rec.hops.back().dst != d_sw) {
      return -1;
    }
    int prev = s_sw;
    for (const DeltaHop& h : rec.hops) {
      if (h.src != prev || h.src < 0 || h.dst < 0 ||
          h.src >= static_cast<int>(n_) || h.dst >= static_cast<int>(n_)) {
        return -1;
      }
      if (h.open == 0 &&
          scratch_.link_at[static_cast<std::size_t>(h.src) * n_ +
                           static_cast<std::size_t>(h.dst)] < 0) {
        return -1;
      }
      prev = h.dst;
    }

    const soc::Flow& flow = spec_.flows[flow_idx];
    FlowRoute& route = topo_.routes[flow_idx];
    route.src_switch = s_sw;
    route.dst_switch = d_sw;
    const double bw = flow.bandwidth_bits_per_s;
    for (const DeltaHop& h : rec.hops) {
      const int link_id =
          h.open != 0 ? open_link(h.src, h.dst)
                      : scratch_.link_at[static_cast<std::size_t>(h.src) * n_ +
                                         static_cast<std::size_t>(h.dst)];
      TopLink& l = topo_.links[static_cast<std::size_t>(link_id)];
      l.carried_bw_bits_per_s += bw;
      l.flows.push_back(static_cast<int>(flow_idx));
      route.links.push_back(link_id);
      if (power_lb_ >= 0.0) {
        accumulate_power_lb(h.src, h.dst, l, bw, /*pass_through=*/h.dst != d_sw);
      }
    }
    route.crossings = 0;
    for (const int l : route.links) {
      if (topo_.links[static_cast<std::size_t>(l)].crosses_island) ++route.crossings;
    }
    route.latency_cycles = route_latency_cycles(topo_, route, opts_.tech);
    if (route.latency_cycles > flow.max_latency_cycles + 1e-9) {
      outcome.failure_reason = "latency violated for flow '" + flow.label +
                               "' (" + std::to_string(route.latency_cycles) +
                               " > " + std::to_string(flow.max_latency_cycles) + ")";
      outcome.failed_flow = static_cast<int>(flow_idx);
      outcome.latency_violation = true;
      return 0;
    }
    return 1;
  }

  /// One flow of an armed delta run (see DeltaRouteState). UNTOUCHED flows
  /// replay the record (or, under the forced certificate, re-derive the
  /// path with their own solo Dijkstra and verify it against the record):
  /// intra-island flows of an in-sync island, and — pass 1 only — cross-
  /// island flows between in-sync islands while no link touches the
  /// intermediate VI, whose recorded distance beats the CrossIslandBound.
  /// AFFECTED flows — tainted islands, a touched VI, a certificate miss —
  /// route live; a live cross route whose hop sequence differs from the
  /// record's ends reuse for every island either sequence touches.
  bool delta_route_flow(std::size_t pos, std::size_t flow_idx,
                        RouteOutcome& outcome) {
    const soc::Flow& flow = spec_.flows[flow_idx];
    const int s_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.src)];
    const int d_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.dst)];
    if (s_sw == d_sw) {
      // Trivial either way (no links, no state change): route live,
      // uncounted — it would inflate the reuse rate without saving work.
      return route_flow(flow_idx, outcome);
    }
    const soc::IslandId src_isl =
        spec_.cores[static_cast<std::size_t>(flow.src)].island;
    const soc::IslandId dst_isl =
        spec_.cores[static_cast<std::size_t>(flow.dst)].island;
    const DeltaRouteRec& rec = delta_->ref->records[pos];
    const bool intra = src_isl == dst_isl;
    const std::vector<char>& tainted = delta_->island_tainted;
    const bool in_sync =
        tainted[static_cast<std::size_t>(src_isl)] == 0 &&
        (intra || (cross_armed_ && !intermediate_touched_ &&
                   tainted[static_cast<std::size_t>(dst_isl)] == 0 &&
                   cross_bound_.certifies(rec.dist, flow, src_isl, dst_isl)));
    if (in_sync) {
      if (cert_forced_) {
        // Route-equivalence certificate: the flow's own solo Dijkstra over
        // the current state (route_flow IS that Dijkstra). Acceptance proves
        // the replay would have been bit-identical; a rejection taints the
        // islands and keeps the certified path, so results never depend on
        // the record or the bound being right.
        if (!route_flow(flow_idx, outcome)) return false;
        reconstruct_hops(flow_idx, delta_->actual_hops);
        if (delta_->actual_hops == rec.hops) {
          ++delta_->flows_certified;
        } else {
          ++delta_->cert_rejects;
          ++delta_->flows_rerouted;
          taint_hops(rec.hops);
          taint_hops(delta_->actual_hops);
        }
        return true;
      }
      const int replayed = replay_recorded_flow(flow_idx, rec, s_sw, d_sw, outcome);
      if (replayed >= 0) {
        ++delta_->flows_reused;
        return replayed != 0;
      }
      // Record not applicable (defensive; never expected while in sync):
      // end reuse for the flow's islands and route live below.
      delta_->island_tainted[static_cast<std::size_t>(src_isl)] = 1;
      delta_->island_tainted[static_cast<std::size_t>(dst_isl)] = 1;
    }
    if (!route_flow(flow_idx, outcome)) return false;
    ++delta_->flows_rerouted;
    if (!intra) {
      // A cross flow that routed exactly as the reference's record leaves
      // every island it touched in sync; any difference (typically: the
      // intermediate VI absorbed it) diverges them.
      reconstruct_hops(flow_idx, delta_->actual_hops);
      if (!(delta_->actual_hops == rec.hops)) {
        taint_hops(rec.hops);
        taint_hops(delta_->actual_hops);
      }
    }
    return true;
  }

  /// Adds the sound, refine-stable part of this bandwidth increment to the
  /// running power lower bound: FIFO energy on crossings (bandwidth-only),
  /// wire energy only when neither endpoint is an intermediate switch
  /// (position refinement moves intermediate switches, so those wire lengths
  /// may still change; island switches never move), and the downstream
  /// switch's traffic energy at its core-only port floor when the hop makes
  /// the flow VISIT a switch its endpoint floor did not count.
  void accumulate_power_lb(int a, int b, const TopLink& l, double bw,
                           bool pass_through) {
    const soc::IslandId a_isl = island_of_switch(topo_, a);
    const soc::IslandId b_isl = island_of_switch(topo_, b);
    if (a_isl != b_isl) power_lb_ += fifo_w_per_bw_ * bw;
    if (a_isl != kIntermediateIsland && b_isl != kIntermediateIsland) {
      power_lb_ += link_w_per_bw_mm_ * l.length_mm * bw;
    }
    if (pass_through && bound_->switch_ebit_floor != nullptr) {
      power_lb_ += (*bound_->switch_ebit_floor)[static_cast<std::size_t>(b)] * bw;
    }
  }

  int open_link(int a, int b) {
    TopLink l;
    l.src_switch = a;
    l.dst_switch = b;
    l.crosses_island = crossing(a, b);
    l.length_mm = hop_length_mm(a, b);
    const int id = static_cast<int>(topo_.links.size());
    topo_.links.push_back(std::move(l));
    scratch_.link_at[static_cast<std::size_t>(a) * n_ +
                     static_cast<std::size_t>(b)] = id;
    ++scratch_.ports_out[static_cast<std::size_t>(a)];
    ++scratch_.ports_in[static_cast<std::size_t>(b)];
    refresh_ebit(a);
    refresh_ebit(b);
    intermediate_touched_ |=
        scratch_.island_of[static_cast<std::size_t>(a)] == kIntermediateIsland ||
        scratch_.island_of[static_cast<std::size_t>(b)] == kIntermediateIsland;
    if (power_lb_ >= 0.0) {
      // The two new ports clock forever: their idle power is an exact,
      // monotone addition to the final switch dynamic power.
      power_lb_ += k_.idle_w_per_hz * (switch_freq(topo_, a) + switch_freq(topo_, b));
    }
    return id;
  }

  NocTopology& topo_;
  const soc::SocSpec& spec_;
  const RouterOptions& opts_;
  RouterScratch& scratch_;
  const RouteBound* bound_ = nullptr;
  DeltaReference* rec_out_ = nullptr;  ///< recording observer (reference runs)
  DeltaRouteState* delta_ = nullptr;   ///< delta replay state (member runs)
  bool delta_apply_ = false;  ///< delta armed: reference valid, p_norm equal
  bool cert_forced_ = false;  ///< verify every replay with its solo Dijkstra
  bool cross_armed_ = false;  ///< cross-island replay possible (pass 1)
  bool intermediate_touched_ = false;  ///< a link opened at a VI switch
  CrossIslandBound cross_bound_;       ///< valid when cross_armed_
  bool rec_dist_ok_ = false;  ///< recorded distances are certificate inputs
  double last_dist_ = kNaN;   ///< destination distance of the last Dijkstra
  const CostCoeffs k_;
  std::size_t n_ = 0;
  double p_norm_ = 1.0;
  // Admissible-subset iteration (see route_flow).
  std::vector<int> island_begin_;
  std::vector<int> island_end_;
  bool contiguous_ = false;
  /// Vectorized relaxation filter enabled (compiled in AND not disabled at
  /// runtime); sampled once at construction.
  bool use_simd_ = false;
  std::vector<double> floor_;  ///< n x n opening-cost floors of this pass
  // Pruning state; power_lb_ < 0 means pruning disabled for this pass.
  double power_lb_ = -1.0;
  double lat_sum_lb_ = 0.0;
  double fifo_w_per_bw_ = 0.0;
  double link_w_per_bw_mm_ = 0.0;
};

/// Resets `g` for a new candidate topology: hop lengths and their leakage
/// scalings recomputed, class runs invalidated (buffers kept, refilled
/// lazily). `link_leak_c` is fl(link_leakage_mw_per_wire_mm * 1e-3) — a
/// pure technology constant, so the leak_len matrix stays width-invariant.
void prepare_geometry(RoutingGeometry& g, const NocTopology& topo,
                      std::size_t n_islands, double link_leak_c) {
  const std::size_t n = topo.switches.size();
  g.n = n;
  g.n_islands = n_islands;
  g.hop_len.assign(n * n, 0.0);
  g.leak_len.assign(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      g.hop_len[a * n + b] =
          floorplan::manhattan_mm(topo.switches[a].pos, topo.switches[b].pos);
      g.leak_len[a * n + b] = link_leak_c * g.hop_len[a * n + b];
    }
  }
  const std::size_t n_classes = (n_islands + 1) * (n_islands + 1);
  if (g.classes.size() != n_classes) g.classes.resize(n_classes);
  for (RoutingGeometry::FlowClass& c : g.classes) c.built = false;
}

}  // namespace

RouteOutcome route_all_flows(NocTopology& topo, const soc::SocSpec& spec,
                             const RouterOptions& options, RouterScratch* scratch,
                             const RouteBound* bound, DeltaReference* record,
                             DeltaRouteState* delta) {
  if (options.max_ports.size() != topo.switches.size()) {
    RouteOutcome out;
    out.failure_reason = "RouterOptions::max_ports size mismatch";
    return out;
  }
  RouterScratch local;
  RouterScratch& sc = scratch != nullptr ? *scratch : local;
  if (sc.geometry_token == 0 || sc.geometry_built_token != sc.geometry_token) {
    prepare_geometry(sc.geometry, topo, spec.islands.size(),
                     options.tech.link_leakage_mw_per_wire_mm * 1e-3);
    sc.geometry_built_token = sc.geometry_token;
  }
  if (record != nullptr) {
    record->records.clear();
    record->p_norm = 0.0;
    record->valid = false;
  }
  if (delta != nullptr) delta->clear_outputs();

  bool has_intermediate = false;
  for (const SwitchInst& s : topo.switches) {
    if (s.island == kIntermediateIsland) has_intermediate = true;
  }
  // Mid-routing pruning is only sound when the fallback pass cannot change
  // the outcome: a pass-1 abandonment would otherwise hide the pass-2 design
  // the unpruned path could still have produced. (The pre-routing base bound
  // covers both passes and is checked by the evaluation stage.)
  const bool fallback_possible = has_intermediate && !options.forbid_direct_cross;
  const RouteBound* pass1_bound = fallback_possible ? nullptr : bound;

  if (fallback_possible) {
    sc.fallback = topo;  // pristine copy for the retry pass (capacity reused)
  }
  RouteOutcome first;
  {
    // Recording observes pass 1 only: the records describe the greedy
    // pass's trajectory, which is exactly what a consumer's pass 1 (and,
    // for intra-island flows, its pass 2) must be compared against. A
    // reference that fails or prunes mid-pass still leaves a usable
    // routed prefix.
    Router router(topo, spec, options, sc, pass1_bound, record, delta);
    if (record != nullptr) {
      record->p_norm = router.p_norm();
      record->valid = true;
    }
    first = router.run();
    if (first.success || first.pruned || options.forbid_direct_cross) {
      return first;
    }
  }
  if (!fallback_possible) return first;
  // Greedy pass stranded a flow. An intermediate switch exists, so retry
  // with all cross-island traffic concentrated through the NoC VI (far
  // fewer ports consumed on the island switches).
  OBS_SPAN("route_fallback_pass");
  topo = sc.fallback;
  RouterOptions retry = options;
  retry.forbid_direct_cross = true;
  Router router(topo, spec, retry, sc, bound, nullptr, delta);
  RouteOutcome second = router.run();
  if (!second.success && !second.pruned) {
    // Report the greedy pass's diagnosis; it is usually more informative.
    second.failure_reason = first.failure_reason;
    second.failed_flow = first.failed_flow;
    second.latency_violation = first.latency_violation;
  }
  return second;
}

bool certify_delta_member(const NocTopology& topo, const soc::SocSpec& spec,
                          const RouterOptions& options, DeltaRouteState& delta) {
  const DeltaReference* ref = delta.ref;
  if (ref == nullptr || !ref->valid || options.forbid_direct_cross ||
      ref->records.size() != spec.flows.size() ||
      options.max_ports.size() != topo.switches.size()) {
    return false;
  }
  const double p_norm = power_normalizer(topo, spec, options.tech);
  if (p_norm != ref->p_norm) return false;
  const CrossIslandBound bound(topo, spec.islands.size(), options,
                               CostCoeffs(options.tech), p_norm);
  std::vector<std::size_t> local_order;
  const std::vector<std::size_t>* order = options.flow_order;
  if (order == nullptr) {
    local_order = bandwidth_descending_order(spec);
    order = &local_order;
  }
  // Nothing is tainted and no VI link opens while every flow replays, so
  // each flow's replay condition reduces to its static part.
  int replayed = 0;
  for (std::size_t pos = 0; pos < order->size(); ++pos) {
    const soc::Flow& flow = spec.flows[(*order)[pos]];
    if (topo.switch_of_core[static_cast<std::size_t>(flow.src)] ==
        topo.switch_of_core[static_cast<std::size_t>(flow.dst)]) {
      continue;  // trivial: routed live and uncounted by the replay too
    }
    ++replayed;
    const soc::IslandId a = spec.cores[static_cast<std::size_t>(flow.src)].island;
    const soc::IslandId b = spec.cores[static_cast<std::size_t>(flow.dst)].island;
    if (a != b && !bound.certifies(ref->records[pos].dist, flow, a, b)) {
      return false;
    }
  }
  delta.clear_outputs();
  delta.pnorm_matched = true;
  delta.member_skipped = true;
  delta.flows_reused = replayed;
  return true;
}

}  // namespace vinoc::core
