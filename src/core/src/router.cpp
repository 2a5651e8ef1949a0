#include "vinoc/core/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "vinoc/core/prune.hpp"
#include "vinoc/obs/trace.hpp"

namespace vinoc::core {

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

constexpr double kInf = std::numeric_limits<double>::infinity();
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

/// Largest coordinate of a switch position of `topo`, at least 0 (the
/// layout input of power_normalizer). A maximum does not depend on the
/// order it is taken in, so positions outside `topo` extend it exactly.
double layout_span(const NocTopology& topo) {
  double max_span = 0.0;
  for (const SwitchInst& s : topo.switches) {
    max_span = std::max({max_span, s.pos.x_mm, s.pos.y_mm});
  }
  return max_span;
}

/// Power normalizer of the link cost: opening a "typical" link (quarter-chip
/// wire at the design's peak flow bandwidth, with a FIFO). Its layout input
/// `max_span` covers every switch position, intermediates included, which
/// is why delta replay is gated on it being bit-equal to the reference's.
double power_normalizer(double max_span, const soc::SocSpec& spec,
                        const models::Technology& tech) {
  double max_bw = 0.0;
  for (const soc::Flow& f : spec.flows) {
    max_bw = std::max(max_bw, f.bandwidth_bits_per_s);
  }
  const double ref_len = std::max(0.5, max_span / 2.0);
  const double p_norm =
      models::LinkModel(tech).dynamic_power_w(ref_len, std::max(max_bw, 1.0)) +
      models::BisyncFifoModel(tech).dynamic_power_w(std::max(max_bw, 1.0));
  return p_norm <= 0.0 ? 1e-3 : p_norm;
}

/// Relative slack of the strict comparisons of the cross-island certificate
/// and the goal bound. Both sides sum the same non-negative terms in
/// different association orders: a computed hop cost is within ~12 ulp
/// (relative) of its real value, a path sum adds one rounding per hop of
/// non-negative terms, and a bound itself rounds ~25 times — under
/// (40 + hops) ulp in all, ~1.4e-14 for the cross certificate's short
/// walks. 1e-12 leaves 70x of that in reserve, and still covers paths of
/// thousands of hops (a path visits each switch at most once).
constexpr double kBoundMargin = 1e-12;

/// The cross-island certificate of delta replay: a per-flow lower bound LB0
/// on every path through the intermediate VI that no ring can beat, valid
/// while no link touches the VI. link_admissible lets a flow from switch s
/// in island A to switch d in island B use the VI only as a walk
/// s ~>A u -> w ~>ring w' -> v ~>B d: A links into the VI, the VI links
/// only into B, and nothing leads back. With no VI link open, u->w, every
/// ring hop and w'->v must OPEN. A hop a->b costs alpha * p / p_norm +
/// latpart with
///   p = bw * (link_dyn * len + ebit(b) [+ fifo_dyn])          every hop,
///     + idle * (f_a + f_b) + link_leak * len * width [+ fifo_leak]
///                                                         when it opens,
/// bracketed terms on crossings only. Every term is non-negative, and
/// ebit(b) is at least its core-less value ebit(0) (it only grows with
/// ports). Summing over the walk and dropping every other term, with the
/// triangle inequality on Manhattan lengths M:
///  * every hop pays bw * link_dyn * len, and the walk is at least M(s,d)
///    long;
///  * the two crossings pay 2 * (bw * fifo_dyn + fifo_leak + latpart_cross)
///    and the crossbar energy of w and v, at least ebit(0) + ebit_min(B),
///    and they open ports clocked at least at f_A, f_VI (twice) and f_B;
///  * the opened hops lead from u in A to v in B, so they are at least
///    Gdir(A,B) = min over a in A, b in B of M(a,b) long.
/// If the reference's exact distance dist_ref is strictly below LB0 (less
/// the kBoundMargin slack), no walk through the VI reaches a node of
/// the recorded path at a cost <= that node's recorded distance: such a
/// walk ends in B, and extending it along the recorded path (which stays
/// in B from there) would reach d at a cost <= dist_ref. VI walks reach no
/// node of A, and a relaxation updates only on a strict improvement, so
/// every node of the recorded path keeps its distance and predecessor: the
/// live Dijkstra picks the recorded hops, the same reuse-vs-open choices
/// and the same tie order (see README). LB0 reads only the island switches
/// of the UNROUTED topology, which every candidate of a delta group shares,
/// and f_VI, never the ring: the recording run takes each verdict once
/// (DeltaRouteRec::certified) for every member whose ring runs at f_VI or
/// faster.
struct CrossIslandBound {
  /// Per destination island B: 2 * fifo_dyn + ebit(0) + ebit_min(B).
  std::vector<double> cross_slope;
  /// Per island pair (A, B), n_islands x n_islands: the opening terms,
  /// idle * (f_A + 2 * f_VI + f_B) + 2 * fifo_leak
  ///   + link_leak * width * Gdir(A,B).
  std::vector<double> open_floor;
  const double* hop_len = nullptr;  ///< M, n_sw x n_sw
  std::size_t n_sw = 0;
  std::size_t n_islands = 0;
  double scale = 0.0;  ///< alpha / p_norm
  double link_dyn = 0.0;
  double alpha = 0.0;
  double hop_lat_cross = 0.0;

  CrossIslandBound() = default;
  CrossIslandBound(const NocTopology& topo, const std::vector<double>& len,
                   std::size_t n_isl, const RouterOptions& opts,
                   const CostCoeffs& k, double p_norm)
      : hop_len(len.data()),
        n_sw(topo.switches.size()),
        n_islands(n_isl),
        scale(opts.alpha_power / p_norm),
        link_dyn(k.link_dyn),
        alpha(opts.alpha_power),
        hop_lat_cross(k.hop_lat_cross) {
    // Per island (`topo` has no VI switches): minimum frequency and
    // core-only crossbar energy; per island pair: the closest switch pair.
    std::vector<double> freq_min(n_isl, kInf);
    std::vector<double> ebit_min(n_isl, kInf);
    std::vector<double> gap(n_isl * n_isl, kInf);
    for (std::size_t u = 0; u < n_sw; ++u) {
      const SwitchInst& sw = topo.switches[u];
      const auto a = static_cast<std::size_t>(sw.island);
      freq_min[a] = std::min(freq_min[a], sw.freq_hz);
      ebit_min[a] = std::min(ebit_min[a], k.ebit(static_cast<int>(sw.cores.size())));
      for (std::size_t v = 0; v < n_sw; ++v) {
        const auto b = static_cast<std::size_t>(topo.switches[v].island);
        if (b == a) continue;
        gap[a * n_isl + b] = std::min(gap[a * n_isl + b], hop_len[u * n_sw + v]);
      }
    }
    const double width = static_cast<double>(opts.link_width_bits);
    const double f_vi = topo.intermediate_freq_hz;
    cross_slope.assign(n_isl, 0.0);
    open_floor.assign(n_isl * n_isl, kInf);
    for (std::size_t b = 0; b < n_isl; ++b) {
      cross_slope[b] = 2.0 * k.fifo_dyn + k.ebit(0) + ebit_min[b];
    }
    for (std::size_t a = 0; a < n_isl; ++a) {
      for (std::size_t b = 0; b < n_isl; ++b) {
        open_floor[a * n_isl + b] =
            k.idle_w_per_hz * (freq_min[a] + 2.0 * f_vi + freq_min[b]) +
            2.0 * k.fifo_leak + k.link_leak * width * gap[a * n_isl + b];
      }
    }
  }

  /// True when `dist_ref` (the reference's exact destination distance of
  /// `flow`, from switch `s` in island a to switch `d` in island b) is
  /// strictly below LB0. NaN never certifies.
  [[nodiscard]] bool certifies(double dist_ref, const soc::Flow& flow,
                               soc::IslandId a, soc::IslandId b, int s,
                               int d) const {
    const double m = hop_len[static_cast<std::size_t>(s) * n_sw +
                             static_cast<std::size_t>(d)];
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    const double bw = flow.bandwidth_bits_per_s;
    const double lat = (1.0 - alpha) * (hop_lat_cross / flow.max_latency_cycles);
    const double lb =
        scale * (bw * (link_dyn * m + cross_slope[ib]) +
                 open_floor[ia * n_islands + ib]) +
        2.0 * lat;
    return dist_ref < lb * (1.0 - kBoundMargin);
  }
};

/// The goal bound of route_flow: a lower bound LB(u) on the cost of every
/// admissible path u ~> d of one flow's Dijkstra, from per-flow constants
/// plus the Manhattan length M(u,d). A hop a->b costs
/// alpha * p / p_norm + latpart with p as in CrossIslandBound: every term
/// is non-negative, every hop pays bw * (link_dyn * len + ebit(b)) with
/// ebit(b) >= ebit(0), and a crossing also pays bw * fifo_dyn and
/// latpart_cross instead of latpart_intra. Dropping every other term:
///  * the triangle inequality makes any path at least M(u,d) long;
///  * it has h >= max(1, c) hops (u != d), c of them crossings;
///  * c is 0 for u in d's island (a flow never leaves its destination
///    island, and an intra flow never leaves its own), 2 from another
///    island in the intermediate-retry pass (direct island-to-island runs
///    are skipped, so the path enters and leaves the VI), and 1 otherwise.
/// So
///   LB(u) = alpha / p_norm * bw * (link_dyn * M(u,d) + h * ebit(0)
///           + c * fifo_dyn) + c * latpart_cross + (h - c) * latpart_intra,
/// where h - c is 1 for c = 0 and 0 otherwise. IEEE addition is monotone,
/// so a path through u reaches d at no less than fl(dist_u + LB(u)), up to
/// the kBoundMargin slack. When that is STRICTLY above d's tentative
/// distance (which only falls), no relaxation from u can set the final
/// distance or predecessor of any node on d's final path, not even by a
/// tie: a relaxation only updates on a strict improvement, and a node
/// whose relaxation ties for the final path reaches d at exactly its final
/// distance, so it is never skipped. route_flow therefore marks u done
/// without scanning its hops, and routes, DeltaRouteRec::dist, the cross
/// verdicts and every result stay bit-identical (README, "Goal-bounded
/// Dijkstra").
struct GoalBound {
  GoalBound(const CostCoeffs& k, double alpha, double p_norm, double bw,
            double lat_intra, double lat_cross, const double* len_to_d,
            const int* island, int d_island, bool forbid_direct_cross)
      : len_to_d_(len_to_d),
        island_(island),
        d_island_(d_island),
        two_crossings_(forbid_direct_cross && d_island != kIntermediateIsland),
        scale_(alpha / p_norm * bw),
        link_dyn_(k.link_dyn),
        tail_{k.ebit(0), k.ebit(0) + k.fifo_dyn,
              2.0 * (k.ebit(0) + k.fifo_dyn)},
        lat_{lat_intra, lat_cross, 2.0 * lat_cross} {}

  [[nodiscard]] double lb(std::size_t u) const {
    const int isl = island_[u];
    const int c = isl == d_island_
                      ? 0
                      : (two_crossings_ && isl != kIntermediateIsland ? 2 : 1);
    return scale_ * (link_dyn_ * len_to_d_[u] + tail_[c]) + lat_[c];
  }

 private:
  const double* len_to_d_;  ///< M(., d): row d of the symmetric hop lengths
  const int* island_;
  int d_island_;
  bool two_crossings_;
  double scale_;  ///< alpha / p_norm * bw
  double link_dyn_;
  double tail_[3];  ///< per crossing count c: h * ebit(0) + c * fifo_dyn
  double lat_[3];   ///< per c: c * latpart_cross + (h - c) * latpart_intra
};

/// Mutable routing state over a topology under construction. All transient
/// buffers live in the caller-provided RouterScratch, reset per construction
/// (assign, never shrink) so a sweep reuses one arena across candidates.
///
/// The per-flow shortest-path search is a Dijkstra over the flow's
/// admissible switches with three bit-exact accelerations:
///  * EXTRACTION uses a lazy (dist, index) min-heap, which pops nodes in
///    exactly the order the dense lowest-dist-then-lowest-index scan would
///    select them (stale entries — a superseded dist or an already-done
///    node — are skipped; every undone finite node always has one fresh
///    entry whose key equals its current dist);
///  * a RELAXATION is skipped outright when even the latency part of the
///    edge cost cannot beat dist[v]: the power part is non-negative and
///    IEEE addition is monotone, so the skipped relaxation provably would
///    not have updated anything;
///  * an EXPANSION is skipped when the goal bound (GoalBound) proves that
///    no path through the extracted node can reach the destination at or
///    below its tentative distance.
/// All three leave results bit-identical to the naive dense loop.
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
    norm_span_ = layout_span(topo_);
    p_norm_ = power_normalizer(norm_span_, spec_, opts_.tech);

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
    double ring_freq = kInf;  // slowest intermediate switch
    for (std::size_t s = 0; s < n_sw; ++s) {
      scratch_.island_of[s] = topo_.switches[s].island;
      scratch_.freq_of[s] = topo_.switches[s].freq_hz;
      refresh_ebit(static_cast<int>(s));
      if (topo_.switches[s].island == kIntermediateIsland) {
        ring_freq = std::min(ring_freq, scratch_.freq_of[s]);
      }
    }
    // A recorded distance certifies cross-island replays only when it came
    // from a Dijkstra without intermediate switches (see CrossIslandBound).
    rec_dist_ok_ = ring_freq == kInf;
    if (rec_out_ != nullptr && rec_dist_ok_) {
      cross_bound_ = CrossIslandBound(topo_, scratch_.geometry.hop_len,
                                      spec.islands.size(), opts_, k_, p_norm_);
    }

    if (bound_ != nullptr && bound_->front != nullptr) {
      power_lb_ = bound_->base_power_lb_w;
      lat_sum_lb_ = bound_->base_latency_sum_cycles;
      fifo_w_per_bw_ = opts_.tech.fifo_energy_pj_per_bit * 1e-12;
      link_w_per_bw_mm_ = opts_.tech.link_energy_pj_per_bit_mm * 1e-12;
    }

    // Arm delta replay only when the reference's power normalizer is
    // bit-equal to ours: p_norm is the single cross-candidate coupling of
    // intra-island routing decisions (everything else an intra Dijkstra
    // reads is island-local), so with equal normalizers an in-sync
    // island's decisions are input-identical to the reference's. Each pass
    // re-arms with a fresh taint vector (pass 2 restarts from a pristine
    // topology compared against the same pass-1 records). Cross-island
    // replay additionally needs pass 1's rules (the records' rules) and a
    // ring no slower than the one the records' verdicts assume.
    if (delta_ != nullptr) {
      const DeltaReference* ref = delta_->ref;
      delta_->pnorm_matched =
          ref != nullptr && ref->valid && ref->p_norm == p_norm_;
      delta_apply_ = delta_->pnorm_matched;
      if (delta_apply_) {
        delta_->island_tainted.assign(spec.islands.size(), 0);
        cross_armed_ = !opts_.forbid_direct_cross && ring_freq >= ref->vi_freq_hz;
      }
    }

    build_floor_matrix();
  }

  [[nodiscard]] double p_norm() const { return p_norm_; }
  [[nodiscard]] double norm_span() const { return norm_span_; }

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
      if (ok && rec_out_ != nullptr) record_flow(f);
      if (!ok) return outcome;
      ++outcome.flows_routed;
      if (bounding && !outcome.pruned) {
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
          // A recording pass routes on for the group's members.
          if (rec_out_ == nullptr) return outcome;
        }
      }
    }
    outcome.success = true;
    if (bounding && !outcome.pruned) {
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
    // Member switches of this class: those of the source and destination
    // islands and, for a cross-island class, the intermediate VI. Nothing
    // else is admissible, so a non-member's distance would stay infinite.
    // Members are grouped, ascending (the dense scan's iteration order),
    // into maximal runs of index-consecutive switches of one island, so
    // each source switch's admissible targets are a handful of dense ranges
    // the relaxation loop streams over.
    struct Segment {
      int lo, hi;
      soc::IslandId island;
    };
    std::vector<Segment> segments;
    std::vector<char> member(n_, 0);
    for (std::size_t s = 0; s < n_; ++s) {
      const soc::IslandId isl = scratch_.island_of[s];
      if (isl != src_isl && isl != dst_isl &&
          (src_isl == dst_isl || isl != kIntermediateIsland)) {
        continue;
      }
      member[s] = 1;
      const int sw = static_cast<int>(s);
      if (!segments.empty() && segments.back().hi == sw &&
          segments.back().island == isl) {
        ++segments.back().hi;
      } else {
        segments.push_back({sw, sw + 1, isl});
      }
    }
    c.run_begin.assign(n_ + 1, 0);
    c.runs.clear();
    for (std::size_t u = 0; u < n_; ++u) {
      c.run_begin[u] = static_cast<int>(c.runs.size());
      if (member[u] == 0) continue;
      const soc::IslandId a_isl = scratch_.island_of[u];
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
      scratch_.hops.clear();
      committed_ = &scratch_.hops;
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
    const auto ds = static_cast<std::size_t>(d_sw);
    const GoalBound goal(k_, opts_.alpha_power, p_norm_, bw, lat_part_intra,
                         lat_part_cross, &scratch_.geometry.hop_len[ds * n],
                         scratch_.island_of.data(), scratch_.island_of[ds],
                         forbid);
    constexpr double kKeep = 1.0 - kBoundMargin;
    RouterWork work;
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
      // Goal bound (see GoalBound): dist[d] is +inf until d is first
      // relaxed, so nothing is skipped before then.
      if ((dist_u + goal.lb(us)) * kKeep > dist[ds]) continue;
      ++work.expansions;

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
        for (int v = run.lo; v < run.hi; ++v) {
          const auto vs = static_cast<std::size_t>(v);
          // Bit-exact early skips: the full cost is >= latpart, and when no
          // link exists to reuse it is also >= the pair's opening floor (see
          // build_floor_matrix); IEEE addition is monotone, so a filtered
          // relaxation provably would not have updated anything. The two
          // thresholds also dispose of done nodes (dist == -inf).
          const int existing = link_row[vs];
          if (lat_thresh >= dist[vs] ||
              (existing < 0 && dist_u + (floor_row[vs] + latpart) >= dist[vs])) {
            continue;
          }
          ++work.relaxations;
          const double len = hop_row[vs];
          const double freq_v = scratch_.freq_of[vs];
          const double cap = width * std::min(freq_u, freq_v);
          // Width-invariant part of the marginal power: wire + downstream
          // crossbar + FIFO traversal.
          double p = k_.link_dyn * len * bw;
          p += scratch_.ebit_of[vs] * bw;
          if (cross) p += k_.fifo_dyn * bw;
          // Reuse the existing link when it has residual capacity, else try
          // to open a new (possibly parallel) one.
          int link = existing;
          const bool reuse =
              existing >= 0 &&
              topo_.links[static_cast<std::size_t>(existing)].carried_bw_bits_per_s +
                      bw <=
                  cap + 1e-6;
          if (!reuse) {
            // Opening needs a free out port on u and in port on v, enough
            // capacity, and (intra-island) a one-cycle wire.
            if (scratch_.ports_out[us] + 1 > opts_.max_ports[us] ||
                scratch_.ports_in[vs] + 1 > opts_.max_ports[vs] ||
                bw > cap + 1e-6 ||
                (opts_.enforce_wire_timing && !cross && len > wire_cap_u)) {
              continue;
            }
            // New ports clock on both sides; wires and (if crossing) a FIFO
            // leak.
            p += k_.idle_w_per_hz * (freq_u + freq_v);
            p += k_.link_leak * len * width;
            if (cross) p += k_.fifo_leak;
            link = -1;
          }
          const double cost = opts_.alpha_power * p / p_norm_ + latpart;
          if (std::isfinite(cost) && dist_u + cost < dist[vs]) {
            dist[vs] = dist_u + cost;
            pred[vs] = u;
            pred_link[vs] = link;
            heap.emplace_back(dist[vs], v);
            std::push_heap(heap.begin(), heap.end(), heap_after);
          }
        }
      }
    }

    scratch_.work += work;
    last_dist_ = dist[ds];
    if (!std::isfinite(last_dist_)) {
      outcome.failure_reason =
          "no admissible path for flow '" + flow.label + "'";
      outcome.failed_flow = static_cast<int>(flow_idx);
      return false;
    }

    // The path as a hop list: a hop opens a link iff its relaxation chose
    // to (pred_link is link_at[u][v] or -1, and a simple path visits each
    // switch pair once, so no earlier hop of it changes that choice).
    std::vector<DeltaHop>& hops = scratch_.hops;
    hops.clear();
    for (int v = d_sw; v != s_sw; v = pred[static_cast<std::size_t>(v)]) {
      const auto vs = static_cast<std::size_t>(v);
      hops.push_back({pred[vs], v, static_cast<unsigned char>(pred_link[vs] < 0)});
    }
    std::reverse(hops.begin(), hops.end());
    return commit_route(flow_idx, hops, s_sw, d_sw, outcome);
  }

  /// Commits the hop list of one flow to the topology, in path order:
  /// opens a link where a hop opens, else reuses the pair's latest link,
  /// and carries the flow on it, with the bound accounting, crossing count
  /// and latency check of the finished route. The list stays readable as
  /// the flow's committed hops (record_flow, the delta comparison). Returns
  /// false on a latency violation (`outcome` filled).
  bool commit_route(std::size_t flow_idx, const std::vector<DeltaHop>& hops,
                    int s_sw, int d_sw, RouteOutcome& outcome) {
    committed_ = &hops;
    const soc::Flow& flow = spec_.flows[flow_idx];
    FlowRoute& route = topo_.routes[flow_idx];
    route.src_switch = s_sw;
    route.dst_switch = d_sw;
    const double bw = flow.bandwidth_bits_per_s;
    route.crossings = 0;
    for (const DeltaHop& h : hops) {
      const int link_id =
          h.open != 0 ? open_link(h.src, h.dst)
                      : scratch_.link_at[static_cast<std::size_t>(h.src) * n_ +
                                         static_cast<std::size_t>(h.dst)];
      TopLink& l = topo_.links[static_cast<std::size_t>(link_id)];
      l.carried_bw_bits_per_s += bw;
      l.flows.push_back(static_cast<int>(flow_idx));
      route.links.push_back(link_id);
      if (l.crosses_island) ++route.crossings;
      if (power_lb_ >= 0.0) {
        accumulate_power_lb(h.src, h.dst, l, bw, /*pass_through=*/h.dst != d_sw);
      }
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

  /// Pure observation of a routed flow: its hop sequence, the Dijkstra's
  /// destination distance and, for a cross-island flow, the certificate's
  /// verdict, plus the reference's summary of them.
  void record_flow(std::size_t f) {
    DeltaRouteRec& rec = rec_out_->records.emplace_back();
    rec.hops = *committed_;
    rec.dist = rec_dist_ok_ ? last_dist_ : kNaN;
    if (rec.hops.empty()) return;  // trivial: never replayed
    ++rec_out_->replayable;
    const soc::Flow& flow = spec_.flows[f];
    const soc::IslandId a = spec_.cores[static_cast<std::size_t>(flow.src)].island;
    const soc::IslandId b = spec_.cores[static_cast<std::size_t>(flow.dst)].island;
    if (a == b) return;
    const FlowRoute& route = topo_.routes[f];
    rec.certified = rec_dist_ok_ &&
                    cross_bound_.certifies(rec.dist, flow, a, b, route.src_switch,
                                           route.dst_switch);
    rec_out_->cross_certified &= rec.certified;
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
  /// Dijkstra: commits the record's hop list through commit_route, exactly
  /// as a live route commits its own. Returns 1 when routed,
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
    return commit_route(flow_idx, rec.hops, s_sw, d_sw, outcome) ? 1 : 0;
  }

  /// One flow of an armed delta run (see DeltaRouteState). UNTOUCHED flows
  /// replay the record: intra-island flows of an in-sync island, and —
  /// pass 1 only — certified cross-island flows between in-sync islands
  /// while no link touches the intermediate VI.
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
                   tainted[static_cast<std::size_t>(dst_isl)] == 0 && rec.certified));
    if (in_sync) {
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
      if (!(*committed_ == rec.hops)) {
        taint_hops(rec.hops);
        taint_hops(*committed_);
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
    const int a_isl = scratch_.island_of[static_cast<std::size_t>(a)];
    const int b_isl = scratch_.island_of[static_cast<std::size_t>(b)];
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
      power_lb_ += k_.idle_w_per_hz * (scratch_.freq_of[static_cast<std::size_t>(a)] +
                                       scratch_.freq_of[static_cast<std::size_t>(b)]);
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
  bool cross_armed_ = false;  ///< cross-island replay possible (pass 1)
  bool intermediate_touched_ = false;  ///< a link opened at a VI switch
  CrossIslandBound cross_bound_;  ///< built when recording with rec_dist_ok_
  bool rec_dist_ok_ = false;  ///< recorded distances are certificate inputs
  double last_dist_ = kNaN;   ///< destination distance of the last Dijkstra
  /// Hop list of the last committed flow: scratch_.hops, or a replayed record.
  const std::vector<DeltaHop>* committed_ = nullptr;
  const CostCoeffs k_;
  std::size_t n_ = 0;
  double p_norm_ = 1.0;
  double norm_span_ = 0.0;  ///< layout input of p_norm_
  std::vector<double> floor_;  ///< n x n opening-cost floors of this pass
  // Pruning state; power_lb_ < 0 means pruning disabled for this pass.
  double power_lb_ = -1.0;
  double lat_sum_lb_ = 0.0;
  double fifo_w_per_bw_ = 0.0;
  double link_w_per_bw_mm_ = 0.0;
};

/// True when `g` was built from `topo`'s layout, `n_islands` and
/// `link_leak_c` — everything prepare_geometry and the lazily built classes
/// read — so it can be reused as is.
bool geometry_matches(const RoutingGeometry& g, const NocTopology& topo,
                      std::size_t n_islands, double link_leak_c) {
  if (g.classes.empty() || g.n_islands != n_islands ||
      g.link_leak_c != link_leak_c || g.pos.size() != topo.switches.size()) {
    return false;
  }
  for (std::size_t s = 0; s < g.pos.size(); ++s) {
    const SwitchInst& sw = topo.switches[s];
    if (g.island[s] != sw.island || g.pos[s].x_mm != sw.pos.x_mm ||
        g.pos[s].y_mm != sw.pos.y_mm) {
      return false;
    }
  }
  return true;
}

/// Rebuilds `g` for `topo`'s layout: layout recorded, hop lengths and their
/// leakage scalings recomputed, class runs invalidated (buffers kept,
/// refilled lazily). `link_leak_c` is fl(link_leakage_mw_per_wire_mm *
/// 1e-3) — a pure technology constant, so the leak_len matrix stays
/// width-invariant.
void prepare_geometry(RoutingGeometry& g, const NocTopology& topo,
                      std::size_t n_islands, double link_leak_c) {
  const std::size_t n = topo.switches.size();
  g.pos.resize(n);
  g.island.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    g.pos[s] = topo.switches[s].pos;
    g.island[s] = topo.switches[s].island;
  }
  g.n_islands = n_islands;
  g.link_leak_c = link_leak_c;
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
  const double link_leak_c = options.tech.link_leakage_mw_per_wire_mm * 1e-3;
  if (!geometry_matches(sc.geometry, topo, spec.islands.size(), link_leak_c)) {
    prepare_geometry(sc.geometry, topo, spec.islands.size(), link_leak_c);
  }
  if (record != nullptr) {
    record->records.clear();
    record->p_norm = 0.0;
    record->norm_span = 0.0;
    record->vi_freq_hz = topo.intermediate_freq_hz;
    record->replayable = 0;
    record->cross_certified = true;
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
    // reference that fails mid-pass still leaves a usable routed prefix.
    Router router(topo, spec, options, sc, pass1_bound, record, delta);
    if (record != nullptr) {
      record->p_norm = router.p_norm();
      record->norm_span = router.norm_span();
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

bool certify_delta_member(const std::vector<floorplan::Point>& ring,
                          double ring_freq_hz, const soc::SocSpec& spec,
                          const RouterOptions& options, DeltaRouteState& delta) {
  const DeltaReference* ref = delta.ref;
  if (ref == nullptr || !ref->valid || options.forbid_direct_cross ||
      ref->records.size() != spec.flows.size() || !ref->cross_certified ||
      !(ring_freq_hz >= ref->vi_freq_hz)) {
    return false;
  }
  // Nothing is tainted and no VI link opens while every flow replays, so
  // each flow's replay condition reduces to its verdict; what is left is
  // the normalizer, whose layout input the ring may extend.
  double span = ref->norm_span;
  for (const floorplan::Point& p : ring) span = std::max({span, p.x_mm, p.y_mm});
  if (span != ref->norm_span &&
      power_normalizer(span, spec, options.tech) != ref->p_norm) {
    return false;
  }
  delta.clear_outputs();
  delta.pnorm_matched = true;
  delta.member_skipped = true;
  delta.flows_reused = ref->replayable;
  return true;
}

}  // namespace vinoc::core
