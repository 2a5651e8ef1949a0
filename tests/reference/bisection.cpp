#include "bisection.hpp"

#include <cmath>
#include <stdexcept>

#include "partition.hpp"

namespace vinoc::reference::ilp {

BisectionResult optimal_bisection(const graph::Digraph& g, std::size_t min_side,
                                  std::size_t max_side, std::int64_t max_nodes) {
  const std::size_t n = g.node_count();
  if (n < 2) throw std::invalid_argument("optimal_bisection: need >= 2 nodes");
  if (min_side > max_side || max_side > n) {
    throw std::invalid_argument("optimal_bisection: bad side bounds");
  }
  const graph::Digraph u = undirected_view(g);

  Model m;
  std::vector<int> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = m.add_var(0.0);
  }
  // Break symmetry: node 0 on side 0.
  m.add_linear({x[0]}, {1.0}, Sense::kEqual, 0.0, "sym");

  std::vector<int> y;
  y.reserve(u.edge_count());
  for (std::size_t e = 0; e < u.edge_count(); ++e) {
    const auto& edge = u.edge(static_cast<graph::EdgeId>(e));
    const int ye = m.add_var(edge.weight);
    y.push_back(ye);
    const int xu = x[static_cast<std::size_t>(edge.src)];
    const int xv = x[static_cast<std::size_t>(edge.dst)];
    // y >= x_u - x_v   <=>   x_u - x_v - y <= 0
    m.add_linear({xu, xv, ye}, {1.0, -1.0, -1.0}, Sense::kLessEqual, 0.0);
    m.add_linear({xv, xu, ye}, {1.0, -1.0, -1.0}, Sense::kLessEqual, 0.0);
  }

  // Side-1 population bounds. (Side 0 bounds follow since sides partition V.)
  {
    std::vector<int> vars = x;
    std::vector<double> ones(n, 1.0);
    m.add_linear(vars, ones, Sense::kGreaterEqual, static_cast<double>(min_side), "bal_lo");
    m.add_linear(vars, ones, Sense::kLessEqual, static_cast<double>(max_side), "bal_hi");
  }

  SolveOptions opts;
  opts.max_nodes = max_nodes;
  const SolveResult r = solve(m, opts);

  BisectionResult out;
  if (r.status == SolveResult::Status::kInfeasible) return out;
  if (r.assignment.empty()) return out;  // node limit before any incumbent
  out.feasible = true;
  out.proven_optimal = (r.status == SolveResult::Status::kOptimal);
  out.cut_weight = r.objective;
  out.side_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.side_of[i] = r.assignment[static_cast<std::size_t>(x[i])];
  }
  return out;
}

}  // namespace vinoc::reference::ilp
