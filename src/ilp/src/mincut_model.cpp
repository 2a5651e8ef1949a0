#include "vinoc/ilp/mincut_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace vinoc::ilp {

BisectionResult optimal_bisection(const graph::Digraph& g, std::size_t min_side,
                                  std::size_t max_side, std::int64_t max_nodes) {
  const std::size_t n = g.node_count();
  if (n < 2) throw std::invalid_argument("optimal_bisection: need >= 2 nodes");
  if (min_side > max_side || max_side > n) {
    throw std::invalid_argument("optimal_bisection: bad side bounds");
  }
  const graph::Digraph u = g.undirected_view();

  Model m;
  std::vector<int> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = m.add_var(0.0, std::string("x") + std::to_string(i));
  }
  // Break symmetry: node 0 on side 0.
  m.add_linear({x[0]}, {1.0}, Sense::kEqual, 0.0, "sym");

  std::vector<int> y;
  y.reserve(u.edge_count());
  for (std::size_t e = 0; e < u.edge_count(); ++e) {
    const auto& edge = u.edge(static_cast<graph::EdgeId>(e));
    const int ye = m.add_var(edge.weight, std::string("y") + std::to_string(e));
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

LinkChoiceResult optimal_link_choice(const LinkChoiceProblem& prob,
                                     std::int64_t max_nodes) {
  Model m;
  const std::size_t nl = prob.links.size();
  std::vector<int> open_var(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    open_var[l] = m.add_var(prob.links[l].cost, "open" + std::to_string(l));
  }

  // Index candidate links by unordered endpoint pair.
  auto links_between = [&](int a, int b) {
    std::vector<std::size_t> out;
    for (std::size_t l = 0; l < nl; ++l) {
      const auto& cl = prob.links[l];
      if ((cl.a == a && cl.b == b) || (cl.a == b && cl.b == a)) out.push_back(l);
    }
    return out;
  };

  // Each flow picks exactly one route; a route via link set S requires all of
  // S open. Route variables cost 0.
  for (std::size_t f = 0; f < prob.flows.size(); ++f) {
    const auto& flow = prob.flows[f];
    std::vector<int> route_vars;

    auto add_route = [&](const std::vector<std::size_t>& link_set) {
      const int rv = m.add_var(0.0, std::string("r") + std::to_string(f) +
                                        "_" + std::to_string(route_vars.size()));
      route_vars.push_back(rv);
      for (const std::size_t l : link_set) {
        // rv <= open_l
        m.add_linear({rv, open_var[l]}, {1.0, -1.0}, Sense::kLessEqual, 0.0);
      }
    };

    for (const std::size_t l : links_between(flow.src, flow.dst)) add_route({l});
    for (const int relay : prob.relays) {
      if (relay == flow.src || relay == flow.dst) continue;
      for (const std::size_t l1 : links_between(flow.src, relay)) {
        for (const std::size_t l2 : links_between(relay, flow.dst)) {
          add_route({l1, l2});
        }
      }
    }
    if (route_vars.empty()) return {};  // no way to route this flow
    std::vector<double> ones(route_vars.size(), 1.0);
    m.add_linear(route_vars, ones, Sense::kGreaterEqual, 1.0,
                 "flow" + std::to_string(f));
  }

  SolveOptions opts;
  opts.max_nodes = max_nodes;
  const SolveResult r = solve(m, opts);

  LinkChoiceResult out;
  if (r.status == SolveResult::Status::kInfeasible || r.assignment.empty()) return out;
  out.feasible = true;
  out.proven_optimal = (r.status == SolveResult::Status::kOptimal);
  out.total_cost = r.objective;
  out.opened.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    out.opened[l] = r.assignment[static_cast<std::size_t>(open_var[l])] != 0;
  }
  return out;
}

}  // namespace vinoc::ilp
