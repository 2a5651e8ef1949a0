// Exact-bisection oracle: the min-cut bisection as a 0/1 ILP, solved by
// bb_solver.hpp, gives provably optimal reference cuts for validating the
// heuristic partitioner on small graphs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bb_solver.hpp"
#include "vinoc/graph/digraph.hpp"

namespace vinoc::reference::ilp {

/// Optimal balanced bisection of the undirected view of `g`:
/// minimize the cut weight subject to each side holding between
/// `min_side` and `max_side` nodes (inclusive). Formulation:
///   x_i in {0,1}  = side of node i (x_0 fixed to 0 to break symmetry)
///   y_e in {0,1}  = 1 iff edge e is cut, with y_e >= x_u - x_v and
///                   y_e >= x_v - x_u; minimizing sum(w_e * y_e) makes the
///                   relaxation tight at integral optima.
struct BisectionResult {
  bool feasible = false;
  bool proven_optimal = false;  ///< false if the node budget ran out
  double cut_weight = 0.0;
  std::vector<int> side_of;  ///< 0/1 per node
};

BisectionResult optimal_bisection(const graph::Digraph& g, std::size_t min_side,
                                  std::size_t max_side,
                                  std::int64_t max_nodes = 50'000'000);

}  // namespace vinoc::reference::ilp
