// Unit tests for the exact-bisection oracle in tests/reference/: the 0/1
// branch-and-bound ILP solver and the min-cut bisection model on top of it.
#include <gtest/gtest.h>

#include <random>

#include "reference/bb_solver.hpp"
#include "reference/bisection.hpp"

namespace vinoc::reference::ilp {
namespace {

TEST(BbSolver, UnconstrainedMinimizationTakesNegativeCosts) {
  Model m;
  m.add_var(-2.0);
  m.add_var(3.0);
  m.add_var(-0.5);
  const SolveResult r = solve(m);
  ASSERT_EQ(r.status, SolveResult::Status::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, -2.5);
  EXPECT_EQ(r.assignment[0], 1);
  EXPECT_EQ(r.assignment[1], 0);
  EXPECT_EQ(r.assignment[2], 1);
}

TEST(BbSolver, EqualityConstraintForcesSelection) {
  Model m;
  const int a = m.add_var(5.0);
  const int b = m.add_var(2.0);
  const int c = m.add_var(9.0);
  // Exactly two of the three must be picked.
  m.add_linear({a, b, c}, {1.0, 1.0, 1.0}, Sense::kEqual, 2.0);
  const SolveResult r = solve(m);
  ASSERT_EQ(r.status, SolveResult::Status::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 7.0);  // a + b
}

TEST(BbSolver, DetectsInfeasibility) {
  Model m;
  const int a = m.add_var(1.0);
  m.add_linear({a}, {1.0}, Sense::kGreaterEqual, 2.0);  // x >= 2 impossible
  const SolveResult r = solve(m);
  EXPECT_EQ(r.status, SolveResult::Status::kInfeasible);
}

TEST(BbSolver, KnapsackStyleCover) {
  // Minimize cost subject to covering weight >= 10.
  Model m;
  const int x0 = m.add_var(4.0);  // weight 6
  const int x1 = m.add_var(3.0);  // weight 5
  const int x2 = m.add_var(2.0);  // weight 5
  const int x3 = m.add_var(10.0); // weight 12
  m.add_linear({x0, x1, x2, x3}, {6.0, 5.0, 5.0, 12.0}, Sense::kGreaterEqual, 10.0);
  const SolveResult r = solve(m);
  ASSERT_EQ(r.status, SolveResult::Status::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 5.0);  // x1 + x2
}

TEST(BbSolver, WarmStartMustBeFeasibleToCount) {
  Model m;
  const int a = m.add_var(1.0);
  const int b = m.add_var(1.0);
  m.add_linear({a, b}, {1.0, 1.0}, Sense::kGreaterEqual, 1.0);
  SolveOptions opts;
  opts.warm_start = std::vector<std::uint8_t>{0, 0};  // infeasible start
  const SolveResult r = solve(m, opts);
  ASSERT_EQ(r.status, SolveResult::Status::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 1.0);
}

TEST(BbSolver, NodeLimitReported) {
  // 24 coupled variables with a tiny budget: must report the limit.
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 24; ++i) vars.push_back(m.add_var(i % 2 == 0 ? 1.0 : -1.0));
  std::vector<double> ones(vars.size(), 1.0);
  m.add_linear(vars, ones, Sense::kEqual, 12.0);
  SolveOptions opts;
  opts.max_nodes = 5;
  const SolveResult r = solve(m, opts);
  EXPECT_EQ(r.status, SolveResult::Status::kNodeLimit);
}

TEST(BbSolver, ObjectiveAndFeasibleHelpers) {
  Model m;
  const int a = m.add_var(2.0);
  const int b = m.add_var(-1.0);
  m.add_linear({a, b}, {1.0, 2.0}, Sense::kLessEqual, 2.0);
  const std::vector<std::uint8_t> x = {1, 0};
  EXPECT_DOUBLE_EQ(m.objective(x), 2.0);
  EXPECT_TRUE(m.feasible(x));
  const std::vector<std::uint8_t> y = {1, 1};
  EXPECT_FALSE(m.feasible(y));  // 1 + 2 > 2
}

TEST(BbSolver, RejectsMalformedConstraints) {
  Model m;
  m.add_var(1.0);
  EXPECT_THROW(m.add_linear({0, 1}, {1.0, 1.0}, Sense::kLessEqual, 1.0),
               std::out_of_range);
  EXPECT_THROW(m.add_linear({0}, {1.0, 2.0}, Sense::kLessEqual, 1.0),
               std::invalid_argument);
}

// Property: the solver's optimum matches brute-force enumeration on random
// small models.
class BbSolverPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BbSolverPropertyTest, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> cost_dist(-5.0, 5.0);
  std::uniform_int_distribution<int> coeff_dist(-3, 3);
  const int n = 10;
  Model m;
  for (int i = 0; i < n; ++i) m.add_var(cost_dist(rng));
  for (int c = 0; c < 4; ++c) {
    std::vector<int> vars;
    std::vector<double> coeffs;
    for (int i = 0; i < n; ++i) {
      const int a = coeff_dist(rng);
      if (a != 0) {
        vars.push_back(i);
        coeffs.push_back(static_cast<double>(a));
      }
    }
    if (vars.empty()) continue;
    m.add_linear(vars, coeffs, c % 2 == 0 ? Sense::kLessEqual : Sense::kGreaterEqual,
                 static_cast<double>(coeff_dist(rng)));
  }

  // Brute force.
  double best = std::numeric_limits<double>::infinity();
  bool any = false;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<std::uint8_t> x(n);
    for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    if (m.feasible(x)) {
      any = true;
      best = std::min(best, m.objective(x));
    }
  }

  const SolveResult r = solve(m);
  if (!any) {
    EXPECT_EQ(r.status, SolveResult::Status::kInfeasible);
  } else {
    ASSERT_EQ(r.status, SolveResult::Status::kOptimal);
    EXPECT_NEAR(r.objective, best, 1e-9);
    EXPECT_TRUE(m.feasible(r.assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BbSolverPropertyTest,
                         ::testing::Range(100u, 112u));

TEST(OptimalBisection, SplitsTwoCliquesAtTheBridge) {
  graph::Digraph g(6);
  for (const auto& [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}}) g.add_edge(a, b, 8.0);
  for (const auto& [a, b] : {std::pair{3, 4}, {4, 5}, {3, 5}}) g.add_edge(a, b, 8.0);
  g.add_edge(2, 3, 1.0);
  const BisectionResult r = optimal_bisection(g, 3, 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.cut_weight, 1.0);
  EXPECT_EQ(r.side_of[0], r.side_of[1]);
  EXPECT_EQ(r.side_of[3], r.side_of[4]);
  EXPECT_NE(r.side_of[0], r.side_of[3]);
}

TEST(OptimalBisection, BalanceBoundsRespected) {
  // A star: center 0, leaves 1..5. Any bisection cuts something; with side
  // bounds [2,4] the optimum puts the centre with as many leaves as allowed.
  graph::Digraph g(6);
  for (int leaf = 1; leaf < 6; ++leaf) g.add_edge(0, leaf, 1.0);
  const BisectionResult r = optimal_bisection(g, 2, 4);
  ASSERT_TRUE(r.feasible);
  int side1 = 0;
  for (const int s : r.side_of) side1 += s;
  EXPECT_GE(side1, 2);
  EXPECT_LE(side1, 4);
  EXPECT_DOUBLE_EQ(r.cut_weight, 2.0);  // two leaves separated from centre
}

}  // namespace
}  // namespace vinoc::reference::ilp
