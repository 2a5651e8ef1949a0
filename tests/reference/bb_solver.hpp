// Exact 0/1 integer linear program solver (branch and bound), the engine
// behind the exact-bisection oracle (bisection.hpp): tests prove the
// partitioner's cut is optimal, or within a stated bound, on small graphs by
// solving the min-cut ILP.
//
// Scope: binary variables only, linear objective and constraints. Bounding is
// LP-free (sum of beneficial free coefficients), plus per-constraint interval
// propagation for pruning infeasible subtrees. This is exponential in the
// worst case and intended for <= ~30 variables; solve() takes a node budget
// and reports if it was exhausted.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace vinoc::reference::ilp {

enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// One linear constraint: sum(coeffs[i] * x[var_ids[i]]) <sense> rhs.
struct Constraint {
  std::vector<int> var_ids;
  std::vector<double> coeffs;
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
  std::string name;
};

/// Minimization 0/1 ILP model.
class Model {
 public:
  /// Adds a binary variable with objective coefficient `cost`; returns its id.
  int add_var(double cost, std::string name = {});

  void add_constraint(Constraint c);
  /// Convenience: sum(coeffs . vars) <sense> rhs.
  void add_linear(const std::vector<int>& vars, const std::vector<double>& coeffs,
                  Sense sense, double rhs, std::string name = {});

  [[nodiscard]] std::size_t var_count() const { return costs_.size(); }
  [[nodiscard]] std::size_t constraint_count() const { return constraints_.size(); }
  [[nodiscard]] double cost(int var) const { return costs_.at(static_cast<std::size_t>(var)); }
  [[nodiscard]] const std::string& var_name(int var) const {
    return var_names_.at(static_cast<std::size_t>(var));
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Objective value of a full assignment.
  [[nodiscard]] double objective(const std::vector<std::uint8_t>& x) const;
  /// True if the full assignment satisfies every constraint (tolerance 1e-9).
  [[nodiscard]] bool feasible(const std::vector<std::uint8_t>& x) const;

 private:
  std::vector<double> costs_;
  std::vector<std::string> var_names_;
  std::vector<Constraint> constraints_;
};

struct SolveResult {
  enum class Status { kOptimal, kInfeasible, kNodeLimit };
  Status status = Status::kInfeasible;
  double objective = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> assignment;  ///< size var_count() when a solution exists
  std::int64_t nodes_explored = 0;
};

struct SolveOptions {
  std::int64_t max_nodes = 50'000'000;
  /// Optional known-feasible warm start (size var_count()); tightens the
  /// incumbent immediately so the search mostly proves optimality.
  std::optional<std::vector<std::uint8_t>> warm_start;
};

/// Depth-first branch and bound with best-coefficient variable ordering.
SolveResult solve(const Model& model, const SolveOptions& options = {});

}  // namespace vinoc::reference::ilp
