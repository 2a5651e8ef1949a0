#include "bb_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vinoc::reference::ilp {

namespace {
constexpr double kTol = 1e-9;
constexpr std::uint8_t kFree = 2;
}  // namespace

int Model::add_var(double cost, std::string name) {
  costs_.push_back(cost);
  var_names_.push_back(std::move(name));
  return static_cast<int>(costs_.size()) - 1;
}

void Model::add_constraint(Constraint c) {
  if (c.var_ids.size() != c.coeffs.size()) {
    throw std::invalid_argument("Constraint: var/coeff size mismatch");
  }
  for (const int v : c.var_ids) {
    if (v < 0 || static_cast<std::size_t>(v) >= var_count()) {
      throw std::out_of_range("Constraint references unknown variable");
    }
  }
  constraints_.push_back(std::move(c));
}

void Model::add_linear(const std::vector<int>& vars, const std::vector<double>& coeffs,
                       Sense sense, double rhs, std::string name) {
  Constraint c;
  c.var_ids = vars;
  c.coeffs = coeffs;
  c.sense = sense;
  c.rhs = rhs;
  c.name = std::move(name);
  add_constraint(std::move(c));
}

double Model::objective(const std::vector<std::uint8_t>& x) const {
  double obj = 0.0;
  for (std::size_t i = 0; i < costs_.size(); ++i) {
    if (x.at(i) != 0) obj += costs_[i];
  }
  return obj;
}

bool Model::feasible(const std::vector<std::uint8_t>& x) const {
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (std::size_t i = 0; i < c.var_ids.size(); ++i) {
      if (x.at(static_cast<std::size_t>(c.var_ids[i])) != 0) lhs += c.coeffs[i];
    }
    switch (c.sense) {
      case Sense::kLessEqual:
        if (lhs > c.rhs + kTol) return false;
        break;
      case Sense::kGreaterEqual:
        if (lhs < c.rhs - kTol) return false;
        break;
      case Sense::kEqual:
        if (std::abs(lhs - c.rhs) > kTol) return false;
        break;
    }
  }
  return true;
}

namespace {

/// Search state shared across the DFS.
struct Search {
  const Model& model;
  const std::vector<int>& order;          // variable branching order
  std::vector<std::uint8_t> assign;       // 0 / 1 / kFree
  double best_obj;
  std::vector<std::uint8_t> best_assign;
  bool found = false;
  std::int64_t nodes = 0;
  std::int64_t max_nodes;
  bool node_limit_hit = false;
};

/// For a partial assignment, returns false if some constraint can no longer
/// be satisfied no matter how the free variables are set.
bool partial_feasible(const Model& m, const std::vector<std::uint8_t>& assign) {
  for (const Constraint& c : m.constraints()) {
    double lo = 0.0;  // minimum achievable LHS
    double hi = 0.0;  // maximum achievable LHS
    for (std::size_t i = 0; i < c.var_ids.size(); ++i) {
      const std::uint8_t v = assign[static_cast<std::size_t>(c.var_ids[i])];
      const double a = c.coeffs[i];
      if (v == 1) {
        lo += a;
        hi += a;
      } else if (v == kFree) {
        lo += std::min(0.0, a);
        hi += std::max(0.0, a);
      }
    }
    switch (c.sense) {
      case Sense::kLessEqual:
        if (lo > c.rhs + kTol) return false;
        break;
      case Sense::kGreaterEqual:
        if (hi < c.rhs - kTol) return false;
        break;
      case Sense::kEqual:
        if (lo > c.rhs + kTol || hi < c.rhs - kTol) return false;
        break;
    }
  }
  return true;
}

/// Lower bound on the completed objective: committed cost plus every
/// beneficial (negative-cost) free variable taken.
double lower_bound(const Model& m, const std::vector<std::uint8_t>& assign) {
  double lb = 0.0;
  for (std::size_t i = 0; i < m.var_count(); ++i) {
    const double c = m.cost(static_cast<int>(i));
    if (assign[i] == 1) {
      lb += c;
    } else if (assign[i] == kFree && c < 0.0) {
      lb += c;
    }
  }
  return lb;
}

void dfs(Search& s, std::size_t depth) {
  if (s.node_limit_hit) return;
  if (++s.nodes > s.max_nodes) {
    s.node_limit_hit = true;
    return;
  }
  if (!partial_feasible(s.model, s.assign)) return;
  const double lb = lower_bound(s.model, s.assign);
  if (s.found && lb >= s.best_obj - kTol) return;

  if (depth == s.order.size()) {
    // All variables fixed; partial_feasible on a full assignment is exact.
    if (!s.found || lb < s.best_obj - kTol) {
      s.best_obj = lb;
      s.best_assign = s.assign;
      s.found = true;
    }
    return;
  }

  const auto var = static_cast<std::size_t>(s.order[depth]);
  // Try the objective-friendly value first.
  const std::uint8_t first = s.model.cost(static_cast<int>(var)) < 0.0 ? 1 : 0;
  for (const std::uint8_t val : {first, static_cast<std::uint8_t>(1 - first)}) {
    s.assign[var] = val;
    dfs(s, depth + 1);
    if (s.node_limit_hit) break;
  }
  s.assign[var] = kFree;
}

}  // namespace

SolveResult solve(const Model& model, const SolveOptions& options) {
  SolveResult result;
  const std::size_t n = model.var_count();

  // Branch on high-impact variables first: large |cost|, then constraint use.
  std::vector<std::size_t> usage(n, 0);
  for (const Constraint& c : model.constraints()) {
    for (const int v : c.var_ids) ++usage[static_cast<std::size_t>(v)];
  }
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ca = std::abs(model.cost(a));
    const double cb = std::abs(model.cost(b));
    if (ca != cb) return ca > cb;
    return usage[static_cast<std::size_t>(a)] > usage[static_cast<std::size_t>(b)];
  });

  Search s{model, order, std::vector<std::uint8_t>(n, kFree),
           std::numeric_limits<double>::infinity(), {}, false, 0,
           options.max_nodes, false};

  if (options.warm_start.has_value()) {
    const auto& ws = *options.warm_start;
    if (ws.size() != n) throw std::invalid_argument("warm_start size mismatch");
    if (model.feasible(ws)) {
      s.best_obj = model.objective(ws);
      s.best_assign = ws;
      s.found = true;
    }
  }

  dfs(s, 0);

  result.nodes_explored = s.nodes;
  if (s.node_limit_hit && !s.found) {
    result.status = SolveResult::Status::kNodeLimit;
    return result;
  }
  if (!s.found) {
    result.status = SolveResult::Status::kInfeasible;
    return result;
  }
  result.status = s.node_limit_hit ? SolveResult::Status::kNodeLimit
                                   : SolveResult::Status::kOptimal;
  result.objective = s.best_obj;
  result.assignment = s.best_assign;
  return result;
}

}  // namespace vinoc::reference::ilp
