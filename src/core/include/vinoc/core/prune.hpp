// Pareto-bound pruning support for the candidate-evaluation hot path.
//
// Algorithm 1 keeps a (noc_dynamic_w, avg_latency_cycles) Pareto front over
// the saved design points. During a sweep most candidates are dominated —
// their final metrics cannot beat any front point — and the evaluation
// engine can prove that EARLY, from monotone lower bounds on the metrics
// (see candidates.cpp / router.cpp), and abandon the candidate before the
// expensive routing + metrics work completes.
//
// ParetoBound is the dominance oracle: an incrementally maintained
// (power asc, latency strictly desc) staircase. `dominated(p_lb, l_lb)` is
// true when some recorded point has power <= p_lb AND latency <= l_lb; since
// a candidate's final metrics are >= its lower bounds component-wise, and
// the shared pareto_front() rule never admits a point that is
// dominated-or-equal, a dominated bound proves the candidate can never
// enter the front. Pruning on this oracle therefore preserves the Pareto
// front exactly; only dominated interior points are dropped from
// SynthesisResult::points.
//
// SharedParetoBound is the concurrent wrapper workers publish finished
// points into. Workers take an immutable snapshot per candidate (one lock),
// so mid-routing checks are lock-free. Because a snapshot may contain points
// from candidates that enumerate LATER, a worker's prune decision can differ
// from the sequential run's; the engine's merge restores bit-identical
// output in deterministic mode by replaying any pruned candidate whose
// recorded bound is NOT dominated under the enumeration-ordered merge front
// (monotonicity of the bounds makes that check sufficient — see
// OutcomeMerger in candidates.hpp).
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

namespace vinoc::core {

/// Incremental (power, latency) dominance staircase. Not thread-safe; see
/// SharedParetoBound for the concurrent wrapper.
class ParetoBound {
 public:
  /// True if some recorded point has power <= power_lb and latency <=
  /// latency_lb (the point "dominates or equals" the bound).
  [[nodiscard]] bool dominated(double power_lb, double latency_lb) const {
    // front_ is sorted by power ascending with latency strictly descending,
    // so the minimum latency among points with power <= power_lb belongs to
    // the LAST such point.
    auto it = std::upper_bound(
        front_.begin(), front_.end(), power_lb,
        [](double p, const Point& pt) { return p < pt.power_w; });
    if (it == front_.begin()) return false;
    return std::prev(it)->latency_cycles <= latency_lb;
  }

  /// Records a finished design point's (power, latency). Dominated-or-equal
  /// incoming points are ignored; existing points the newcomer dominates are
  /// removed, keeping the staircase minimal.
  void insert(double power_w, double latency_cycles) {
    auto it = std::upper_bound(
        front_.begin(), front_.end(), power_w,
        [](double p, const Point& pt) { return p < pt.power_w; });
    if (it != front_.begin()) {
      const auto prev = std::prev(it);
      if (prev->latency_cycles <= latency_cycles) {
        return;  // dominated or equal: nothing new
      }
      if (prev->power_w == power_w) {
        // Equal power, worse latency: the newcomer supersedes it. (At most
        // one such point can exist — this branch keeps powers unique.)
        it = front_.erase(prev);
      }
    }
    it = front_.insert(it, Point{power_w, latency_cycles});
    // Drop successors with latency >= ours (they have power >= ours too).
    auto tail = std::next(it);
    auto last = tail;
    while (last != front_.end() && last->latency_cycles >= latency_cycles) {
      ++last;
    }
    front_.erase(tail, last);
  }

  [[nodiscard]] std::size_t size() const { return front_.size(); }
  [[nodiscard]] bool empty() const { return front_.empty(); }

 private:
  struct Point {
    double power_w;
    double latency_cycles;
  };
  std::vector<Point> front_;
};

/// Concurrent publish/snapshot wrapper over ParetoBound. Publishing and
/// snapshotting are mutex-guarded; snapshots are immutable and safe to query
/// from any thread without further locking.
class SharedParetoBound {
 public:
  void publish(double power_w, double latency_cycles) {
    const std::lock_guard<std::mutex> lock(mutex_);
    bound_.insert(power_w, latency_cycles);
    dirty_ = true;
  }

  /// Immutable snapshot for one candidate's checks (null when no point has
  /// been published yet — nothing to prune against).
  [[nodiscard]] std::shared_ptr<const ParetoBound> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (dirty_) {
      snap_ = std::make_shared<const ParetoBound>(bound_);
      dirty_ = false;
    }
    return snap_;
  }

 private:
  std::mutex mutex_;
  ParetoBound bound_;
  std::shared_ptr<const ParetoBound> snap_;
  bool dirty_ = false;
};

}  // namespace vinoc::core
