#include "vinoc/core/synthesis.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/exec/thread_pool.hpp"

namespace vinoc::core {

const DesignPoint& SynthesisResult::best_power() const {
  if (points.empty()) throw std::logic_error("SynthesisResult: no design points");
  return *std::min_element(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return a.metrics.noc_dynamic_w < b.metrics.noc_dynamic_w;
                           });
}

const DesignPoint& SynthesisResult::best_latency() const {
  if (points.empty()) throw std::logic_error("SynthesisResult: no design points");
  return *std::min_element(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return a.metrics.avg_latency_cycles <
                                    b.metrics.avg_latency_cycles;
                           });
}

SynthesisResult synthesize(const soc::SocSpec& spec,
                           const SynthesisOptions& options) {
  exec::ThreadPool pool(options.threads);
  EvalScratchPool scratch;
  return synthesize(spec, options, pool, scratch);
}

SynthesisResult synthesize(const soc::SocSpec& spec, const SynthesisOptions& options,
                           exec::ThreadPool& pool, EvalScratchPool& scratch) {
  std::vector<WidthSweepEntry> entries = synthesize_width_set(
      spec, {options.link_width_bits}, options, pool, scratch);
  if (!entries.front().feasible) {
    throw InfeasibleWidthError(
        "synthesize: an NI link exceeds attainable bandwidth; widen links");
  }
  return std::move(entries.front().result);
}

}  // namespace vinoc::core
