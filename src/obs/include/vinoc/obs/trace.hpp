// vinoc::obs — scoped-span tracing for the synthesis pipeline.
//
// Design constraints (see also registry.hpp / profile.hpp):
//
//  * Observability must NEVER perturb results. Tracing is a pure
//    wall-clock knob like SynthesisOptions::threads: it is not part of any
//    spec hash, and enabling it changes no routed bit. Spans only READ the
//    pipeline; they write to per-thread sinks owned by this module.
//  * Near-zero cost when off. OBS_SPAN compiles to one relaxed atomic load
//    and a branch when tracing is runtime-disabled (measured on
//    bench_eval_hotpath; the obs_span_overhead metric tracks it).
//  * Lock-free on the hot path is not required — spans are recorded at
//    candidate/phase granularity (>= tens of microseconds each), so a
//    per-thread sink guarded by an uncontended mutex (only the exporter
//    ever contends) is both simple and TSan-clean.
//
// Each thread that records a span lazily registers a TraceSink: a
// fixed-capacity ring of TraceEvents with a DROP-OLDEST overflow policy
// (the newest events are the ones a flame timeline needs; the dropped
// count is reported in the export so truncation is never silent). Sinks
// are owned by the process-wide collector via shared_ptr, so events
// survive thread exit — a ThreadPool's workers flush implicitly when they
// quiesce (see exec/thread_pool.cpp's obs::on_worker_started/
// on_worker_exiting hooks, which also name the lane in the export).
//
// Export: collect_trace_events() snapshots every sink (live and retired)
// into one list sorted by (tid, start) — exactly what the Chrome
// trace_event writer (io/obs_writers.hpp) and tools/trace_check consume.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vinoc::obs {

/// One completed span ("X" phase in Chrome trace_event terms).
struct TraceEvent {
  const char* name = nullptr;  ///< static-storage literal (never freed)
  std::int64_t start_ns = 0;   ///< since trace_epoch (process start)
  std::int64_t dur_ns = 0;
  int tid = 0;  ///< dense per-thread id, assigned on first span
};

/// Runtime switch. Off by default; flipping it on/off is cheap and takes
/// effect on the next OBS_SPAN construction.
void set_tracing_enabled(bool enabled);
[[nodiscard]] bool tracing_enabled();

/// Nanoseconds since the trace epoch (steady clock; the epoch is captured
/// on first use so early spans do not start at huge offsets).
[[nodiscard]] std::int64_t trace_now_ns();

/// Capacity of each per-thread ring, in events. Applies to sinks created
/// AFTER the call (tests shrink it to exercise the drop-oldest policy).
void set_trace_ring_capacity(std::size_t events);

/// Labels the calling thread's sink in the export ("worker" lanes vs the
/// caller lane). exec::ThreadPool calls this from every worker.
void set_thread_trace_name(const std::string& name);

/// Flushes the calling thread's sink into the collector's retired list and
/// detaches it (subsequent spans on this thread start a fresh sink).
/// exec::ThreadPool calls this as each worker exits — the "flush at pool
/// quiesce" hook — so a pool's events are fully visible to an export that
/// runs after the pool is destroyed, and dead threads leave no live sink.
void flush_thread_trace_sink();

struct TraceSnapshot {
  std::vector<TraceEvent> events;  ///< sorted by (tid, start_ns, -dur_ns)
  /// tid -> lane name ("main", "worker", ...); indexed by TraceEvent::tid.
  std::vector<std::string> thread_names;
  std::uint64_t dropped_events = 0;  ///< ring overflow across all sinks
};

/// Snapshots every sink (live threads included — call after the traced
/// region quiesces for a complete picture).
[[nodiscard]] TraceSnapshot collect_trace_events();

/// Drops all recorded events, retired sinks and the dropped count, and
/// re-arms the epoch. Tests isolate themselves with this; the CLI does not
/// need it (one traced run per process).
void reset_tracing();

namespace detail {
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns);
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail

/// RAII scoped span. `name` MUST be a string literal (or otherwise outlive
/// the trace export): only the pointer is stored on the hot path.
class Span {
 public:
  explicit Span(const char* name) {
    if (detail::g_tracing_enabled.load(std::memory_order_relaxed)) {
      name_ = name;
      start_ns_ = trace_now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) detail::record_span(name_, start_ns_, trace_now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace vinoc::obs

// OBS_SPAN("route_flows"): trace the enclosing scope; a relaxed load +
// branch when tracing is disabled at runtime.
#define OBS_SPAN_CONCAT2(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT2(a, b)
#define OBS_SPAN(name) \
  const ::vinoc::obs::Span OBS_SPAN_CONCAT(obs_span_, __LINE__) { name }
