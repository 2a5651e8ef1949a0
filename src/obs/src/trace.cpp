#include "vinoc/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace vinoc::obs {
namespace {

/// Fixed-capacity event ring for one thread. The owning thread appends
/// under `mu`; the collector reads under the same mutex. Contention is
/// effectively zero (the exporter runs after the traced region quiesces),
/// so a mutex beats a lock-free ring on simplicity and TSan cleanliness.
struct TraceSink {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t capacity = 0;
  std::size_t head = 0;  ///< next write position once the ring is full
  bool wrapped = false;
  std::uint64_t dropped = 0;
  int tid = 0;
  std::string name;

  void push(const TraceEvent& ev) {
    const std::lock_guard<std::mutex> lock(mu);
    if (ring.size() < capacity) {
      ring.push_back(ev);
      return;
    }
    // Drop-oldest: overwrite the slot `head` points at and count the loss.
    ring[head] = ev;
    head = (head + 1) % capacity;
    wrapped = true;
    ++dropped;
  }

  /// Events in record order (oldest surviving first).
  void snapshot_into(std::vector<TraceEvent>& out) {
    const std::lock_guard<std::mutex> lock(mu);
    if (!wrapped) {
      out.insert(out.end(), ring.begin(), ring.end());
      return;
    }
    out.insert(out.end(), ring.begin() + static_cast<std::ptrdiff_t>(head),
               ring.end());
    out.insert(out.end(), ring.begin(),
               ring.begin() + static_cast<std::ptrdiff_t>(head));
  }
};

struct Collector {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceSink>> live;     ///< threads still running
  std::vector<std::shared_ptr<TraceSink>> retired;  ///< flushed at thread exit
  std::size_t ring_capacity = 1u << 16;
  int next_tid = 0;
  std::chrono::steady_clock::time_point epoch;
  bool epoch_set = false;
};

Collector& collector() {
  static Collector c;  // leaked-on-exit singleton; sinks outlive any thread
  return c;
}

/// Thread-local handle: shared ownership with the collector so the sink
/// (and its events) survives this thread's death until reset_tracing().
thread_local std::shared_ptr<TraceSink> t_sink;

TraceSink& local_sink() {
  if (!t_sink) {
    auto sink = std::make_shared<TraceSink>();
    Collector& c = collector();
    const std::lock_guard<std::mutex> lock(c.mu);
    sink->capacity = std::max<std::size_t>(1, c.ring_capacity);
    sink->ring.reserve(std::min<std::size_t>(sink->capacity, 1024));
    sink->tid = c.next_tid++;
    c.live.push_back(sink);
    t_sink = std::move(sink);
  }
  return *t_sink;
}

}  // namespace

namespace detail {
std::atomic<bool> g_tracing_enabled{false};

void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  TraceEvent ev;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns - start_ns;
  TraceSink& sink = local_sink();
  ev.tid = sink.tid;
  sink.push(ev);
}
}  // namespace detail

void set_tracing_enabled(bool enabled) {
  if (enabled) (void)trace_now_ns();  // arm the epoch before the first span
  detail::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

std::int64_t trace_now_ns() {
  Collector& c = collector();
  const auto now = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (!c.epoch_set) {
      c.epoch = now;
      c.epoch_set = true;
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now - c.epoch)
        .count();
  }
}

void set_trace_ring_capacity(std::size_t events) {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  c.ring_capacity = std::max<std::size_t>(1, events);
}

void set_thread_trace_name(const std::string& name) {
  TraceSink& sink = local_sink();
  const std::lock_guard<std::mutex> lock(sink.mu);
  sink.name = name;
}

void flush_thread_trace_sink() {
  if (!t_sink) return;
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  auto it = std::find(c.live.begin(), c.live.end(), t_sink);
  if (it != c.live.end()) {
    c.retired.push_back(std::move(*it));
    c.live.erase(it);
  }
  t_sink.reset();
}

TraceSnapshot collect_trace_events() {
  TraceSnapshot snap;
  Collector& c = collector();
  std::vector<std::shared_ptr<TraceSink>> sinks;
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    sinks.reserve(c.live.size() + c.retired.size());
    sinks.insert(sinks.end(), c.live.begin(), c.live.end());
    sinks.insert(sinks.end(), c.retired.begin(), c.retired.end());
    snap.thread_names.resize(static_cast<std::size_t>(c.next_tid));
  }
  for (const auto& sink : sinks) {
    sink->snapshot_into(snap.events);
    const std::lock_guard<std::mutex> lock(sink->mu);
    snap.dropped_events += sink->dropped;
    if (sink->tid >= 0 &&
        static_cast<std::size_t>(sink->tid) < snap.thread_names.size()) {
      snap.thread_names[static_cast<std::size_t>(sink->tid)] = sink->name;
    }
  }
  // Deterministic lane-major order; within a lane, outer spans (same start,
  // longer duration) sort before the children they enclose.
  std::sort(snap.events.begin(), snap.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  return snap;
}

void reset_tracing() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  // Live sinks belong to running threads whose thread_local handles still
  // point at them; empty each in place rather than orphaning it.
  for (const auto& sink : c.live) {
    const std::lock_guard<std::mutex> slock(sink->mu);
    sink->ring.clear();
    sink->head = 0;
    sink->wrapped = false;
    sink->dropped = 0;
  }
  c.retired.clear();
  c.epoch_set = false;
}

}  // namespace vinoc::obs
