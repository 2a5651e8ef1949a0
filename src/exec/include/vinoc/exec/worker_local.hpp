// Per-thread slots for reusable scratch state ("arena" reuse across tasks).
//
// The fan-out primitives hand indices to whatever strand pulls them next, so
// task-local buffers cannot live in the task closure without being rebuilt
// per index. A WorkerLocal<T> gives every strand (pool workers AND the
// participating caller) one lazily created T that persists across indices,
// across fan-outs, and — when the WorkerLocal itself outlives them — across
// whole jobs (the campaign engine keeps one for a full batch run).
//
// Contract:
//  * local() returns the calling thread's slot, creating it on first use.
//    The reference stays valid for the lifetime of the WorkerLocal (slots
//    are never evicted).
//  * A slot is only ever handed to its owning thread, so the caller may
//    mutate it without synchronisation; the registry lookup itself is
//    mutex-guarded and intended to be amortised (fetch once per task, not
//    once per inner-loop step).
//  * T must be default-constructible. Slots are destroyed with the
//    WorkerLocal, on whatever thread destroys it.
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace vinoc::exec {

template <typename T>
class WorkerLocal {
 public:
  WorkerLocal() = default;
  WorkerLocal(const WorkerLocal&) = delete;
  WorkerLocal& operator=(const WorkerLocal&) = delete;

  /// The calling thread's slot (created default-constructed on first use).
  [[nodiscard]] T& local() {
    const std::thread::id id = std::this_thread::get_id();
    const std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<T>& slot = slots_[id];
    if (!slot) slot = std::make_unique<T>();
    return *slot;
  }

  /// Number of distinct threads that have touched this WorkerLocal.
  [[nodiscard]] std::size_t slot_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

  /// Calls `fn` on every slot created so far, in no particular order. Only
  /// for use while no owning thread mutates its slot (after a fan-out).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, slot] : slots_) fn(static_cast<const T&>(*slot));
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<T>> slots_;
};

}  // namespace vinoc::exec
