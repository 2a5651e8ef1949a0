// Tests for the vinoc::exec worker pool and its deterministic fan-out
// primitives (index-ordered reduction, exception determinism, nesting).
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "vinoc/exec/cancel.hpp"
#include "vinoc/exec/ordered_drain.hpp"
#include "vinoc/exec/parallel_for.hpp"
#include "vinoc/exec/subprocess.hpp"
#include "vinoc/exec/thread_pool.hpp"

namespace vinoc::exec {
namespace {

TEST(Exec, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_EQ(resolve_thread_count(-3), 1);
  EXPECT_GE(resolve_thread_count(0), 1);  // hardware concurrency, at least 1
}

TEST(Exec, PoolReportsParallelism) {
  ThreadPool p1(1);
  EXPECT_EQ(p1.parallelism(), 1);
  ThreadPool p4(4);
  EXPECT_EQ(p4.parallelism(), 4);
}

TEST(Exec, ParallelForEachRunsEveryIndexOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    parallel_for_each(pool, hits.size(),
                      [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Exec, ParallelMapIsIndexOrdered) {
  ThreadPool pool(4);
  const std::vector<int> out = parallel_map<int>(
      pool, 100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(Exec, ZeroAndOneTaskEdgeCases) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for_each(pool, 0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for_each(pool, 1, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(Exec, LowestIndexExceptionWins) {
  // Every index still runs; afterwards the exception from the lowest
  // failing index (3) must be the one rethrown. This holds for the
  // sequential fast path (parallelism 1) too, so side effects on the error
  // path do not depend on the thread count.
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      parallel_for_each(pool, 64, [&ran](std::size_t i) {
        ran.fetch_add(1);
        if (i == 3 || i == 40) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(Exec, NestedFanOutCompletes) {
  // Outer fan-out over the pool; each outer task fans out again over the
  // same pool. Must complete (no deadlock) and cover the full index space.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 32);
  parallel_for_each(pool, 8, [&pool, &hits](std::size_t outer) {
    parallel_for_each(pool, 32, [&hits, outer](std::size_t inner) {
      hits[outer * 32 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Exec, OnWorkerThreadDistinguishesStrands) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);  // one worker + the caller
  std::atomic<bool> worker_flag{false};
  std::atomic<bool> done{false};
  pool.submit([&worker_flag, &done] {
    worker_flag.store(ThreadPool::on_worker_thread());
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(worker_flag.load());
  EXPECT_FALSE(ThreadPool::on_worker_thread());  // the caller is unchanged
}

TEST(Exec, SubmitFrontJumpsTheQueue) {
  // One worker; keep it busy with a gate job, queue A and B normally, then
  // push C to the front: the worker must run C before A and B.
  ThreadPool pool(2);
  std::atomic<bool> gate{false};
  std::atomic<bool> gate_entered{false};
  std::mutex order_mutex;
  std::vector<char> order;
  auto record = [&order_mutex, &order](char c) {
    const std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(c);
  };
  std::atomic<int> pending{4};
  pool.submit([&gate, &gate_entered, &pending] {
    gate_entered.store(true);
    while (!gate.load()) std::this_thread::yield();
    pending.fetch_sub(1);
  });
  while (!gate_entered.load()) std::this_thread::yield();
  pool.submit([&record, &pending] { record('A'); pending.fetch_sub(1); });
  pool.submit([&record, &pending] { record('B'); pending.fetch_sub(1); });
  pool.submit_front([&record, &pending] { record('C'); pending.fetch_sub(1); });
  gate.store(true);
  while (pending.load() != 0) std::this_thread::yield();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 'C');
  EXPECT_EQ(order[1], 'A');
  EXPECT_EQ(order[2], 'B');
}

TEST(Exec, SubmitFrontRunsInlineWithoutWorkers) {
  ThreadPool pool(1);
  bool ran = false;
  pool.submit_front([&ran] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(OrderedDrainQueue, MergesInIndexOrderWithEverythingDrainedAtBarrier) {
  // Concurrent out-of-order deposits must merge in strict index order, the
  // buffer hook must balance to zero, and once every deposit() returned
  // (the fan-out barrier) nothing may remain buffered. `merged` needs no
  // lock: merge calls are serialised by the queue (exclusive drainer,
  // handed off under its mutex).
  constexpr std::size_t kN = 64;
  OrderedDrainQueue<int> queue(kN);
  std::vector<int> merged;
  int buffered = 0;
  int peak = 0;
  ThreadPool pool(4);
  parallel_for_each(pool, kN, [&](std::size_t i) {
    queue.deposit(
        i, static_cast<int>(i * 10),
        [&merged](int&& value) { merged.push_back(value); },
        [&](int delta) {
          buffered += delta;
          peak = std::max(peak, buffered);
        });
  });
  ASSERT_EQ(merged.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(merged[i], static_cast<int>(i * 10));
  }
  EXPECT_EQ(buffered, 0);
  EXPECT_GE(peak, 1);
}

TEST(OrderedDrainQueue, SlowDrainerPicksUpConcurrentDepositsWithoutStalling) {
  // One deposit's merge is made artificially slow while every other deposit
  // lands. The contention contract under test: depositors must NOT stall on
  // the in-progress merge (the queue drops its lock around merge calls), the
  // mid-drain deposits must be picked up when the drainer re-checks the
  // cursor, and — because the drainer only bows out when the queue is empty —
  // every merge of this run happens on the first depositor's thread.
  constexpr std::size_t kN = 48;
  OrderedDrainQueue<int> queue(kN);
  std::vector<int> merged;
  std::atomic<bool> gate{false};
  std::atomic<bool> first_merge_entered{false};
  int buffered = 0;  // mutated under the queue lock only
  int peak = 0;
  bool single_drainer = true;  // mutated by serialised merge calls only
  std::thread::id drainer_id;
  auto on_buffered = [&](int delta) {
    buffered += delta;
    peak = std::max(peak, buffered);
  };
  std::thread drainer([&] {
    drainer_id = std::this_thread::get_id();
    queue.deposit(
        0, 0,
        [&](int&& value) {
          if (value == 0) {
            first_merge_entered.store(true);
            while (!gate.load()) std::this_thread::yield();
          }
          if (std::this_thread::get_id() != drainer_id) single_drainer = false;
          merged.push_back(value);
        },
        on_buffered);
  });
  while (!first_merge_entered.load()) std::this_thread::yield();
  // The drainer is parked inside merge(0) with the lock dropped: all these
  // deposits must return promptly instead of waiting for the merge.
  std::vector<std::thread> depositors;
  for (std::size_t i = 1; i < kN; ++i) {
    depositors.emplace_back([&queue, &merged, &on_buffered, i] {
      queue.deposit(
          i, static_cast<int>(i),
          [&merged](int&& value) { merged.push_back(value); }, on_buffered);
    });
  }
  for (std::thread& t : depositors) t.join();
  gate.store(true);
  drainer.join();
  ASSERT_EQ(merged.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(merged[i], static_cast<int>(i));
  }
  EXPECT_TRUE(single_drainer);
  EXPECT_EQ(buffered, 0);
  // Index 0 left the buffer before its merge began; every other deposit then
  // landed while that merge was parked, so the high-water mark is exactly
  // the full out-of-order window.
  EXPECT_EQ(peak, static_cast<int>(kN) - 1);
}

TEST(OrderedDrainQueue, ReverseOrderBuffersFullWindowThenDrainsInOneSweep) {
  // Deposits arrive in strictly reverse order, i.e. every deposit is beyond
  // the buffered window until index 0 lands: nothing may merge early, the
  // whole queue is buffered at the peak, and the final deposit's drain loop
  // releases everything in index order before deposit(0) returns.
  constexpr std::size_t kN = 16;
  OrderedDrainQueue<int> queue(kN);
  std::vector<int> merged;
  int buffered = 0;
  int peak = 0;
  auto on_buffered = [&](int delta) {
    buffered += delta;
    peak = std::max(peak, buffered);
  };
  auto merge = [&merged](int&& value) { merged.push_back(value); };
  for (std::size_t i = kN; i-- > 1;) {
    queue.deposit(i, static_cast<int>(i), merge, on_buffered);
    EXPECT_TRUE(merged.empty());
    EXPECT_EQ(buffered, static_cast<int>(kN - i));
  }
  queue.deposit(0, 0, merge, on_buffered);
  ASSERT_EQ(merged.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(merged[i], static_cast<int>(i));
  }
  EXPECT_EQ(buffered, 0);
  EXPECT_EQ(peak, static_cast<int>(kN));
}

TEST(OrderedDrainQueue, EverythingMergedOnceEveryDepositHasReturned) {
  // The queue has no close(): its drain-after-last-deposit contract is that
  // once every deposit() call has RETURNED, every outcome has merged. The
  // risky interleaving is a deposit landing exactly while the current
  // drainer is bowing out (it must either be seen by the drainer's cursor
  // re-check or trigger its own drain). Stress that window with two
  // interleaved depositor threads over many rounds.
  constexpr std::size_t kN = 32;
  for (int round = 0; round < 200; ++round) {
    OrderedDrainQueue<int> queue(kN);
    std::vector<int> merged;
    int buffered = 0;
    auto on_buffered = [&buffered](int delta) { buffered += delta; };
    auto merge = [&merged](int&& value) { merged.push_back(value); };
    auto work = [&](std::size_t first) {
      for (std::size_t i = first; i < kN; i += 2) {
        queue.deposit(i, static_cast<int>(i), merge, on_buffered);
      }
    };
    std::thread a(work, 0);
    std::thread b(work, 1);
    a.join();
    b.join();
    ASSERT_EQ(merged.size(), kN) << "round " << round;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(merged[i], static_cast<int>(i));
    }
    EXPECT_EQ(buffered, 0);
  }
}

TEST(OrderedDrainQueue, SequentialDepositsMergeImmediately) {
  OrderedDrainQueue<int> queue(8);
  std::vector<int> merged;
  int peak = 0;
  int buffered = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    queue.deposit(i, static_cast<int>(i),
                  [&merged](int&& v) { merged.push_back(v); },
                  [&](int delta) {
                    buffered += delta;
                    peak = std::max(peak, buffered);
                  });
  }
  ASSERT_EQ(merged.size(), 8u);
  EXPECT_EQ(peak, 1);  // in-order arrival never buffers more than itself
  EXPECT_EQ(buffered, 0);
}

TEST(Exec, SubmitRunsJobs) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::atomic<int> pending{16};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&sum, &pending, i] {
      sum.fetch_add(i);
      pending.fetch_sub(1);
    });
  }
  // The destructor drains the queue; join via busy-wait to keep the test
  // independent of that detail.
  while (pending.load() != 0) std::this_thread::yield();
  EXPECT_EQ(sum.load(), 120);
}

TEST(Exec, LeakedExceptionIsRecordedNotTerminate) {
  // Inline path (no workers): the throwing job runs on the caller.
  ThreadPool solo(1);
  solo.submit([] { throw std::runtime_error("leaked inline"); });
  ASSERT_NE(solo.worker_error(), nullptr);
  EXPECT_THROW(std::rethrow_exception(solo.worker_error()),
               std::runtime_error);

  // Worker path: the pool records the first leak instead of terminating.
  ThreadPool pool(4);
  std::atomic<int> pending{2};
  pool.submit([&pending] {
    pending.fetch_sub(1);
    throw std::runtime_error("leaked on worker");
  });
  pool.submit([&pending] { pending.fetch_sub(1); });
  while (pending.load() != 0) std::this_thread::yield();
  while (pool.worker_error() == nullptr) std::this_thread::yield();
  EXPECT_THROW(std::rethrow_exception(pool.worker_error()),
               std::runtime_error);
}

TEST(Exec, CancelTokenFlagDeadlineAndParentChain) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  EXPECT_NO_THROW(child.check("here"));

  parent.cancel();  // propagates down the chain
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(child.flag_cancelled());
  EXPECT_THROW(child.check("here"), CancelledError);

  CancelToken expired;
  expired.set_timeout(-1.0);  // already past
  EXPECT_TRUE(expired.cancelled());
  EXPECT_FALSE(expired.flag_cancelled());  // deadline, not explicit cancel

  CancelToken open;
  open.set_timeout(3600.0);
  EXPECT_FALSE(open.cancelled());
}

/// Everything `child` writes to stdout, until EOF.
std::vector<std::string> read_to_eof(ChildProcess& child) {
  std::vector<std::string> lines;
  while (child.read_available(lines)) {
    pollfd pfd{child.stdout_fd(), POLLIN, 0};
    ::poll(&pfd, 1, 1000);
  }
  return lines;
}

TEST(ChildProcess, ExtraEnvReplacesInheritedVariable) {
  ASSERT_EQ(::setenv("VINOC_TEST_X", "parent", 1), 0);
  ASSERT_EQ(::setenv("VINOC_TEST_Y", "kept", 1), 0);
  const auto run = [](const std::vector<std::string>& argv) {
    auto child = ChildProcess::spawn(argv, {"VINOC_TEST_X=override"});
    if (child == nullptr) return std::vector<std::string>{"spawn failed"};
    std::vector<std::string> out = read_to_eof(*child);
    child->wait_exit();
    if (child->exit_code() != 0) out.push_back("exit code != 0");
    return out;
  };
  const std::vector<std::string> printed = run(
      {"/bin/sh", "-c", "printf '%s,%s' \"$VINOC_TEST_X\" \"$VINOC_TEST_Y\""});
  // The raw environment: the override must replace the inherited entry,
  // not sit beside it.
  std::vector<std::string> env;
  for (const std::string& line : run({"/usr/bin/env"})) {
    if (line.rfind("VINOC_TEST_", 0) == 0) env.push_back(line);
  }
  ::unsetenv("VINOC_TEST_X");
  ::unsetenv("VINOC_TEST_Y");
  EXPECT_EQ(printed, std::vector<std::string>{"override,kept"});
  std::sort(env.begin(), env.end());
  EXPECT_EQ(env, (std::vector<std::string>{"VINOC_TEST_X=override",
                                           "VINOC_TEST_Y=kept"}));
}

TEST(ChildProcess, DestructorReapsTheChild) {
  auto child = ChildProcess::spawn({"/bin/sh", "-c", "sleep 30"});
  ASSERT_NE(child, nullptr);
  const int pid = child->pid();
  child.reset();  // SIGKILL, then reap
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(pid, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace vinoc::exec
