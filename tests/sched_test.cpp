#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/sim_executor.h"
#include "sched/thread_pool.h"
#include "sim/simulator.h"

namespace marea::sched {
namespace {

// --- SimExecutor ----------------------------------------------------------------

TEST(SimExecutorTest, StrictPriorityOrder) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  std::vector<Priority> order;
  // Occupy the CPU so posts queue up behind it.
  exec.post(Priority::kBackground, [] {}, milliseconds(1));
  exec.post(Priority::kFileTransfer,
            [&] { order.push_back(Priority::kFileTransfer); },
            microseconds(10));
  exec.post(Priority::kVariable,
            [&] { order.push_back(Priority::kVariable); }, microseconds(10));
  exec.post(Priority::kEvent, [&] { order.push_back(Priority::kEvent); },
            microseconds(10));
  exec.post(Priority::kRpc, [&] { order.push_back(Priority::kRpc); },
            microseconds(10));
  sim.run();
  EXPECT_EQ(order,
            (std::vector<Priority>{Priority::kEvent, Priority::kRpc,
                                   Priority::kVariable,
                                   Priority::kFileTransfer}));
}

TEST(SimExecutorTest, FifoWithinPriority) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  std::vector<int> order;
  exec.post(Priority::kEvent, [] {}, milliseconds(1));
  for (int i = 0; i < 4; ++i) {
    exec.post(Priority::kEvent, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimExecutorTest, FifoModeIgnoresPriorities) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.set_fifo(true);
  std::vector<Priority> order;
  exec.post(Priority::kBackground, [] {}, milliseconds(1));
  exec.post(Priority::kFileTransfer,
            [&] { order.push_back(Priority::kFileTransfer); });
  exec.post(Priority::kEvent, [&] { order.push_back(Priority::kEvent); });
  sim.run();
  EXPECT_EQ(order, (std::vector<Priority>{Priority::kFileTransfer,
                                          Priority::kEvent}));
}

TEST(SimExecutorTest, CostOccupiesCpu) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  TimePoint first_done{}, second_done{};
  exec.post(Priority::kEvent, [&] { first_done = sim.now(); },
            milliseconds(5));
  exec.post(Priority::kEvent, [&] { second_done = sim.now(); },
            milliseconds(3));
  sim.run();
  EXPECT_EQ(first_done.ns, milliseconds(5).ns);
  EXPECT_EQ(second_done.ns, milliseconds(8).ns);
}

TEST(SimExecutorTest, ScheduleDelaysExecution) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  TimePoint ran{};
  exec.schedule(milliseconds(7), Priority::kEvent,
                [&] { ran = sim.now(); });
  sim.run();
  EXPECT_EQ(ran.ns, milliseconds(7).ns);
}

TEST(SimExecutorTest, CancelScheduled) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  bool ran = false;
  TaskTimerId id = exec.schedule(milliseconds(1), Priority::kEvent,
                                 [&] { ran = true; });
  exec.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimExecutorTest, WaitStatsPerPriority) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.post(Priority::kEvent, [] {}, milliseconds(2));
  exec.post(Priority::kVariable, [] {}, milliseconds(1));
  sim.run();
  const auto& stats = exec.stats();
  EXPECT_EQ(stats.tasks_run, 2u);
  EXPECT_EQ(stats.count[static_cast<int>(Priority::kVariable)], 1u);
  // The variable task waited for the 2ms event task.
  EXPECT_EQ(stats.max_wait[static_cast<int>(Priority::kVariable)].ns,
            milliseconds(2).ns);
}

TEST(SimExecutorTest, ReservedSlotsDelayBulkWork) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  // Reserve [0,1ms) of every 10ms for events.
  exec.reserve_event_slots(milliseconds(10), milliseconds(1));
  TimePoint bulk_started{};
  // At t=0 we're inside a reserved window; a 500us file task must wait
  // until the window ends at 1ms.
  exec.post(Priority::kFileTransfer, [&] { bulk_started = sim.now(); },
            microseconds(500));
  sim.run();
  EXPECT_EQ(bulk_started.ns, (milliseconds(1) + microseconds(500)).ns);
}

TEST(SimExecutorTest, ReservedSlotsAdmitEventsAlways) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.reserve_event_slots(milliseconds(10), milliseconds(1));
  TimePoint event_done{};
  exec.post(Priority::kEvent, [&] { event_done = sim.now(); },
            microseconds(100));
  sim.run();
  EXPECT_EQ(event_done.ns, microseconds(100).ns);
}

TEST(SimExecutorTest, TaskNotStartedIfItWouldOverrunIntoSlot) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.reserve_event_slots(milliseconds(10), milliseconds(1));
  // At t=5ms, a 6ms bulk task would overlap the window at 10ms: it must
  // wait until 11ms.
  sim.run_until(TimePoint{milliseconds(5).ns});
  TimePoint started{};
  exec.post(Priority::kFileTransfer,
            [&] { started = TimePoint{sim.now().ns - milliseconds(6).ns}; },
            milliseconds(6));
  sim.run();
  EXPECT_EQ(started.ns, milliseconds(11).ns);
}

// --- ThreadPoolExecutor -----------------------------------------------------------

TEST(ThreadPoolTest, RunsPostedTasks) {
  ThreadPoolExecutor pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.post(Priority::kEvent, [&] { count.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.tasks_run(), 100u);
}

TEST(ThreadPoolTest, HigherPriorityDrainsFirst) {
  ThreadPoolExecutor pool(1);
  std::atomic<bool> block{true};
  std::vector<Priority> order;
  std::mutex m;
  // Jam the single worker, then queue one low and one high task.
  pool.post(Priority::kEvent, [&] {
    while (block.load()) std::this_thread::yield();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.post(Priority::kFileTransfer, [&] {
    std::lock_guard lock(m);
    order.push_back(Priority::kFileTransfer);
  });
  pool.post(Priority::kEvent, [&] {
    std::lock_guard lock(m);
    order.push_back(Priority::kEvent);
  });
  block = false;
  pool.drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], Priority::kEvent);
  EXPECT_EQ(order[1], Priority::kFileTransfer);
}

TEST(ThreadPoolTest, ScheduleFiresApproximatelyOnTime) {
  ThreadPoolExecutor pool(1);
  std::atomic<bool> ran{false};
  auto start = std::chrono::steady_clock::now();
  pool.schedule(milliseconds(50), Priority::kEvent, [&] { ran = true; });
  while (!ran.load() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(ran.load());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(45));
}

TEST(ThreadPoolTest, CancelScheduledTask) {
  ThreadPoolExecutor pool(1);
  std::atomic<bool> ran{false};
  TaskTimerId id = pool.schedule(milliseconds(100), Priority::kEvent,
                                 [&] { ran = true; });
  pool.cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, CleanShutdownWithPendingTimers) {
  std::atomic<int> count{0};
  {
    ThreadPoolExecutor pool(2);
    pool.schedule(seconds(30.0), Priority::kEvent, [&] { count++; });
    pool.post(Priority::kEvent, [&] { count++; });
    pool.drain();
  }  // destructor must not hang or fire the far timer
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DispatchOnIdlePoolRunsOnCallingThread) {
  ThreadPoolExecutor pool(1);
  std::thread::id ran_on;
  pool.dispatch(Priority::kVariable,
                [&] { ran_on = std::this_thread::get_id(); });
  // No drain(): an inline run has finished before dispatch() returns.
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.tasks_run(), 1u);
}

TEST(ThreadPoolTest, DispatchWhileBusyQueuesInPriorityOrder) {
  ThreadPoolExecutor pool(1);
  std::atomic<bool> block{true};
  std::atomic<bool> started{false};
  std::vector<Priority> order;
  std::mutex m;
  pool.post(Priority::kEvent, [&] {
    started = true;
    while (block.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> ran_inline{false};
  auto record = [&](Priority p) {
    return [&, p] {
      if (std::this_thread::get_id() == caller) ran_inline = true;
      std::lock_guard lock(m);
      order.push_back(p);
    };
  };
  pool.dispatch(Priority::kBackground, record(Priority::kBackground));
  pool.dispatch(Priority::kFileTransfer, record(Priority::kFileTransfer));
  pool.post(Priority::kVariable, record(Priority::kVariable));
  pool.dispatch(Priority::kEvent, record(Priority::kEvent));
  {
    std::lock_guard lock(m);
    EXPECT_TRUE(order.empty());  // all queued behind the running task
  }
  block = false;
  pool.drain();
  EXPECT_FALSE(ran_inline.load());
  EXPECT_EQ(order, (std::vector<Priority>{Priority::kEvent,
                                          Priority::kVariable,
                                          Priority::kFileTransfer,
                                          Priority::kBackground}));
}

TEST(ThreadPoolTest, OneWorkerStaysSerialUnderMixedDispatchPostSchedule) {
  ThreadPoolExecutor pool(1);
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::atomic<uint64_t> done{0};
  uint64_t unguarded = 0;  // serial tasks need no lock; TSan checks that
  auto task = [&] {
    const int now = running.fetch_add(1) + 1;
    int seen = max_running.load();
    while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
    }
    ++unguarded;
    std::this_thread::yield();  // widen the window an overlap would need
    running.fetch_sub(1);
    done.fetch_add(1);
  };
  std::atomic<uint64_t> submitted{0};
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      uint64_t i = 0;
      while (std::chrono::steady_clock::now() < until) {
        const auto p = static_cast<Priority>((i + t) % kPriorityCount);
        switch ((i + t) % 3) {
          case 0: pool.dispatch(p, task); break;
          case 1: pool.post(p, task); break;
          default: pool.schedule(microseconds(50), p, task); break;
        }
        submitted.fetch_add(1);
        if (++i % 64 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();
  // Scheduled tasks land within a few ms; wait for all of them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < submitted.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pool.drain();
  EXPECT_EQ(done.load(), submitted.load());
  EXPECT_EQ(pool.tasks_run(), submitted.load());
  EXPECT_EQ(unguarded, submitted.load());
  EXPECT_EQ(max_running.load(), 1);
}

TEST(ThreadPoolTest, DestroyWhileInlineDispatchRuns) {
  auto pool = std::make_unique<ThreadPoolExecutor>(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  std::thread caller([&] {
    pool->dispatch(Priority::kVariable, [&] {
      entered = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      finished = true;
    });
  });
  while (!entered.load()) std::this_thread::yield();
  pool.reset();  // must wait for the inline run, not free under it
  EXPECT_TRUE(finished.load());
  caller.join();
}

}  // namespace
}  // namespace marea::sched
