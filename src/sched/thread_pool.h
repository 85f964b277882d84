// Real-thread implementation of the paper's scheduler: "a simple thread
// pool with fixed priorities for each named primitive and relaying in
// standard system threads" (§6). Strict priority dispatch: a worker always
// takes from the highest non-empty queue; FIFO within a queue. A dedicated
// timer thread feeds delayed tasks back into the queues.
//
// dispatch() on an idle pool runs the task on the caller's thread. Such an
// inline run counts as an active task, and a worker only starts a task
// while fewer than `workers` are active, so a 1-worker pool stays strictly
// serial whichever thread runs each task.
//
// Used by the live-UDP demo and the thread-pool unit tests; the simulated
// stack uses SimExecutor instead for determinism.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/executor.h"

namespace marea::sched {

class ThreadPoolExecutor final : public Executor {
 public:
  explicit ThreadPoolExecutor(size_t workers = 2,
                              const Clock* clock = nullptr);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void post(Priority priority, Task task, Duration cost = kDurationZero) override;
  void dispatch(Priority priority, Task task,
                Duration cost = kDurationZero) override;
  TaskTimerId schedule(Duration delay, Priority priority, Task task,
                       Duration cost = kDurationZero) override;
  void cancel(TaskTimerId id) override;

  const Clock& clock() const override { return *clock_; }

  // Blocks until all queues are empty and all workers idle (tests).
  void drain();

  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();
  void timer_loop();
  // Queues `task`; returns true when a worker slot is free to take it.
  // Caller holds mutex_.
  bool enqueue_locked(Priority priority, Task task);
  // Waits (holding `lock` on mutex_) until nothing is queued or running.
  void wait_idle_locked(std::unique_lock<std::mutex>& lock);

  SteadyClock default_clock_;
  const Clock* clock_;
  const size_t worker_count_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::array<std::deque<Task>, kPriorityCount> queues_;
  size_t queued_ = 0;
  size_t active_ = 0;         // running tasks: workers' and inline ones
  size_t idle_waiters_ = 0;   // threads blocked in wait_idle_locked
  bool stopping_ = false;

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  struct Timed {
    Priority priority;
    Task task;
  };
  // Ordered by (due, id): equal due times fire in schedule order.
  std::map<std::pair<int64_t, TaskTimerId>, Timed> timers_;
  std::unordered_map<TaskTimerId, int64_t> timer_due_;  // id -> due, for cancel
  TaskTimerId next_timer_id_ = 1;

  std::atomic<uint64_t> tasks_run_{0};
  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

}  // namespace marea::sched
