#include "sched/thread_pool.h"

#include <cassert>

namespace marea::sched {

ThreadPoolExecutor::ThreadPoolExecutor(size_t workers, const Clock* clock)
    : clock_(clock ? clock : &default_clock_), worker_count_(workers) {
  assert(workers > 0);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    // Queued tasks still run, and an inline dispatch() in progress on
    // another thread finishes before anything here is torn down.
    std::unique_lock lock(mutex_);
    stopping_ = true;
    wait_idle_locked(lock);
  }
  {
    std::lock_guard lock(timer_mutex_);
  }
  work_cv_.notify_all();
  timer_cv_.notify_all();
  for (auto& w : workers_) w.join();
  timer_thread_.join();
}

bool ThreadPoolExecutor::enqueue_locked(Priority priority, Task task) {
  queues_[static_cast<size_t>(priority)].push_back(std::move(task));
  ++queued_;
  return active_ < worker_count_;
}

void ThreadPoolExecutor::post(Priority priority, Task task, Duration cost) {
  (void)cost;  // real handlers cost their own runtime
  assert(task);
  bool wake = false;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    wake = enqueue_locked(priority, std::move(task));
  }
  if (wake) work_cv_.notify_one();
}

void ThreadPoolExecutor::dispatch(Priority priority, Task task,
                                  Duration cost) {
  (void)cost;
  assert(task);
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    if (queued_ > 0 || active_ > 0) {
      // Busy: behave like post(). Notified under the lock, because the
      // caller is not a thread the destructor joins.
      if (enqueue_locked(priority, std::move(task))) work_cv_.notify_one();
      return;
    }
    ++active_;
  }
  task();
  task.reset();  // the task's captures die inside its serial slot
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  // Everything below happens under the lock: once active_ drops, the
  // destructor may proceed and free this object.
  std::lock_guard lock(mutex_);
  --active_;
  if (queued_ > 0) {
    work_cv_.notify_one();  // a backlog formed while we ran
  } else if (active_ == 0 && idle_waiters_ > 0) {
    idle_cv_.notify_all();
  }
}

TaskTimerId ThreadPoolExecutor::schedule(Duration delay, Priority priority,
                                         Task task, Duration cost) {
  (void)cost;
  int64_t due = clock_->now().ns + delay.ns;
  TaskTimerId id;
  {
    std::lock_guard lock(timer_mutex_);
    id = next_timer_id_++;
    timers_.emplace(std::make_pair(due, id), Timed{priority, std::move(task)});
    timer_due_.emplace(id, due);
  }
  timer_cv_.notify_one();
  return id;
}

void ThreadPoolExecutor::cancel(TaskTimerId id) {
  std::lock_guard lock(timer_mutex_);
  auto it = timer_due_.find(id);
  if (it == timer_due_.end()) return;
  timers_.erase(std::make_pair(it->second, id));
  timer_due_.erase(it);
}

void ThreadPoolExecutor::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    // An inline dispatch() holds a slot too: with one worker, a queued
    // task waits for it to finish.
    work_cv_.wait(lock, [this] {
      return (queued_ > 0 && active_ < worker_count_) ||
             (stopping_ && queued_ == 0);
    });
    if (queued_ == 0) return;  // stopping, nothing left to run
    Task task;
    for (auto& queue : queues_) {  // strict priority order
      if (!queue.empty()) {
        task = std::move(queue.front());
        queue.pop_front();
        --queued_;
        break;
      }
    }
    ++active_;
    lock.unlock();
    task();
    task.reset();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    --active_;
    if (queued_ == 0 && active_ == 0 && idle_waiters_ > 0) {
      idle_cv_.notify_all();
    }
  }
}

void ThreadPoolExecutor::timer_loop() {
  std::unique_lock lock(timer_mutex_);
  while (true) {
    {
      std::lock_guard work_lock(mutex_);
      if (stopping_) return;
    }
    if (timers_.empty()) {
      timer_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    int64_t due = timers_.begin()->first.first;
    int64_t now = clock_->now().ns;
    if (now < due) {
      timer_cv_.wait_for(lock, std::chrono::nanoseconds(
                                   std::min<int64_t>(due - now, 50000000)));
      continue;
    }
    auto node = timers_.extract(timers_.begin());
    timer_due_.erase(node.key().second);
    Timed timed = std::move(node.mapped());
    lock.unlock();
    // No lock held: a timer task may run right here when the pool is idle.
    dispatch(timed.priority, std::move(timed.task), kDurationZero);
    lock.lock();
  }
}

void ThreadPoolExecutor::wait_idle_locked(std::unique_lock<std::mutex>& lock) {
  ++idle_waiters_;
  idle_cv_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
  --idle_waiters_;
}

void ThreadPoolExecutor::drain() {
  std::unique_lock lock(mutex_);
  wait_idle_locked(lock);
}

}  // namespace marea::sched
