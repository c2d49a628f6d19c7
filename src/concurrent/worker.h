// Worker — the background thread a concurrent class runs its off-the-
// read-path cycle on: a merge (ConcurrentWritableIndex), a table rebuild
// (ConcurrentPointIndex), a filter rebuild (RebuildableExistence) or a
// shard rebalance (ShardedIndex).
//
// Requests coalesce: however many Request() calls arrive before the
// thread picks one up, one cycle runs. A step that wants another cycle
// calls Request() itself before it returns (the rebalancer does when its
// per-cycle action cap leaves work), so Wait() keeps waiting until the
// step stops asking. Stop() drops a pending request and waits only for a
// running step.
//
// Lock order: a caller may hold its writer mutex (versioned.h) while it
// calls Request(); the step runs with no worker mutex held and must not
// call Run() or Wait() on its own worker.

#ifndef LI_CONCURRENT_WORKER_H_
#define LI_CONCURRENT_WORKER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/status.h"

namespace li::concurrent {

class Worker {
 public:
  using Step = std::function<Status()>;

  Worker() = default;
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker() { Stop(); }

  /// Starts the thread that runs `step` once per cycle. Call once, after
  /// everything the step touches is built. An owner declares the Worker
  /// after those members, or calls Stop() before freeing them.
  void Start(Step step) {
    step_ = std::move(step);
    thread_ = std::thread([this] { WorkerLoop(); });
  }

  /// Asks for a cycle; coalesces with a pending request. Never waits.
  void Request() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      requested_ = true;
    }
    cv_.notify_one();
  }

  /// Requests a cycle, blocks until a cycle that started after this call
  /// has finished and none is pending, and returns the last status.
  Status Run() {
    std::unique_lock<std::mutex> lk(mu_);
    requested_ = true;
    cv_.notify_one();
    const uint64_t start = cycles_;
    done_cv_.wait(
        lk, [&] { return cycles_ > start && !requested_ && !running_; });
    return last_status_;
  }

  /// Blocks until no cycle is requested or running (the quiesce point).
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return !requested_ && !running_; });
  }

  /// Joins the thread after any running step; idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Outcome of the most recent cycle (OK before the first).
  Status last_status() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_status_;
  }

 private:
  void WorkerLoop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return requested_ || shutdown_; });
      if (shutdown_) return;
      requested_ = false;
      running_ = true;
      lk.unlock();
      const Status st = step_();
      lk.lock();
      running_ = false;
      last_status_ = st;
      ++cycles_;
      done_cv_.notify_all();
    }
  }

  Step step_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the thread
  std::condition_variable done_cv_;  // wakes Run() and Wait()
  bool requested_ = false;
  bool running_ = false;
  bool shutdown_ = false;
  uint64_t cycles_ = 0;
  Status last_status_{};
  std::thread thread_;
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_WORKER_H_
