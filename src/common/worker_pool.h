// WorkerPool: a persistent thread pool exposing one primitive, ParallelFor(n, fn) — run
// fn(0..n-1) across the pool's threads and block until all n indices completed. Built for the
// sharded fleet's window loop, which fans the same shard set out thousands of times: threads
// are spawned once and parked between calls, so a ParallelFor costs two condition-variable
// round trips instead of thread churn.
//
// Indices are pulled dynamically from an atomic counter, so uneven shards load-balance
// themselves. The pool makes no ordering promise between indices — callers own any
// determinism requirement (the fleet keeps shard state disjoint and merges results in a
// deterministic order afterwards).
//
// A pool with workers <= 1 runs ParallelFor inline on the calling thread, same iteration
// order 0..n-1, no threads spawned: serial mode is the identical code path minus concurrency.

#ifndef SRC_COMMON_WORKER_POOL_H_
#define SRC_COMMON_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stalloc {

class WorkerPool {
 public:
  // Spawns `workers - 1` threads (the calling thread participates in every ParallelFor).
  // workers <= 1 spawns nothing and runs everything inline.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs fn(i) for every i in [0, n) across the pool plus the calling thread; returns after
  // all n calls finished. fn must be safe to call concurrently for distinct i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  int workers() const { return workers_; }

 private:
  void ThreadMain();
  // Pulls indices of the current batch until it drains.
  void Drain(const std::function<void(size_t)>& fn, size_t n);

  const int workers_;
  std::vector<std::thread> threads_;

  // fn_, batch_size_, batch_id_, joined_ and shutdown_ are guarded by mu_. A thread reads the
  // batch only under mu_ and counts itself into joined_ there; the caller does not return (so
  // fn stays alive and next_index_ is not reset for the next batch) until joined_ is back to 0.
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals threads: a batch is ready (or shutting down)
  std::condition_variable done_cv_;   // signals the caller: every joined thread has left
  const std::function<void(size_t)>* fn_ = nullptr;  // null between batches
  size_t batch_size_ = 0;
  uint64_t batch_id_ = 0;             // bumped per ParallelFor so threads see a fresh batch
  std::atomic<size_t> next_index_{0};
  int joined_ = 0;                    // pool threads inside Drain for the current batch
  bool shutdown_ = false;
};

}  // namespace stalloc

#endif  // SRC_COMMON_WORKER_POOL_H_
