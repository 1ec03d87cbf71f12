#include "src/common/worker_pool.h"

#include <string>

#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

WorkerPool::WorkerPool(int workers) : workers_(workers < 1 ? 1 : workers) {
  threads_.reserve(static_cast<size_t>(workers_ - 1));
  for (int i = 1; i < workers_; ++i) {
    threads_.emplace_back([this, i] {
      if (telemetry::Enabled()) {
        // Name the track up front so exported traces label pool rows even if this thread's
        // first event fires deep inside a shard window.
        telemetry::Tracer::Global().SetThreadName("pool worker " + std::to_string(i));
      }
      ThreadMain();
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void WorkerPool::Drain(const std::function<void(size_t)>& fn, size_t n) {
  for (size_t i = next_index_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_index_.fetch_add(1, std::memory_order_relaxed)) {
    fn(i);
  }
}

void WorkerPool::ThreadMain() {
  uint64_t seen_batch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || batch_id_ != seen_batch; });
    if (shutdown_) {
      return;
    }
    seen_batch = batch_id_;
    if (fn_ == nullptr) {
      continue;  // woke after the batch had already finished: nothing left to join
    }
    const std::function<void(size_t)>& fn = *fn_;
    const size_t n = batch_size_;
    ++joined_;
    lock.unlock();
    Drain(fn, n);
    lock.lock();
    if (--joined_ == 0) {
      done_cv_.notify_all();
    }
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    batch_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    ++batch_id_;
  }
  work_cv_.notify_all();
  Drain(fn, n);  // the caller pulls indices too
  // Every index is claimed once the caller's Drain returns; the ones still running belong to
  // joined threads, which finish them before leaving.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return joined_ == 0; });
  fn_ = nullptr;
}

}  // namespace stalloc
