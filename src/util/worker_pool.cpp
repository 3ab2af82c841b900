#include "util/worker_pool.h"

namespace nwade::util {

WorkerPool::WorkerPool(int threads) {
  if (threads <= 1) return;  // inline mode
  threads_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_inline(std::size_t count,
                            const std::function<void(std::size_t)>& task) {
  for (std::size_t i = 0; i < count; ++i) task(i);
}

void WorkerPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (threads_.empty()) {
    run_inline(count, task);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    count_ = count;
    completed_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_ready_.notify_all();

  // The calling thread works too: claims an index, runs it, repeats.
  std::size_t done_here = 0;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    task(i);
    ++done_here;
  }

  std::unique_lock<std::mutex> lock(mu_);
  completed_ += done_here;
  job_done_.wait(lock, [this] { return completed_ == count_; });
  task_ = nullptr;
}

void WorkerPool::worker_loop() {
  std::uint64_t last_job = 0;
  for (;;) {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    std::size_t i = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this, last_job] {
        return stopping_ || (task_ != nullptr && generation_ != last_job);
      });
      if (stopping_) return;
      last_job = generation_;
      // Claim the first index under the lock: it then belongs to the job
      // just read, and holding it unreported keeps for_each from returning
      // (and next_ from being reset for another job) until this claim loop
      // ends, so the later fetch_adds land in this job too.
      i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) continue;  // every index already claimed
      task = task_;
      count = count_;
    }

    std::size_t done_here = 0;
    do {
      (*task)(i);
      ++done_here;
      i = next_.fetch_add(1, std::memory_order_relaxed);
    } while (i < count);

    std::lock_guard<std::mutex> lock(mu_);
    completed_ += done_here;
    if (completed_ == count_) job_done_.notify_all();
  }
}

}  // namespace nwade::util
