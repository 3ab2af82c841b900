// Deterministic fork-join worker pool.
//
// Built for one job shape: a tick produces N independent, pure units of
// work, and the caller needs all N results in input order before
// proceeding. Its users are the World's neighbourhood-watch scan (one
// chunk of due watchers per task), sim::Grid (one shard's step per task)
// and sim::run_campaign (one cell per task). Threads race to *claim* indices
// but every result lands in its own pre-allocated slot, so the merged
// output is a pure function of the inputs — bit-for-bit identical for any
// thread count, and a pool of size <= 1 never spawns a thread at all (the
// caller's thread runs the loop inline, byte-identical to not having a pool).
//
// Not a general task graph: for_each is a barrier, nested submission from
// inside a task deadlocks by design simplicity, and tasks must not throw.
//
// Oversubscription policy (one level of parallelism at a time): when an
// outer pool fans work units that each own an inner pool — sim::Grid
// stepping one World per shard task, each World owning a step_threads pool —
// the inner pools must be sized with nested_thread_budget() so only ONE
// level actually spawns threads. A grid at 8 shard threads x 4 step threads
// must run 8 workers, not 32: the inner pools collapse to inline execution
// (thread_count() == 0), which is byte-identical by the pool contract and
// avoids both oversubscription and the nested-submission deadlock above.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nwade::util {

/// The oversubscription policy (see the header comment): the thread budget
/// for an inner pool whose work units are fanned out by an outer pool of
/// `outer_threads`. Once the outer level actually parallelizes
/// (outer_threads > 1), every inner pool runs inline; a serial outer level
/// passes the requested inner budget through unchanged.
constexpr int nested_thread_budget(int outer_threads, int inner_threads) {
  return outer_threads > 1 ? 1 : inner_threads;
}

class WorkerPool {
 public:
  /// `threads` <= 1 means inline execution (no threads are created).
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Worker threads owned by the pool (0 in inline mode).
  int thread_count() const { return static_cast<int>(threads_.size()); }

  /// Runs task(0..count-1), blocking until every index has finished. The
  /// calling thread participates in the work. Indices may run in any order
  /// on any thread; `task` must therefore only touch per-index state.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Fixed-order merge: out[i] = fn(i). `R` must not be `bool`
  /// (std::vector<bool> packs bits — concurrent writes to neighbouring
  /// slots would race); use std::uint8_t for flags.
  template <typename R, typename F>
  std::vector<R> map(std::size_t count, F&& fn) {
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> slots are not independently writable");
    std::vector<R> out(count);
    for_each(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Chunked range execution: calls fn(begin, end) for each half-open chunk
  /// [k*chunk_size, min((k+1)*chunk_size, count)). Chunk boundaries depend
  /// only on (count, chunk_size) — never on the thread count — so any
  /// per-chunk partial results a caller accumulates and merges in chunk
  /// order are bit-identical for any pool size. Like for_each this is a
  /// barrier; `fn` must only touch per-chunk state. Allocation-free on both
  /// paths: the inline one (pool of size <= 1) runs the chunks on the
  /// calling thread without materializing a std::function, and the threaded
  /// one hands for_each a lambda holding one pointer, which std::function
  /// stores inline.
  template <typename F>
  void parallel_for(std::size_t count, std::size_t chunk_size, F&& fn) {
    if (count == 0) return;
    if (chunk_size == 0) chunk_size = 1;
    const std::size_t chunks = (count + chunk_size - 1) / chunk_size;
    const auto run_chunk = [&](std::size_t k) {
      const std::size_t begin = k * chunk_size;
      const std::size_t end = begin + chunk_size < count ? begin + chunk_size : count;
      fn(begin, end);
    };
    if (threads_.empty() || chunks == 1) {
      for (std::size_t k = 0; k < chunks; ++k) run_chunk(k);
      return;
    }
    for_each(chunks, [chunk = &run_chunk](std::size_t k) { (*chunk)(k); });
  }

 private:
  void worker_loop();
  void run_inline(std::size_t count, const std::function<void(std::size_t)>& task);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  const std::function<void(std::size_t)>* task_{nullptr};  ///< current job
  std::size_t count_{0};
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::size_t completed_{0};
  std::uint64_t generation_{0};  ///< bumps per job so workers never re-run one
  bool stopping_{false};
};

}  // namespace nwade::util
