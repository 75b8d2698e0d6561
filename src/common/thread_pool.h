#ifndef FABRICPP_COMMON_THREAD_POOL_H_
#define FABRICPP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fabricpp {

/// A reusable fork-join worker pool for fanning out pure, independent work
/// items (per-transaction signature verification in the validator's verify
/// stage).
///
/// Design constraints, in order:
///  1. **Determinism.** ParallelFor runs `fn(i)` exactly once for every
///     i in [0, n) and returns only after all of them finished. Workers
///     race only for *which* index they pick next; as long as `fn` writes
///     its result to an index-addressed slot and touches no other shared
///     state, the joined results are byte-identical to a serial loop —
///     which is how the validator keeps simulation output independent of
///     the worker count.
///  2. **Reuse.** Threads are spawned once and parked between calls; a
///     ParallelFor on an already-warm pool costs two lock round-trips plus
///     wakeups, so it is cheap enough to call once per block.
///  3. **Caller participation.** The calling thread works alongside the
///     pool, so ThreadPool(0) degrades to a plain serial loop and a pool
///     with `extra_threads` threads gives `extra_threads + 1` way
///     parallelism.
///
/// ParallelFor is not reentrant and must not be called from two threads at
/// once. Its one user, the validator's verify stage, serializes blocks; the
/// simulation runtime shares one pool among its validators
/// (FabricNetwork::validator_pool()) because its event loop runs one block
/// at a time, and the thread runtime gives each validator its own.
class ThreadPool {
 public:
  /// Spawns `extra_threads` worker threads (0 is valid: everything then
  /// runs on the calling thread).
  explicit ThreadPool(uint32_t extra_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (not counting callers).
  uint32_t extra_threads() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// Total parallelism of a ParallelFor call: workers + the caller.
  uint32_t parallelism() const { return extra_threads() + 1; }

  /// Runs fn(0) .. fn(n-1), each exactly once, distributed over the worker
  /// threads and the calling thread; blocks until every call returned.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // Workers wait here for a generation.
  std::condition_variable done_cv_;   // The caller waits here for the join.
  uint64_t generation_ = 0;           // Bumped per ParallelFor (guarded).
  const std::function<void(size_t)>* fn_ = nullptr;  // Current task.
  size_t n_ = 0;                      // Items in the current task.
  std::atomic<size_t> next_{0};       // Next unclaimed index.
  size_t completed_ = 0;              // Items finished (guarded by mu_).
  size_t active_workers_ = 0;         // Workers inside the current task.
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace fabricpp

#endif  // FABRICPP_COMMON_THREAD_POOL_H_
