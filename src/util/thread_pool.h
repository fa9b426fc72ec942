// Shared thread pool and the `ParallelFor` item primitive — the execution
// layer under the repair search's root and candidate fan-outs and the ε_EB
// ranking loop.
//
// The design follows morsel-driven scheduling (Leis et al., SIGMOD 2014),
// shrunk to what this codebase needs:
//
//   * one long-lived pool (`ThreadPool::Global()`), workers spawned lazily
//     and grown on demand, never per call;
//   * a parallel-for over the items [0, n): each executor claims the next
//     unclaimed item from one atomic cursor until none is left, so an
//     executor that finishes a cheap item takes another instead of waiting
//     behind a neighbour's slow one;
//   * the *executor slot* — not the OS thread — is the identity handed to
//     the callback. Each executor of a call holds one slot in
//     [0, min(threads, n)) for the whole call, and per-executor scratch is
//     indexed by it, so no two executors ever share one;
//   * the caller participates as an executor (slot 0), so a pool with no
//     spawned workers still completes every item.
//
// Determinism contract: ParallelFor runs each item in [0, n) exactly once.
// It guarantees nothing about which slot runs an item, or in what order.
// Callers write each item's result to a slot of their own, indexed by the
// item, and keep nothing in slot scratch that reaches a result, so every
// output is a pure function of the item, whatever ran it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fdevolve::util {

/// \brief Resolves a user-facing `threads` knob to an execution width.
/// \param threads 0 = auto (`hardware_concurrency`), otherwise the value
///        itself; negative values are treated as auto.
/// \return at least 1.
int ResolveThreads(int threads);

/// \brief Fixed-purpose thread pool executing item-claiming jobs.
///
/// Thread-safety: all public methods are safe to call from any thread.
/// Concurrent ParallelFor calls are serialized (one job runs at a time);
/// a ParallelFor issued from *inside* a pool task runs inline on the
/// calling worker instead of deadlocking, so nested parallelism degrades
/// gracefully to sequential execution.
class ThreadPool {
 public:
  /// \brief Item task: `fn(slot, i)` processes item i. `slot` is the
  /// executor's slot in [0, min(threads, n)), held for the whole call; it
  /// selects per-executor scratch.
  using ItemFn = std::function<void(int slot, size_t i)>;

  /// \param prespawn number of worker threads to start immediately; the
  ///        pool grows past this lazily as wider jobs arrive.
  explicit ThreadPool(int prespawn = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Runs `fn` once for every item of [0, n) on up to `threads`
  /// executors.
  ///
  /// The width is `min(ResolveThreads(threads), n)`. Width 1 (or a nested
  /// call) runs every item in order inline on the caller, as slot 0 — the
  /// exact sequential code path, no pool machinery involved. Otherwise the
  /// caller takes slot 0 and up to `width - 1` pool workers take the
  /// others; a pool that an earlier, wider job grew still lets only
  /// `width` executors in. Each claims the next unclaimed item until none
  /// is left.
  ///
  /// Blocks until every item has completed; completion is counted in
  /// items, so the caller never waits for a worker that wakes after the
  /// last one was claimed. If any item throws, the other items still run,
  /// and the first exception (in completion order) is rethrown on the
  /// caller after all of them.
  void ParallelFor(size_t n, int threads, const ItemFn& fn);

  /// Number of worker threads currently spawned (excludes callers).
  int worker_count() const;

  /// The process-wide pool shared by the query/fd/clustering layers.
  static ThreadPool& Global();

 private:
  /// One in-flight ParallelFor. Executors take a slot from `next_slot`
  /// and items from `next_item`; `finished` / `error` are guarded by the
  /// pool mutex.
  struct Job {
    const ItemFn* fn = nullptr;
    size_t n = 0;
    int width = 0;
    std::atomic<int> next_slot{1};  ///< slot 0 is the caller's
    std::atomic<size_t> next_item{0};
    size_t finished = 0;  ///< items completed
    std::exception_ptr error;
  };

  void WorkerLoop();
  /// Claims and runs items of `job` as `slot` until none remain, then
  /// reports how many it ran (and its first error) under the pool mutex.
  void RunItems(Job& job, int slot);
  /// Grows the pool to at least `target` workers.
  void EnsureWorkers(int target);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a new job was posted
  std::condition_variable done_cv_;  ///< submitter: all items finished
  std::mutex submit_mu_;             ///< serializes whole ParallelFor calls
  std::shared_ptr<Job> job_;         ///< currently posted job (or null)
  uint64_t job_gen_ = 0;             ///< bumped per posted job
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fdevolve::util
