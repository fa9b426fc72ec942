// Shared thread pool and the `ParallelFor` range primitive — the execution
// layer under the repair search's candidate waves and the ε_EB ranking
// loop.
//
// The design follows the morsel-driven shape of the DuckDB/Hyrise schedulers
// the related-work set documents, shrunk to what this codebase needs:
//
//   * one long-lived pool (`ThreadPool::Global()`), workers spawned lazily
//     and grown on demand, never per call;
//   * a parallel-for over an index range, statically partitioned into `width`
//     contiguous chunks; idle executors claim chunks through an atomic
//     cursor, so a stalled worker never strands work;
//   * the *chunk index* — not the OS thread — is the identity handed to the
//     callback. Per-chunk scratch state is indexed by it, which is what
//     makes the downstream merge deterministic no matter which physical
//     thread ran which chunk, or in what order;
//   * the caller participates as an executor, so a `width`-way call uses
//     exactly `width` executors (caller + `width - 1` pool workers) and a
//     pool with no spawned workers still completes every chunk.
//
// Determinism contract: ParallelFor guarantees each index in [0, n) is
// visited exactly once, by exactly one chunk, with chunk boundaries that are
// a pure function of (n, grain, width). It guarantees nothing about
// execution order — callers that need ordered results must write into
// chunk-indexed slots and merge after the call returns.
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

/// \brief Fixed-purpose thread pool executing range-partitioned jobs.
///
/// Thread-safety: all public methods are safe to call from any thread.
/// Concurrent ParallelFor calls are serialized (one job runs at a time);
/// a ParallelFor issued from *inside* a pool task runs inline on the
/// calling worker instead of deadlocking, so nested parallelism degrades
/// gracefully to sequential execution.
class ThreadPool {
 public:
  /// \brief Range task: `fn(chunk, begin, end)` processes tuples
  /// [begin, end). `chunk` is the dense chunk index in [0, width) used to
  /// select per-chunk scratch/output slots.
  using RangeFn = std::function<void(int chunk, size_t begin, size_t end)>;

  /// \param prespawn number of worker threads to start immediately; the
  ///        pool grows past this lazily as wider jobs arrive.
  explicit ThreadPool(int prespawn = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Runs `fn` over [0, n) split into at most `threads` chunks.
  ///
  /// The partition width is `min(ResolveThreads(threads), ceil(n / grain))`:
  /// `grain` is the minimum chunk size, so small inputs are never
  /// oversubscribed. Width <= 1 (or a nested call) executes `fn(0, 0, n)`
  /// inline on the caller — the exact sequential code path, no pool
  /// machinery involved.
  ///
  /// Blocks until every chunk completed. If any chunk throws, the first
  /// exception (in completion order) is rethrown on the caller after all
  /// chunks finished.
  void ParallelFor(size_t n, size_t grain, int threads, const RangeFn& fn);

  /// Number of worker threads currently spawned (excludes callers).
  int worker_count() const;

  /// The process-wide pool shared by the query/fd/clustering layers.
  static ThreadPool& Global();

 private:
  /// One in-flight ParallelFor. Chunks are claimed via `next_chunk`;
  /// `finished` / `error` are guarded by the pool mutex.
  struct Job {
    const RangeFn* fn = nullptr;
    size_t n = 0;
    size_t chunk_size = 0;
    int width = 0;
    std::atomic<int> next_chunk{0};
    int finished = 0;
    std::exception_ptr error;
  };

  void WorkerLoop();
  /// Claims and runs chunks of `job` until none remain, then reports
  /// completion (and the first error) under the pool mutex.
  void RunChunks(const std::shared_ptr<Job>& job);
  /// Grows the pool to at least `target` workers.
  void EnsureWorkers(int target);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a new job was posted
  std::condition_variable done_cv_;  ///< submitter: all chunks finished
  std::mutex submit_mu_;             ///< serializes whole ParallelFor calls
  std::shared_ptr<Job> job_;         ///< currently posted job (or null)
  uint64_t job_gen_ = 0;             ///< bumped per posted job
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fdevolve::util
