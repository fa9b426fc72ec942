#include "util/thread_pool.h"

#include <algorithm>

namespace fdevolve::util {
namespace {

/// True while the current thread is executing a pool item; a ParallelFor
/// issued from such a context runs inline instead of re-entering the pool.
thread_local bool t_in_pool_task = false;

}  // namespace

int ResolveThreads(int threads) {
  if (threads > 0) return threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int prespawn) {
  if (prespawn > 0) EnsureWorkers(prespawn);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::EnsureWorkers(int target) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < target) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  t_in_pool_task = true;  // items run by this thread are pool tasks
  uint64_t seen_gen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (stop_) return;
    if (job_ != nullptr && job_gen_ != seen_gen) {
      seen_gen = job_gen_;
      std::shared_ptr<Job> job = job_;
      lock.unlock();
      const int slot = job->next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot < job->width) RunItems(*job, slot);
      lock.lock();
      continue;
    }
    work_cv_.wait(lock);
  }
}

void ThreadPool::RunItems(Job& job, int slot) {
  size_t ran = 0;
  std::exception_ptr first_error;
  while (true) {
    const size_t i = job.next_item.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      (*job.fn)(slot, i);
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
    ++ran;
  }
  if (ran == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (first_error != nullptr && job.error == nullptr) {
    job.error = first_error;
  }
  job.finished += ran;
  if (job.finished == job.n) done_cv_.notify_all();
}

void ThreadPool::ParallelFor(size_t n, int threads, const ItemFn& fn) {
  if (n == 0) return;
  const int width = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(ResolveThreads(threads)), n));
  if (width <= 1 || t_in_pool_task) {
    // The sequential path keeps the parallel one's error contract: every
    // item runs, then the first exception is rethrown.
    std::exception_ptr error;
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(0, i);
      } catch (...) {
        if (error == nullptr) error = std::current_exception();
      }
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }

  // One job at a time: a second submitter blocks here until the first
  // drains, keeping the worker protocol single-job simple.
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  EnsureWorkers(width - 1);

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->width = width;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++job_gen_;
  }
  work_cv_.notify_all();

  // The caller is an executor too, so the items complete even while the
  // workers are still waking up.
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  RunItems(*job, 0);
  t_in_pool_task = was_in_task;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return job->finished == job->n; });
    job_ = nullptr;
    error = job->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace fdevolve::util
