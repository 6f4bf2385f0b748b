#include "src/common/thread_pool.h"

#include <atomic>
#include <memory>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/timer.h"

namespace tsexplain {

namespace {

// Pool pressure metrics (docs/OBSERVABILITY.md): queue depth tracks
// tasks submitted but not yet started; task_ms is the run time of each
// dequeued task (ParallelFor helpers included).
struct PoolMetrics {
  Gauge& queue_depth =
      MetricRegistry::Global().GetGauge("pool.queue_depth");
  Histogram& task_ms =
      MetricRegistry::Global().GetHistogram("pool.task_ms");
  static PoolMetrics& Get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int AdaptiveThreadGrant(int requested, int active, int pool_size) {
  if (active < 1) active = 1;
  if (pool_size < 1) pool_size = 1;
  const int fair_share = pool_size / active > 1 ? pool_size / active : 1;
  const int ceiling = requested >= 1 ? requested : 1;
  return fair_share < ceiling ? fair_share : ceiling;
}

ThreadPool::ThreadPool(int num_threads) {
  TSE_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  // Workers drain every already-queued task before exiting, so a
  // ParallelFor whose helpers are still queued completes normally: its
  // caller participates in the drain and its completion cv is signaled
  // by whichever thread finishes the last index.
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    PoolMetrics::Get().queue_depth.Add(-1);
    Timer task_timer;
    task();
    PoolMetrics::Get().task_ms.Observe(task_timer.ElapsedMs());
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  {
    MutexLock lock(mu_);
    TSE_CHECK(!shutdown_) << "Submit after ThreadPool shutdown";
    queue_.emplace_back([task] { (*task)(); });
  }
  PoolMetrics::Get().queue_depth.Add(1);
  cv_.NotifyOne();
  return future;
}

void ThreadPool::ParallelFor(size_t n, int parallelism,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (parallelism <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared loop state outlives the call only until the last helper
  // observes the drained counter; helpers hold the shared_ptr so a helper
  // scheduled after this function returned still touches valid memory.
  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t total = 0;
    // Completion handshake only: the waited-on state (`done`) is atomic,
    // the mutex exists so the notify cannot slip between the caller's
    // predicate check and its sleep. lint:allow(unguarded-mutex)
    Mutex mu;
    CondVar cv;
  };
  auto state = std::make_shared<LoopState>();
  state->total = n;

  auto drain = [state, &fn]() {
    for (;;) {
      const size_t i = state->next.fetch_add(1);
      if (i >= state->total) return;
      fn(i);
      if (state->done.fetch_add(1) + 1 == state->total) {
        MutexLock lock(state->mu);
        state->cv.NotifyAll();
      }
    }
  };

  // Helpers run the same drain loop (the lambda copies `state` by
  // shared_ptr and holds `fn` by reference — safe: the caller blocks
  // below until every index completed, and a helper only dereferences fn
  // while indices remain. Late helpers see the counter drained and exit.)
  const int helpers =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(parallelism - 1),
                                        n - 1));
  for (int h = 0; h < helpers; ++h) Submit(drain);

  drain();
  MutexLock lock(state->mu);
  while (state->done.load() != state->total) state->cv.Wait(state->mu);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(ResolveThreadCount(0));
  return pool;
}

}  // namespace tsexplain
