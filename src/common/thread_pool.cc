#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/obs/profile.h"
#include "common/query_context.h"

namespace sdms {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(num_threads, 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::InPool() const {
  std::thread::id self = std::this_thread::get_id();
  for (const std::thread& w : workers_) {
    if (w.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  size_t shards = std::min(workers_.size(), n);
  if (shards <= 1 || InPool()) {
    body(0, n);
    return;
  }
  // Workers inherit the caller's QueryContext so fanned-out shards
  // observe the same deadline/cancellation as the issuing thread. The
  // caller's exact profile binding (including its *current stage*) is
  // re-installed on top of the Scope's root-stage default so worker
  // charges land at the fan-out point of the owning query's tree; the
  // issuing thread blocks in f.get() below, so its stage cannot move
  // while workers run.
  QueryContext* ctx = QueryContext::Current();
  obs::ProfileBinding binding = obs::CurrentProfileBinding();
  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  size_t chunk = (n + shards - 1) / shards;
  for (size_t begin = 0; begin < n; begin += chunk) {
    size_t end = std::min(begin + chunk, n);
    futures.push_back(Submit([&body, ctx, binding, begin, end] {
      QueryContext::Scope scope(ctx);
      obs::ProfileBinding prev = obs::ExchangeProfileBinding(binding);
      body(begin, end);
      obs::ExchangeProfileBinding(prev);
    }));
  }
  for (auto& f : futures) f.get();  // rethrows task exceptions
}

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("SDMS_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env) return std::clamp<long>(v, 1, 64);
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool* DefaultThreadPool() {
  static ThreadPool* pool = [] {
    size_t n = DefaultThreadCount();
    return n <= 1 ? nullptr : new ThreadPool(n);
  }();
  return pool;
}

}  // namespace sdms
