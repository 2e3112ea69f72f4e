// Static thread pool with a blocking run-to-completion bulk API.
//
// The pool follows the OpenMP "parallel for" execution model rather than a
// futures model: callers submit one bulk task (a range plus a chunk size),
// worker threads grab chunks from an atomic cursor (dynamic scheduling), and
// the submitting thread participates in the work, so a pool is useful even
// with zero workers (it degrades to serial execution — important on
// single-core CI machines, where tests still exercise the same code path).
//
// Exceptions thrown by the body are captured; the first one is rethrown on
// the submitting thread after all chunks finish, matching the Core
// Guidelines' "don't let exceptions escape a thread" rule.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bbng {

class ThreadPool {
 public:
  /// `threads` = total execution width including the caller; 0 means
  /// hardware_concurrency(). A pool of width 1 spawns no worker threads.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned width() const noexcept { return width_; }

  /// Run body(begin, end) over [0, count) split into chunks of `grain`.
  /// Blocks until every chunk completed. Rethrows the first body exception.
  /// May be called from several threads at once and from inside a body:
  /// idle workers join the most recently submitted bulk, and every submitter
  /// drives its own bulk to completion, with or without them.
  void run_chunked(std::uint64_t count, std::uint64_t grain,
                   const std::function<void(std::uint64_t, std::uint64_t)>& body);

  /// Process-wide shared pool (lazily constructed, width = hw concurrency).
  static ThreadPool& shared();

 private:
  struct Bulk {
    std::atomic<std::uint64_t> cursor{0};
    std::uint64_t count = 0;
    std::uint64_t grain = 1;
    const std::function<void(std::uint64_t, std::uint64_t)>* body = nullptr;
    std::atomic<std::uint64_t> done_chunks{0};
    std::uint64_t total_chunks = 0;
    std::atomic<unsigned> drivers{0};  // workers currently inside drive()
    std::mutex error_mutex;
    std::exception_ptr first_error;
  };

  void worker_loop();
  static void drive(Bulk& bulk);

  unsigned width_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  Bulk* active_ = nullptr;   // guarded by mutex_
  std::uint64_t epoch_ = 0;  // guarded by mutex_
  bool stopping_ = false;    // guarded by mutex_
};

}  // namespace bbng
