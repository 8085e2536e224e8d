// Fixed-size worker pool with a shared work queue, per-task exception
// capture, and bounded retry.
//
// This is the one place in the tree that owns threads. Tasks are claimed
// from an atomic counter in index order; a task writes its result into a
// caller-owned slot keyed by the task *index*, never by thread identity,
// which is what keeps every higher-level result independent of the job
// count. A throwing task does not take the process down: the final
// attempt's std::exception_ptr is captured and returned so the caller
// decides whether to rethrow, record, or retry the whole task elsewhere.
//
// Header-only leaf utility (std only): the grid runner (run_grid) and the
// population engine use it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qperc::runner {

/// One task whose final attempt threw. `error` is the captured exception,
/// `message` its what() (or a placeholder for non-std exceptions).
struct TaskFailure {
  std::size_t index = 0;
  unsigned attempts = 0;
  std::exception_ptr error;
  std::string message;
};

/// Renders an exception_ptr for reports and logs.
inline std::string describe_exception(const std::exception_ptr& error) {
  if (!error) return "no exception";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

struct ExecutorOptions {
  /// Worker threads; 0 = one per hardware thread. A single job runs the
  /// tasks inline on the calling thread.
  unsigned jobs = 0;
  /// Attempts per task before it is recorded as failed (>= 1).
  unsigned max_attempts = 1;
};

class Executor {
 public:
  explicit Executor(ExecutorOptions options = {}) : options_(options) {}

  [[nodiscard]] unsigned resolved_jobs(std::size_t task_count) const {
    unsigned jobs = options_.jobs != 0 ? options_.jobs
                                       : std::max(1u, std::thread::hardware_concurrency());
    if (task_count < jobs) jobs = static_cast<unsigned>(std::max<std::size_t>(1, task_count));
    return jobs;
  }

  /// Runs fn(i) for every i in [0, task_count). Returns the failures
  /// (tasks whose every attempt threw) sorted by task index; all other
  /// tasks are guaranteed to have completed. fn may be called from
  /// multiple threads concurrently but never twice concurrently for the
  /// same index. fn is used in place: no copy, no allocation.
  template <class Fn>
  std::vector<TaskFailure> run(std::size_t task_count, Fn&& fn) const {
    std::vector<TaskFailure> failures;
    if (task_count == 0) return failures;
    const unsigned jobs = resolved_jobs(task_count);
    const unsigned max_attempts = std::max(1u, options_.max_attempts);

    std::atomic<std::size_t> next{0};
    std::mutex failures_mutex;
    const auto worker = [&] {
      while (true) {
        const std::size_t index = next.fetch_add(1);
        if (index >= task_count) return;
        for (unsigned attempt = 1;; ++attempt) {
          try {
            fn(index);
            break;
          } catch (...) {
            if (attempt >= max_attempts) {
              TaskFailure failure;
              failure.index = index;
              failure.attempts = attempt;
              failure.error = std::current_exception();
              failure.message = describe_exception(failure.error);
              const std::lock_guard<std::mutex> lock(failures_mutex);
              failures.push_back(std::move(failure));
              break;
            }
          }
        }
      }
    };

    if (jobs == 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(jobs);
      for (unsigned w = 0; w < jobs; ++w) pool.emplace_back(worker);
      for (auto& thread : pool) thread.join();
    }
    std::sort(failures.begin(), failures.end(),
              [](const TaskFailure& a, const TaskFailure& b) { return a.index < b.index; });
    return failures;
  }

 private:
  ExecutorOptions options_;
};

}  // namespace qperc::runner
