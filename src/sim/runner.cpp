#include "sim/runner.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "validate/invariant.hpp"

namespace intox::sim {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void ParallelRunner::dispatch(std::size_t n_trials,
                              const std::function<void(std::size_t)>& body) {
  // Shard wall-clock timing is perf telemetry (stderr / run report
  // only); trial *results* depend solely on Rng::fork(i).
  // intox-analyze: allow(determinism, perf telemetry, not results)
  const auto start = std::chrono::steady_clock::now();
  INTOX_INVARIANT(threads_ >= 1, "runner resolved to zero workers");
  const std::size_t workers =
      n_trials > 0 ? std::min(threads_, n_trials) : std::size_t{1};
  std::vector<double> shard_seconds(workers, 0.0);

  if (workers <= 1) {
    for (std::size_t i = 0; i < n_trials; ++i) body(i);
  } else {
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&](std::size_t shard) {
      // intox-analyze: allow(determinism, per-shard perf telemetry)
      const auto shard_start = std::chrono::steady_clock::now();
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n_trials) break;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          // Drain the remaining trials so peers exit promptly.
          cursor.store(n_trials, std::memory_order_relaxed);
          break;
        }
      }
      shard_seconds[shard] = std::chrono::duration<double>(
          // intox-analyze: allow(determinism, per-shard perf telemetry)
          std::chrono::steady_clock::now() - shard_start).count();
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  const auto elapsed = std::chrono::duration<double>(
      // intox-analyze: allow(determinism, dispatch perf telemetry)
      std::chrono::steady_clock::now() - start);
  if (workers <= 1) shard_seconds.assign(1, elapsed.count());
  report_.trials = n_trials;
  report_.threads = workers;
  report_.wall_seconds = elapsed.count();
  report_.shard_seconds = std::move(shard_seconds);

  // Registry accounting is aggregate-only (nothing per-trial), so the
  // totals fold deterministically across thread counts. Shard imbalance
  // describes this process's scheduling, not the simulated system, so
  // it lives only in report_.
  static obs::Counter& trials_counter =
      obs::Registry::global().counter("sim.runner.trials");
  static obs::Counter& dispatch_counter =
      obs::Registry::global().counter("sim.runner.dispatches");
  trials_counter.add(n_trials);
  dispatch_counter.add(1);
}

}  // namespace intox::sim
