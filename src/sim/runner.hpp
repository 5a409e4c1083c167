// Parallel Monte-Carlo trial runner with deterministic sharding.
//
// Every sweep in this reproduction is "run N independent seeded trials,
// aggregate the results". ParallelRunner shards those trials across a
// worker pool while keeping the output *bit-identical for any thread
// count*: each trial derives its own Rng via `Rng::fork(trial_index)`
// (never a shared stream), per-trial results land in a slot indexed by
// trial, and aggregation folds the slots serially in trial order. Thread
// count therefore changes wall-clock time and nothing else.
//
// The worker count comes only from the constructor (`intox run
// --threads N`); 0 means hardware concurrency.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace intox::sim {

/// Resolves a requested worker count: `requested` if > 0, else
/// std::thread::hardware_concurrency() (min 1).
std::size_t resolve_threads(std::size_t requested);

/// Timing of the most recent `run`/`map` call: one entry per worker in
/// `shard_seconds`, from which `shard_imbalance` derives the max/mean
/// load ratio the observability layer reports.
using RunReport = obs::SweepPerf;

class ParallelRunner {
 public:
  /// threads == 0 means hardware concurrency.
  explicit ParallelRunner(std::size_t threads = 0)
      : threads_(resolve_threads(threads)) {}

  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] const RunReport& last_report() const { return report_; }

  /// Runs fn(trial_index) for each trial, returning the results in trial
  /// order. The result type must be default-constructible and
  /// move-assignable. Trials are claimed dynamically (an atomic cursor),
  /// so uneven trial costs balance across workers; determinism is
  /// unaffected because results are keyed by index, not completion order.
  template <typename Fn>
  auto map(std::size_t n_trials, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<R> out(n_trials);
    dispatch(n_trials, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Seeded variant: fn(trial_index, rng) where rng = base.fork(index).
  /// This is the canonical Monte-Carlo entry point — the base Rng is
  /// never advanced, so the trial streams do not depend on scheduling.
  template <typename Fn>
  auto run(const Rng& base, std::size_t n_trials, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
    return map(n_trials, [&](std::size_t i) {
      Rng rng = base.fork(i);
      return fn(i, rng);
    });
  }

  /// Convenience reduction: fn(trial_index, rng) -> double, folded into a
  /// RunningStats in trial order.
  template <typename Fn>
  RunningStats run_stats(const Rng& base, std::size_t n_trials, Fn&& fn) {
    RunningStats agg;
    for (double x : run(base, n_trials, std::forward<Fn>(fn))) agg.add(x);
    return agg;
  }

 private:
  /// Executes body(0..n-1) across the pool; records report_. Rethrows the
  /// first trial exception after all workers have joined.
  void dispatch(std::size_t n_trials,
                const std::function<void(std::size_t)>& body);

  std::size_t threads_;
  RunReport report_;
};

}  // namespace intox::sim
