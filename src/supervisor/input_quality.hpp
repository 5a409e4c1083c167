// Generic input-quality building blocks (§5, countermeasure point I).
//
//  * SignalVote — "improving input quality by using many independent
//    inputs": combine k independent boolean signals by quorum.
//  * ActiveProber — "verifying inputs, for example through active
//    probing": before acting on a passive signal, issue probes and wait
//    for evidence; models the paper's noted trade-off by accounting the
//    added decision latency.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "supervisor/supervisor.hpp"

namespace intox::supervisor {

/// Quorum vote over independent signals.
class SignalVote {
 public:
  using Signal = std::function<bool()>;

  SignalVote(std::vector<Signal> signals, std::size_t quorum)
      : signals_(std::move(signals)), quorum_(quorum) {}

  /// True iff at least `quorum` signals agree the event is real.
  [[nodiscard]] bool confirm() const {
    std::size_t yes = 0;
    for (const auto& s : signals_) yes += s();
    return yes >= quorum_;
  }

 private:
  std::vector<Signal> signals_;
  std::size_t quorum_;
};

/// Active verification of a failure signal: sends `probes` probes spaced
/// `probe_interval` apart and declares the event confirmed only if at
/// least `required_failures` probes go unanswered. The probe transport
/// is abstracted as a callback that reports whether a probe got through
/// (in the benches this is wired to the simulated primary path).
class ActiveProber {
 public:
  struct Config {
    int probes = 3;
    sim::Duration probe_interval = sim::millis(100);
    int required_failures = 2;
  };

  using ProbeFn = std::function<bool()>;  // true = probe answered
  using Decision = std::function<void(bool confirmed, sim::Duration latency)>;

  ActiveProber(sim::Scheduler& sched, Config config, ProbeFn probe)
      : sched_(sched), config_(config), probe_(std::move(probe)) {}

  /// Starts a verification round; `decide` fires once with the outcome
  /// and the decision latency the verification added.
  void verify(Decision decide);

 private:
  sim::Scheduler& sched_;
  Config config_;
  ProbeFn probe_;
};

}  // namespace intox::supervisor
