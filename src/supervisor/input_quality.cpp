#include "supervisor/input_quality.hpp"

#include <memory>

namespace intox::supervisor {

void ActiveProber::verify(Decision decide) {
  // Per-round state kept alive by the chained events.
  struct Round {
    int sent = 0;
    int failures = 0;
  };
  auto round = std::make_shared<Round>();
  const sim::Time started = sched_.now();

  auto step = std::make_shared<std::function<void()>>();
  *step = [this, round, started, decide = std::move(decide), step]() mutable {
    if (!probe_()) ++round->failures;
    ++round->sent;
    if (round->sent >= config_.probes) {
      decide(round->failures >= config_.required_failures,
             sched_.now() - started);
      *step = nullptr;  // break the self-reference cycle
      return;
    }
    sched_.schedule_after(config_.probe_interval, *step);
  };
  sched_.schedule_after(config_.probe_interval, *step);
}

}  // namespace intox::supervisor
