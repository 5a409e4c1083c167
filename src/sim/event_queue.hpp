// Discrete-event scheduler.
//
// A single-threaded event queue with a simulated clock, built on a
// hierarchical timing wheel with slab-allocated events (sim/timing_wheel).
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps runs fully deterministic; runs of same-timestamp events
// drain straight out of one wheel bucket with no per-event re-ordering
// work. A caller that schedules a chain of events lazily can reserve
// their places in that order up front (reserve / schedule_reserved).
// Cancellation unlinks and reclaims in O(1) — there are no tombstones —
// and a stale cancel (the event already fired, or its slab slot was
// reused) is refused via the handle's generation tag.
//
// A differential oracle (validate::SchedulerOracle, a sorted-vector
// reference queue) can be attached with enable_oracle() to cross-check
// every schedule/cancel/fire against the obviously-correct
// implementation while the sim runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"

namespace intox::validate {
class SchedulerOracle;
}  // namespace intox::validate

namespace intox::sim {

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler();
  /// Publishes lifetime totals (events processed, wheel moves,
  /// queue-depth high-water mark) into the obs metrics registry —
  /// retirement-time accounting, so the drain loop itself carries no
  /// per-event registry cost.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Opaque handle for cancellation. Default-constructed ids are invalid.
  /// Encodes (slab slot, generation); the value is NOT sequential.
  struct EventId {
    std::uint64_t value = 0;
    [[nodiscard]] bool valid() const { return value != 0; }
  };

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (clamped to now if in the past).
  EventId schedule_at(Time t, Callback cb) {
    return schedule(t, std::nullopt, std::move(cb));
  }

  /// Schedules `cb` after `d` nanoseconds (clamped to >= 0). A delay
  /// that would carry now() + d past kTimeMax violates an invariant
  /// instead of wrapping into the past.
  EventId schedule_after(Duration d, Callback cb);

  /// Reserves `n` consecutive tickets in the same-instant FIFO order and
  /// returns the first. An event later scheduled with ticket `first + i`
  /// fires as if it had been the i-th of n events scheduled now: after
  /// every same-instant event scheduled before this call, and before
  /// every one scheduled after it. A source that keeps one event pending
  /// (FlowPopulation's arrival chain, a Link's delivery chain) reserves
  /// a ticket where an eager caller would schedule, so its lazily armed
  /// events fire exactly where the eager ones would.
  std::uint64_t reserve(std::uint64_t n);

  /// schedule_at under a ticket from reserve(). Each ticket is used at
  /// most once.
  EventId schedule_reserved(Time t, std::uint64_t ticket, Callback cb) {
    return schedule(t, ticket, std::move(cb));
  }

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs all events with timestamp <= t, then advances the clock to t.
  std::size_t run_until(Time t);

  [[nodiscard]] std::size_t pending() const { return wheel_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Most live events ever pending at once on this scheduler.
  [[nodiscard]] std::size_t queue_depth_high_water() const {
    return depth_hwm_;
  }
  /// Hands out consecutive ordinals (0, 1, 2, ...) for entities that
  /// need their own RNG stream — links fork their RED AQM stream as
  /// Rng{seed}.fork(ordinal). Construction order is deterministic in a
  /// scenario, so the assignment is reproducible; distinct ordinals
  /// keep per-entity streams decorrelated even when every entity is
  /// configured with the same base seed.
  [[nodiscard]] std::uint64_t next_stream_ordinal() {
    return stream_ordinals_++;
  }

  /// Attaches the sorted-vector differential oracle: every subsequent
  /// schedule/cancel/fire is mirrored and cross-checked (INTOX_INVARIANT
  /// on divergence). Call with pending() == 0 — the mirror starts
  /// empty.
  void enable_oracle();
  [[nodiscard]] bool oracle_enabled() const { return oracle_ != nullptr; }

 private:
  // schedule_at (no ticket: a fresh one) and schedule_reserved.
  EventId schedule(Time t, std::optional<std::uint64_t> ticket,
                   Callback&& cb);
  // Pops the next due event (time <= bound), fires it, advances now_.
  bool fire_next(Time bound);

  Time now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t stream_ordinals_ = 0;
  std::size_t depth_hwm_ = 0;
  TimingWheel wheel_;
  std::unique_ptr<validate::SchedulerOracle> oracle_;

  // Test-only seam: lets the integrity tests corrupt internal state
  // (e.g. force the clock past a pending event, null out a parked
  // callback) and assert that the INTOX_INVARIANT checks catch it.
  friend class SchedulerTestPeer;
};

/// A restartable one-shot timer bound to a scheduler — the common pattern
/// for protocol timeouts (RTO, eviction, reset). Re-arming cancels any
/// pending expiry.
class Timer {
 public:
  Timer(Scheduler& sched, Scheduler::Callback on_expire)
      : sched_(sched), on_expire_(std::move(on_expire)) {}

  void arm_after(Duration d) {
    cancel();
    id_ = sched_.schedule_after(d, [this] {
      id_ = {};
      on_expire_();
    });
  }
  void cancel() {
    if (id_.valid()) {
      sched_.cancel(id_);
      id_ = {};
    }
  }
  [[nodiscard]] bool armed() const { return id_.valid(); }

 private:
  Scheduler& sched_;
  Scheduler::Callback on_expire_;
  Scheduler::EventId id_;
};

}  // namespace intox::sim
