// Differential oracles: slow, obviously-correct reference implementations
// of the hot-path components the Monte-Carlo benches aggregate through.
//
// Each oracle recomputes a result a second way — a sorted-vector queue
// for the event scheduler, two-pass recomputation for the streaming
// statistics — so tests (and the `validate_sweep` binary) can
// cross-check the fast paths instead of trusting them. None of these are
// meant for production speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace intox::validate {

// --- Exact statistics --------------------------------------------------

/// Two-pass recomputation of what RunningStats holds after seeing `xs`:
/// the oracle for its streaming Welford updates.
struct ExactStats {
  std::size_t n = 0;
  double mean = 0.0;
  double variance = 0.0;  // sample variance (n-1), 0 when n < 2
  double min = 0.0;
  double max = 0.0;
};
ExactStats exact_stats(const std::vector<double>& xs);

// --- Reference event queue --------------------------------------------
//
// A sorted-vector mirror of sim::Scheduler's ordering contract: events
// fire in (time, scheduling order), where a reserved ticket stands for
// the place it was reserved at; past times clamp to `now`; cancel
// removes eagerly (no tombstones to get wrong). Tests drive a Scheduler
// and a ReferenceQueue with the same operation sequence and compare the
// firing logs; SchedulerOracle (below) automates exactly that as an
// always-on mirror inside the Scheduler itself.
class ReferenceQueue {
 public:
  struct Fired {
    std::uint64_t id = 0;
    sim::Time time = 0;
    friend bool operator==(const Fired&, const Fired&) = default;
  };

  /// Starts the scheduling positions at `first_seq` (the oracle passes
  /// the wheel's, so a reserved ticket means the same on both sides).
  explicit ReferenceQueue(std::uint64_t first_seq = 0)
      : next_seq_(first_seq) {}

  /// Mirrors Scheduler::schedule_at (including clamp-to-now); returns a
  /// self-assigned event id (ids start at 1 and increment per schedule).
  std::uint64_t schedule_at(sim::Time t);

  /// Same, under a caller-supplied id — the form the SchedulerOracle
  /// uses, since the timing wheel's slab handles are not sequential.
  void schedule_at(sim::Time t, std::uint64_t id);

  /// Mirrors Scheduler::reserve: skips `n` scheduling positions and
  /// returns the first.
  std::uint64_t reserve(std::uint64_t n);

  /// Mirrors Scheduler::schedule_reserved under a caller-supplied id.
  /// Returns false (scheduling nothing) for a ticket never reserved.
  bool schedule_reserved(sim::Time t, std::uint64_t ticket, std::uint64_t id);

  /// Mirrors Scheduler::cancel. Returns false for unknown/fired ids.
  bool cancel(std::uint64_t id);

  /// Fires everything with time <= t in order and advances the clock.
  std::vector<Fired> run_until(sim::Time t);

  /// Fires the next `limit` events regardless of time.
  std::vector<Fired> run(std::size_t limit = SIZE_MAX);

  [[nodiscard]] sim::Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return entries_.size(); }

 private:
  struct Entry {
    sim::Time time;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::optional<Fired> pop_next();

  sim::Time now_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> entries_;  // unsorted; pop scans for min (time, seq)
};

// --- Scheduler differential oracle ------------------------------------
//
// The always-on mirror for the timing-wheel scheduler: Scheduler (with
// the oracle enabled by Scheduler::enable_oracle) forwards every
// schedule/cancel/fire/boundary to this class, which replays it on the
// ReferenceQueue and raises an INTOX_INVARIANT on any divergence in
// fire order, timestamps, cancel results, or pending counts. O(n) per
// fire — for validate runs and tests, not benches.
class SchedulerOracle {
 public:
  /// `first_seq` is the wheel's next sequence number at attach time.
  explicit SchedulerOracle(std::uint64_t first_seq) : ref_(first_seq) {}

  /// `t` is the post-clamp timestamp; `pending` the scheduler's live
  /// count after the operation (likewise for the other hooks); `ticket`
  /// is set for schedule_reserved.
  void mirror_schedule(sim::Time t, std::uint64_t id, std::size_t pending,
                       std::optional<std::uint64_t> ticket);
  /// Scheduler::reserve(n) returned `first`: the reference must hand out
  /// the same tickets.
  void mirror_reserve(std::uint64_t first, std::uint64_t n);
  void mirror_cancel(std::uint64_t id, bool cancelled, std::size_t pending);
  void mirror_fire(std::uint64_t id, sim::Time t, std::size_t pending);
  /// End of Scheduler::run_until(t): the mirror must agree that nothing
  /// was left due at or before `t`.
  void mirror_boundary(sim::Time t, std::size_t pending);

  [[nodiscard]] const ReferenceQueue& reference() const { return ref_; }
  /// Cross-checks performed so far (tests pin that the mirror really ran).
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  void check_pending(std::size_t pending, const char* op);

  ReferenceQueue ref_;
  std::uint64_t checks_ = 0;
};

}  // namespace intox::validate
