// Randomized differential suite for the timing-wheel scheduler: 1e5-op
// schedule/schedule_after/reserve/schedule_reserved/cancel/run_until/run
// workloads executed on the wheel with the SchedulerOracle armed, so
// every operation is replayed on the sorted-vector ReferenceQueue and
// compared (fire order, timestamps, cancel results, pending counts) as
// it happens. Any divergence throws InvariantError and fails the test.
//
// This binary carries the `sanitize` label: the asan-ubsan and tsan
// presets run it, so the wheel's intrusive-list surgery and slab reuse
// are additionally checked for memory and lifetime errors.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "validate/oracles.hpp"

namespace intox::sim {
namespace {

class SchedulerDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

// Log-uniform in [lo, hi) ns: every decade is equally likely.
Duration log_uniform(Rng& rng, double lo, double hi) {
  return static_cast<Duration>(lo * std::pow(hi / lo, rng.uniform()));
}

// A random element of `v`, removed from it.
template <typename T>
T take_random(Rng& rng, std::vector<T>& v) {
  const auto it = v.begin() + static_cast<std::ptrdiff_t>(
                                  rng.uniform_int(0, v.size() - 1));
  const T out = *it;
  v.erase(it);
  return out;
}

TEST_P(SchedulerDifferential, RandomOpSequenceNeverDivergesFromOracle) {
  Rng rng{GetParam()};
  Scheduler s;
  s.enable_oracle();
  ASSERT_TRUE(s.oracle_enabled());

  std::vector<Scheduler::EventId> live;
  std::vector<std::uint64_t> tickets;  // reserved, not yet used
  constexpr int kOps = 25'000;  // x4 seeds = 1e5 ops total
  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.03) {
      const auto n = rng.uniform_int(1, 8);
      const std::uint64_t first = s.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) tickets.push_back(first + i);
    } else if (roll < 0.08 && !tickets.empty()) {
      // Use a random outstanding ticket (so out of reservation order):
      // exactly at `now`, near (possibly past, clamped), or far enough
      // ahead to park at wheel level 3 or 4 and cascade down. The id
      // joins `live`, so some reserved events are cancelled.
      const std::uint64_t ticket = take_random(rng, tickets);
      const double where = rng.uniform();
      Time t = s.now();
      if (where >= 0.8) {
        t += static_cast<Time>(rng.uniform_int(1 << 18, 1 << 26));
      } else if (where >= 0.4) {
        t += static_cast<Time>(rng.uniform_int(0, 5000)) - 500;
      }
      live.push_back(s.schedule_reserved(t, ticket, [] {}));
    } else if (roll < 0.55 || live.empty()) {
      // Schedule: a mix of absolute times (possibly in the past —
      // clamped) and relative delays.
      if (rng.bernoulli(0.5)) {
        const Time t = s.now() + static_cast<Time>(rng.uniform_int(0, 5000)) -
                       500;  // may be < now
        live.push_back(s.schedule_at(t, [] {}));
      } else {
        const auto d = static_cast<Duration>(rng.uniform_int(0, 5000));
        live.push_back(s.schedule_after(d, [] {}));
      }
    } else if (roll < 0.80) {
      // Cancel a random remembered id. Roughly half are already fired
      // (stale) — the wheel and the reference must agree on the result.
      s.cancel(take_random(rng, live));
    } else if (roll < 0.95) {
      s.run_until(s.now() + static_cast<Time>(rng.uniform_int(0, 3000)));
    } else {
      s.run(static_cast<std::size_t>(rng.uniform_int(1, 50)));
    }
  }
  for (const std::uint64_t ticket : tickets) {
    s.schedule_reserved(s.now(), ticket, [] {});
  }
  s.run();
  EXPECT_EQ(s.pending(), 0u);
}

TEST_P(SchedulerDifferential, NestedSchedulingNeverDivergesFromOracle) {
  // Callbacks that schedule (at `now`, nearby, or clamped-past times)
  // and cancel during the drain — the paths where FIFO-within-instant
  // and the cursor rules are easiest to get wrong.
  Rng rng{GetParam() ^ 0xd1ffULL};
  Scheduler s;
  s.enable_oracle();

  int remaining = 5'000;
  std::vector<Scheduler::EventId> cancellable;
  // Tickets reserved before any event, used from inside the drain: a
  // ticket used at `now` fires this instant ahead of every queued peer
  // scheduled after the reservation (the lazy arrival-chain pattern).
  std::uint64_t ticket = s.reserve(1'000);
  const std::uint64_t last_ticket = ticket + 1'000;
  std::function<void()> spawn = [&] {
    if (--remaining <= 0) return;
    const int children = static_cast<int>(rng.uniform_int(0, 2));
    for (int c = 0; c < children; ++c) {
      // Offset may be negative: clamps to now and fires this instant,
      // after every already-queued peer (or ahead of them, reserved).
      const auto d =
          static_cast<Duration>(rng.uniform_int(0, 800)) - 100;
      const auto id =
          ticket < last_ticket && rng.bernoulli(0.2)
              ? s.schedule_reserved(s.now() + d, ticket++, spawn)
              : s.schedule_after(d, spawn);
      if (rng.bernoulli(0.2)) cancellable.push_back(id);
    }
    if (!cancellable.empty() && rng.bernoulli(0.3)) {
      s.cancel(cancellable.back());
      cancellable.pop_back();
    }
  };
  for (int i = 0; i < 200; ++i) {
    s.schedule_at(static_cast<Time>(rng.uniform_int(0, 1000)), spawn);
  }
  while (s.pending() > 0) {
    s.run_until(s.now() + 500);
  }
  EXPECT_EQ(s.pending(), 0u);
}

TEST_P(SchedulerDifferential, SparseTrafficShapeNeverDivergesFromOracle) {
  // The packet-level scenarios' shape at 1 ns ticks: delays spread over
  // 1 ns - 2 s park events at wheel levels 0-5 and leave most buckets
  // holding one event, which pops where it sits, and run_until bounds
  // 64^2 ns to 64^5 ns ahead stop inside the span of a level 2-5
  // bucket, where a cascade may move the cursor no further than the
  // bound. Cancels leave bucket bounds stale; reserved tickets insert
  // below a bucket's other timestamps.
  Rng rng{GetParam() ^ 0x5ba75eULL};
  Scheduler s;
  s.enable_oracle();

  std::vector<Scheduler::EventId> live;
  std::vector<std::uint64_t> tickets;  // reserved, not yet used
  constexpr int kOps = 25'000;  // x4 seeds = 1e5 ops total
  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.03) {
      const std::uint64_t first = s.reserve(4);
      for (std::uint64_t i = 0; i < 4; ++i) tickets.push_back(first + i);
    } else if (roll < 0.08 && !tickets.empty()) {
      const std::uint64_t ticket = take_random(rng, tickets);
      live.push_back(s.schedule_reserved(
          s.now() + log_uniform(rng, 1, 2e9), ticket, [] {}));
    } else if (roll < 0.60 || live.empty()) {
      live.push_back(s.schedule_after(log_uniform(rng, 1, 2e9), [] {}));
    } else if (roll < 0.80) {
      s.cancel(take_random(rng, live));
    } else if (roll < 0.97) {
      // The oracle checks what fires, not where run_until stops: an
      // event popped past the bound would leave the clock beyond it.
      const Time bound = s.now() + log_uniform(rng, 0x1p12, 0x1p30);
      s.run_until(bound);
      ASSERT_EQ(s.now(), bound);
    } else {
      s.run(static_cast<std::size_t>(rng.uniform_int(1, 20)));
    }
  }
  for (const std::uint64_t ticket : tickets) {
    s.schedule_reserved(s.now(), ticket, [] {});
  }
  s.run();
  EXPECT_EQ(s.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential,
                         ::testing::Values(0x1ull, 0xbeefull, 0xc0ffeeull,
                                           0x5eed5ull));

}  // namespace
}  // namespace intox::sim
