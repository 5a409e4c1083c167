// Randomized differential suite for the timing-wheel scheduler: 1e5-op
// schedule/schedule_after/reserve/schedule_reserved/cancel/run_until/run
// workloads, and links' delivery chains, executed on the wheel with the
// SchedulerOracle armed, so every operation is replayed on the
// sorted-vector ReferenceQueue and compared (fire order, timestamps,
// cancel results, pending counts) as it happens. Any divergence throws
// InvariantError and fails the test.
//
// This binary carries the `sanitize` label: the asan-ubsan and tsan
// presets run it, so the wheel's intrusive-list surgery and slab reuse
// are additionally checked for memory and lifetime errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/link.hpp"
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

TEST_P(SchedulerDifferential, LinkChainShapeNeverDivergesFromOracle) {
  // The links' delivery chains: a link keeps only its head packet's
  // delivery pending, and each delivery arms the next one under the
  // ticket reserved at that packet's transmit, most often behind its
  // bucket's tail. Bursts on links from 100 Mb/s to 10 Gb/s with 1-20 ms
  // delays; even links forward what they deliver into the next link.
  // Timers land at packets' exact arrival instants, scheduled just
  // before and just after those packets' transmits, and some of them
  // are cancelled.
  Rng rng{GetParam() ^ 0x11c4a1ULL};
  Scheduler s;
  s.enable_oracle();

  constexpr std::size_t kLinks = 6;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<Time> next_free(kLinks, 0);  // each transmitter's, mirrored
  std::vector<std::deque<Time>> due(kLinks);  // predicted arrivals
  std::vector<Scheduler::EventId> timers;
  std::uint64_t sent = 0;
  std::uint64_t mispredicted = 0;
  auto timer_at = [&](Time t) {
    if (rng.bernoulli(0.2)) timers.push_back(s.schedule_at(t, [] {}));
  };
  auto send = [&](std::size_t i, std::uint32_t payload) {
    net::Packet p;
    p.l4 = net::UdpHeader{1, 2};
    p.payload_bytes = payload;
    // Link::transmit's arithmetic; the queues are too long to drop.
    const LinkConfig& cfg = links[i]->config();
    const auto serialization = static_cast<Duration>(
        static_cast<double>(p.size_bytes()) * 8.0 / cfg.rate_bps *
        static_cast<double>(kSecond));
    next_free[i] =
        std::max(s.now(), next_free[i]) + std::max<Duration>(serialization, 1);
    const Time arrival = next_free[i] + cfg.prop_delay;
    due[i].push_back(arrival);
    timer_at(arrival);
    links[i]->transmit(std::move(p));
    timer_at(arrival);
    ++sent;
  };
  for (std::size_t i = 0; i < kLinks; ++i) {
    LinkConfig cfg;
    cfg.rate_bps = 1e8 * std::pow(100.0, rng.uniform());
    cfg.prop_delay = static_cast<Duration>(
        rng.uniform_int(kMillisecond, 20 * kMillisecond));
    cfg.queue_limit_bytes = UINT32_MAX;
    links.push_back(std::make_unique<Link>(s, cfg, [&, i](net::Packet p) {
      if (due[i].empty() || due[i].front() != s.now()) ++mispredicted;
      if (!due[i].empty()) due[i].pop_front();
      if (i % 2 == 0) send(i + 1, p.payload_bytes);
    }));
  }

  constexpr int kOps = 25'000;  // x4 seeds = 1e5 ops total
  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      const std::size_t i = rng.uniform_int(0, kLinks - 1);
      for (auto n = rng.uniform_int(1, 8); n > 0; --n) {
        send(i, static_cast<std::uint32_t>(rng.uniform_int(12, 1472)));
      }
    } else if (roll < 0.65) {
      timers.push_back(s.schedule_after(log_uniform(rng, 1, 3e7), [] {}));
    } else if (roll < 0.75 && !timers.empty()) {
      s.cancel(take_random(rng, timers));
    } else {
      s.run_until(s.now() + log_uniform(rng, 1e3, 2e6));
    }
  }
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(mispredicted, 0u);
  std::uint64_t delivered = 0;
  for (const auto& link : links) {
    delivered += link->counters().delivered_packets;
  }
  EXPECT_EQ(delivered, sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential,
                         ::testing::Values(0x1ull, 0xbeefull, 0xc0ffeeull,
                                           0x5eed5ull));

}  // namespace
}  // namespace intox::sim
