// Timing-wheel unit tests: level placement, cascade boundaries (level
// rollover ticks, far-future overflow, kTimeMax), lone events popped in
// place, the cascade's jump to a bucket's lower bound (clamped to the
// pop's bound, kept by reserved inserts, reset on reuse, stale after a
// cancel), cursor-bound behavior, and slab/freelist reuse. The end-to-end
// ordering contract is exercised by the Scheduler tests and the
// differential property suite; these tests pin the wheel geometry
// itself via the TimingWheelTestPeer.
#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "wheel_test_peer.hpp"
#include "validate/invariant.hpp"

namespace intox::sim {
namespace {

using Peer = TimingWheelTestPeer;

Time drain_next(TimingWheel& w, Time bound = kTimeMax) {
  TimingWheel::Callback cb;
  Time t = -1;
  if (!w.pop_min_until(bound, cb, t)) return -1;
  if (cb) cb();
  return t;
}

TEST(TimingWheel, LevelPlacementMatchesDistanceFromCursor) {
  // With the cursor at 0, an event parks at the highest level where its
  // timestamp differs from the cursor: level k spans 64^k ns.
  TimingWheel w;
  const struct {
    Time t;
    int level;
  } cases[] = {
      {0, 0},        {1, 0},          {63, 0},
      {64, 1},       {4095, 1},       // 64^2 - 1: highest differing bit 11
      {4096, 2},     {262143, 2},     // 64^3 - 1
      {262144, 3},   {kTimeMax, 10},  // bit 62 -> level 10 (overflow range)
  };
  for (const auto& c : cases) {
    const auto ref = w.insert(c.t, [] {});
    EXPECT_EQ(Peer::level_of(w, ref), c.level) << "t=" << c.t;
    ASSERT_TRUE(w.erase(ref));
  }
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, LevelRolloverTicksFireInOrder) {
  // Events straddling every level-rollover boundary (64^k - 1, 64^k,
  // 64^k + 1) must come out in time order despite living at different
  // levels initially.
  TimingWheel w;
  std::vector<Time> times;
  for (Time boundary : {Time{64}, Time{4096}, Time{262144}, Time{16777216}}) {
    times.push_back(boundary - 1);
    times.push_back(boundary);
    times.push_back(boundary + 1);
  }
  // Insert in reverse to rule out insertion-order luck.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    w.insert(*it, [] {});
  }
  for (Time expect : times) {
    EXPECT_EQ(drain_next(w), expect);
  }
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, LoneEventPopsWhereItSits) {
  // A bucket above level 0 that holds the earliest event and nothing
  // else pops that event in place: the cursor lands on its time (not
  // the bucket's base) and no cascade re-places anything.
  Time span = 1;
  for (int level = 1; level < TimingWheel::kLevels; ++level) {
    span *= TimingWheel::kSlots;  // 64^level
    TimingWheel w;
    const Time t = 3 * span + 5;  // slot 3, five ticks past its base
    const auto ref = w.insert(t, [] {});
    ASSERT_EQ(Peer::level_of(w, ref), level) << "t=" << t;
    EXPECT_EQ(drain_next(w), t) << "level " << level;
    EXPECT_EQ(w.cursor(), t) << "level " << level;
    EXPECT_EQ(w.moves(), 0u) << "level " << level;
    EXPECT_TRUE(w.empty());
  }
}

TEST(TimingWheel, CascadeJumpsToTheBucketsEarliestEvent) {
  // Two events at 70000 and one at 70100 share the level-2 bucket
  // spanning [69632, 73728). Its cascade moves the cursor to 70000, not
  // to 69632, so the pair lands at level 0 at once and 70100 at level
  // 1, whence it pops where it sits: three moves in all. From the
  // bucket's base the pair would share a level-1 bucket and move again.
  TimingWheel w;
  const auto a = w.insert(70000, [] {});
  const auto a2 = w.insert(70000, [] {});
  const auto b = w.insert(70100, [] {});
  ASSERT_EQ(Peer::level_of(w, a), 2);
  ASSERT_EQ(Peer::bucket_of(w, b), Peer::bucket_of(w, a));
  EXPECT_EQ(drain_next(w), 70000);
  EXPECT_EQ(w.moves(), 3u);
  EXPECT_EQ(Peer::level_of(w, a2), 0);
  EXPECT_EQ(Peer::level_of(w, b), 1);
  EXPECT_EQ(drain_next(w), 70000);
  EXPECT_EQ(drain_next(w), 70100);
  EXPECT_EQ(w.moves(), 3u);
}

TEST(TimingWheel, CascadePreservesFifoWithinInstant) {
  // Many same-timestamp events parked at a high level must replay their
  // insertion order exactly after cascading to level 0 — this is the
  // property the scenario stdout goldens rest on.
  TimingWheel w;
  const Time t = 70000;  // level 2 from cursor 0
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    w.insert(t, [&order, i] { order.push_back(i); });
  }
  while (drain_next(w) >= 0) {
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimingWheel, ReservedInsertLandsBySeqAheadOfTheTail) {
  // Seqs handed out by reserve() rank before every later insert at the
  // same instant: they link in ahead of the bucket's tail, whichever
  // order they are used in, and keep that order through the level-2 ->
  // level-0 cascade.
  TimingWheel w;
  std::vector<int> order;
  const std::uint64_t first = w.reserve(2);
  w.insert(70000, [&order] { order.push_back(2); });
  w.insert_reserved(70000, first + 1, [&order] { order.push_back(1); });
  w.insert(70000, [&order] { order.push_back(3); });
  w.insert_reserved(70000, first, [&order] { order.push_back(0); });
  while (drain_next(w) >= 0) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Three same-instant events (a level-2 bucket from cursor 0), a reserved
// insert under a ticket taken after the first `older` of them, then one
// ordinary insert, which must still append behind everything. Returns
// the fire order: 0-2 the first three, 3 the last, -1 the reserved one.
std::vector<int> fire_order_with_ticket_after(int older) {
  TimingWheel w;
  std::vector<int> order;
  std::uint64_t ticket = 0;
  for (int i = 0; i <= 3; ++i) {
    if (i == older) ticket = w.reserve(1);
    if (i < 3) w.insert(70000, [&order, i] { order.push_back(i); });
  }
  const auto ref = w.insert_reserved(70000, ticket,
                                     [&order] { order.push_back(-1); });
  EXPECT_EQ(Peer::level_of(w, ref), 2);
  w.insert(70000, [&order] { order.push_back(3); });
  while (drain_next(w) >= 0) {
  }
  return order;
}

TEST(TimingWheel, ReservedInsertLandsInSeqOrderAnywhereInItsBucket) {
  // Older than the head, between head and tail, newer than the tail
  // (appended without a walk).
  EXPECT_EQ(fire_order_with_ticket_after(0),
            (std::vector<int>{-1, 0, 1, 2, 3}));
  EXPECT_EQ(fire_order_with_ticket_after(1),
            (std::vector<int>{0, -1, 1, 2, 3}));
  EXPECT_EQ(fire_order_with_ticket_after(3),
            (std::vector<int>{0, 1, 2, -1, 3}));
}

TEST(TimingWheel, ReservedSeqEqualToTheTailsIsCaught) {
  // Not newer than the tail, so no append: the walk from the head finds
  // the seq already linked.
  TimingWheel w;
  w.insert(70000, [] {});
  const std::uint64_t ticket = w.reserve(1);
  w.insert_reserved(70000, ticket, [] {});
  EXPECT_THROW(w.insert_reserved(70000, ticket, [] {}),
               validate::InvariantError);
}

TEST(TimingWheel, ReusedOrUnreservedSeqIsCaught) {
  TimingWheel w;
  const std::uint64_t first = w.reserve(1);
  w.insert_reserved(10, first, [] {});
  EXPECT_THROW(w.insert_reserved(10, first, [] {}),
               validate::InvariantError);
  EXPECT_THROW(w.insert_reserved(10, w.next_seq(), [] {}),
               validate::InvariantError);
}

TEST(TimingWheel, FarFutureOverflowSlotHoldsAndFires) {
  // kTimeMax lives in level 10 (the overflow range past any realistic
  // horizon) and must still fire exactly once at its timestamp.
  TimingWheel w;
  bool fired = false;
  const auto ref = w.insert(kTimeMax, [&fired] { fired = true; });
  EXPECT_EQ(Peer::level_of(w, ref), 10);
  // Bounded pops below it never disturb it.
  TimingWheel::Callback cb;
  Time t = 0;
  EXPECT_FALSE(w.pop_min_until(1'000'000'000, cb, t));
  EXPECT_TRUE(w.is_live(ref));
  EXPECT_EQ(drain_next(w, kTimeMax), kTimeMax);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, BoundedPopNeverOvershootsCursor) {
  // pop_min_until(bound) with nothing due must NOT advance the cursor
  // past `bound`: a later insert between `bound` and the next event
  // would otherwise land behind the cursor (an insert-invariant breach).
  TimingWheel w;
  w.insert(1000, [] {});
  TimingWheel::Callback cb;
  Time t = 0;
  EXPECT_FALSE(w.pop_min_until(500, cb, t));
  EXPECT_LE(w.cursor(), 500);
  // The late arrival in (cursor, 1000) must be accepted and fire first.
  w.insert(600, [] {});
  EXPECT_EQ(drain_next(w), 600);
  EXPECT_EQ(drain_next(w), 1000);
}

TEST(TimingWheel, BoundInsideABucketsSpanKeepsTheCursorAtTheBound) {
  // 1000 and 1010 share the level-1 bucket spanning [960, 1024). A pop
  // bounded at 980 cascades it but may move the cursor only to 980, not
  // to the bucket's earliest event: an insert at 990 is still legal and
  // fires before both.
  TimingWheel w;
  const auto a = w.insert(1000, [] {});
  const auto b = w.insert(1010, [] {});
  ASSERT_EQ(Peer::level_of(w, a), 1);
  ASSERT_EQ(Peer::bucket_of(w, b), Peer::bucket_of(w, a));
  TimingWheel::Callback cb;
  Time t = 0;
  EXPECT_FALSE(w.pop_min_until(980, cb, t));
  EXPECT_LE(w.cursor(), 980);
  w.insert(990, [] {});
  EXPECT_EQ(drain_next(w), 990);
  EXPECT_EQ(drain_next(w), 1000);
  EXPECT_EQ(drain_next(w), 1010);
}

TEST(TimingWheel, ReservedInsertBelowItsBucketsOtherTimesFiresFirst) {
  // The reserved insert at 1000 links in by seq behind the event at
  // 1010 in the same level-1 bucket, yet is the earlier one: the
  // bucket's lower bound must follow it, or the cascade would move the
  // cursor past it.
  TimingWheel w;
  const std::uint64_t ticket = w.reserve(1);
  w.insert(1010, [] {});
  const auto ref = w.insert_reserved(1000, ticket, [] {});
  ASSERT_EQ(Peer::level_of(w, ref), 1);
  EXPECT_EQ(drain_next(w), 1000);
  EXPECT_EQ(drain_next(w), 1010);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, ReusedSlotNeverMovesTheCursorBackwards) {
  // Cancels empty the level-1 bucket of slot 15 while it spans
  // [960, 1024). Once the cursor is past 4096, the same slot spans
  // [5056, 5120) and takes two events: the bound the cancelled events
  // left must not survive into the new span.
  TimingWheel w;
  const auto a = w.insert(1000, [] {});
  const auto b = w.insert(1010, [] {});
  ASSERT_TRUE(w.erase(a));
  ASSERT_TRUE(w.erase(b));
  w.advance_cursor(4096);
  const auto c = w.insert(5059, [] {});
  const auto d = w.insert(5069, [] {});
  ASSERT_EQ(Peer::bucket_of(w, c), Peer::bucket_of(w, b));
  ASSERT_EQ(Peer::bucket_of(w, d), Peer::bucket_of(w, b));
  std::vector<Time> cursors{w.cursor()};
  EXPECT_EQ(drain_next(w), 5059);
  cursors.push_back(w.cursor());
  EXPECT_EQ(drain_next(w), 5069);
  cursors.push_back(w.cursor());
  EXPECT_EQ(cursors, (std::vector<Time>{4096, 5059, 5069}));
}

TEST(TimingWheel, CancelledEarliestEventLeavesTheRestInOrder) {
  // Cancelling a multi-event bucket's earliest event leaves its lower
  // bound stale and low; the cascade then stops short of the earliest
  // live event, and the rest still fire in (time, seq) order.
  TimingWheel w;
  std::vector<int> order;
  const auto first = w.insert(70000, [&order] { order.push_back(0); });
  w.insert(71000, [&order] { order.push_back(3); });
  w.insert(70100, [&order] { order.push_back(1); });
  w.insert(72000, [&order] { order.push_back(4); });
  w.insert(70100, [&order] { order.push_back(2); });
  ASSERT_EQ(Peer::level_of(w, first), 2);
  ASSERT_TRUE(w.erase(first));
  std::vector<Time> times;
  for (Time t; (t = drain_next(w)) >= 0;) times.push_back(t);
  EXPECT_EQ(times, (std::vector<Time>{70100, 70100, 71000, 72000}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(TimingWheel, EraseIsStaleSafeAndReturnsSlotsLifo) {
  TimingWheel w;
  const auto a = w.insert(10, [] {});
  EXPECT_TRUE(w.is_live(a));
  EXPECT_TRUE(w.erase(a));
  EXPECT_FALSE(w.is_live(a));
  EXPECT_FALSE(w.erase(a));  // stale: already erased
  // The freed slot is reused (LIFO) under a new generation; the old
  // handle must not alias the new tenant.
  const auto b = w.insert(20, [] {});
  EXPECT_EQ(b.index, a.index);
  EXPECT_NE(b.gen, a.gen);
  EXPECT_FALSE(w.erase(a));
  EXPECT_TRUE(w.is_live(b));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.slab_capacity(), 1u);  // no growth across the reuse cycle
}

TEST(TimingWheel, PopReportsTheRefTheOracleMirrors) {
  TimingWheel w;
  const auto ref = w.insert(42, [] {});
  TimingWheel::Callback cb;
  Time t = 0;
  TimingWheel::Ref popped;
  ASSERT_TRUE(w.pop_min_until(kTimeMax, cb, t, &popped));
  EXPECT_EQ(t, 42);
  EXPECT_EQ(popped.index, ref.index);
  EXPECT_EQ(popped.gen, ref.gen);
}

TEST(TimingWheel, AdvanceCursorPastPendingEventIsCaught) {
  TimingWheel w;
  w.insert(50, [] {});
  EXPECT_THROW(w.advance_cursor(100), validate::InvariantError);
}

TEST(TimingWheel, AdvanceCursorToDrainedBoundaryAcceptsNearInserts) {
  // The normal run_until(t) sequence: drain, then advance the floor to
  // t. Inserts right at the new cursor must land at level 0.
  TimingWheel w;
  w.insert(10, [] {});
  EXPECT_EQ(drain_next(w), 10);
  w.advance_cursor(1'000'000);
  EXPECT_EQ(w.cursor(), 1'000'000);
  const auto ref = w.insert(1'000'000, [] {});
  EXPECT_EQ(Peer::level_of(w, ref), 0);
  EXPECT_EQ(drain_next(w), 1'000'000);
}

TEST(TimingWheel, MixedWorkloadMatchesSortInsertionOrderTieBreak) {
  // 1000 events over a small time range (heavy instant collisions),
  // inserted in scrambled order: pops must come out sorted by
  // (time, insertion seq).
  TimingWheel w;
  struct Expect {
    Time t;
    int label;
  };
  std::vector<Expect> inserted;
  std::uint64_t lcg = 99;
  for (int i = 0; i < 1000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const Time t = static_cast<Time>((lcg >> 33) % 97);
    inserted.push_back({t, i});
  }
  std::vector<int> fired;
  for (const auto& e : inserted) {
    w.insert(e.t, [&fired, label = e.label] { fired.push_back(label); });
  }
  while (drain_next(w) >= 0) {
  }
  std::vector<Expect> want = inserted;
  std::stable_sort(want.begin(), want.end(),
                   [](const Expect& a, const Expect& b) { return a.t < b.t; });
  ASSERT_EQ(fired.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fired[i], want[i].label) << "position " << i;
  }
}

}  // namespace
}  // namespace intox::sim
