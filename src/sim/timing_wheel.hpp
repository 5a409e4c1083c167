// Hierarchical timing wheel: the zero-allocation event store behind
// sim::Scheduler.
//
// Events live in a slab of 64-byte nodes (freelist reuse, generation
// tags) threaded into intrusive doubly-linked bucket lists. Buckets are
// arranged in 11 levels of 64 slots; level k buckets span 64^k ns, so
// level 0 resolves single nanoseconds and level 10's overflow slots
// reach past the maximum representable Time. An event is parked at the
// highest level where its timestamp differs from the wheel cursor. When
// the earliest pending bucket sits above level 0, a pop takes a lone
// event due within its bound where it sits; otherwise it cascades the
// bucket: the cursor jumps to the bucket's lowest timestamp (never past
// the bound), so its earliest events land at level 0 at once and the
// rest as low as they can. Each cascade moves an event at least one
// level down, so it moves at most 10 times, independent of queue depth;
// at 1 ns ticks the packet-level traffic leaves most buckets holding a
// single event, which pops without moving.
//
// Ordering contract (the one the stdout goldens in tests/golden/ pin):
// events fire in (time, scheduling order). Every bucket list is kept
// sorted by the insertion sequence number:
//   * direct inserts append at the tail (their seq is globally maximal);
//   * a reserved insert carries a seq handed out earlier by reserve().
//     One newer than the bucket's tail appends in O(1), which is the
//     common case of a link's delivery chain; any other walks in from
//     the bucket's head past the events older than the reservation;
//   * a cascade empties one source bucket in list order into buckets
//     that are provably empty (all lower levels have been drained before
//     a higher-level bucket can cascade), preserving relative order.
// A level-0 bucket therefore holds exactly one timestamp in FIFO order,
// and draining it head-first replays the scheduling order — including
// events appended *during* the drain by callbacks scheduling at `now`.
//
// Cancellation unlinks in O(1) and returns the node to the freelist
// immediately (no tombstones). Handles carry a generation so a stale
// cancel after slot reuse is refused instead of killing the new tenant.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace intox::sim {

class TimingWheel {
 public:
  using Callback = std::function<void()>;

  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;           // 64
  static constexpr int kLevels = 11;                      // 66 bits > Time
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// Slab handle: (node index, generation). Stale handles (the node
  /// fired or was erased, and possibly reused) are detected and refused.
  struct Ref {
    std::uint32_t index = kNil;
    std::uint32_t gen = 0;
    [[nodiscard]] bool valid() const { return index != kNil; }
  };

  TimingWheel();

  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  /// Parks `cb` at absolute time `t`. Requires t >= cursor() — the
  /// caller (Scheduler) clamps to its clock, which never trails the
  /// cursor. Assigns the next sequence number (FIFO tie-breaker).
  Ref insert(Time t, Callback cb);

  /// Hands out `n` consecutive sequence numbers for later
  /// insert_reserved calls and returns the first.
  std::uint64_t reserve(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }
  /// insert() under a seq from reserve(): the event orders among
  /// same-time events as if it had been inserted at reservation time.
  Ref insert_reserved(Time t, std::uint64_t seq, Callback cb);

  /// O(1) unlink + freelist release. Returns false (and does nothing)
  /// when the handle is stale: already fired, already erased, or the
  /// slot was reused by a later event.
  bool erase(Ref ref);

  /// Pops the earliest (time, seq) event with time <= bound: moves its
  /// callback into `cb_out`, its timestamp into `t_out`, frees the node,
  /// and advances the cursor to that timestamp. Returns false (without
  /// advancing the cursor past `bound`) when no such event exists.
  /// `ref_out`, when given, receives the popped event's (now stale)
  /// handle — the identity the differential oracle mirrors.
  bool pop_min_until(Time bound, Callback& cb_out, Time& t_out,
                     Ref* ref_out = nullptr);

  /// Advances the cursor floor to `t` (e.g. after run_until(t) drained
  /// everything due). Requires every pending event to be at time >= t.
  void advance_cursor(Time t);

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Lower bound of every pending event's timestamp.
  [[nodiscard]] Time cursor() const { return static_cast<Time>(cursor_); }
  /// Total nodes ever taken from slab growth (capacity watermark).
  [[nodiscard]] std::size_t slab_capacity() const { return nodes_.size(); }
  /// Events re-placed by cascades so far; inserts are not counted.
  [[nodiscard]] std::uint64_t moves() const { return moves_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// True when `ref` addresses a live (pending) event.
  [[nodiscard]] bool is_live(Ref ref) const {
    return ref.index < nodes_.size() && nodes_[ref.index].bucket != kNoBucket
        && nodes_[ref.index].gen == ref.gen;
  }

 private:
  static constexpr std::uint16_t kNoBucket = UINT16_MAX;

  struct Node {
    Callback cb;              // 32 bytes on libstdc++
    Time time = 0;            // 8
    std::uint64_t seq = 0;    // 8: FIFO-within-instant tie-breaker
    std::uint32_t next = kNil;  // bucket list / freelist link
    std::uint32_t prev = kNil;
    std::uint32_t gen = 1;    // bumped on release; 0 never used
    std::uint16_t bucket = kNoBucket;  // level * kSlots + slot, or free
  };
  static_assert(kLevels * kSlotBits >= 64, "wheel must span the Time range");

  static constexpr std::uint64_t kNoTime = UINT64_MAX;

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    /// Lower bound of the bucket's timestamps: lowered by every insert,
    /// reset when the bucket empties or cascades. A cancel can leave it
    /// low, never high, and never outside the bucket's span.
    std::uint64_t lo = kNoTime;
  };

  [[nodiscard]] std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  /// level * kSlots + slot of the bucket owning timestamp `t` relative
  /// to the current cursor.
  [[nodiscard]] std::uint16_t bucket_for(Time t) const;
  /// Appends node `idx` (time already set) to the bucket owning its
  /// timestamp relative to the current cursor.
  void place(std::uint32_t idx);
  void unlink(std::uint32_t idx);
  /// Hands node `idx`'s callback, time and handle to the popper and
  /// frees the node.
  void take(std::uint32_t idx, Callback& cb_out, Time& t_out, Ref* ref_out);
  /// Moves every event of bucket (level, slot) down the hierarchy after
  /// the cursor jumped into that bucket's span, to the bucket's lower
  /// bound or the pop's bound, whichever is lower. Every lower level is
  /// empty then, so events at the cursor's time land at level 0.
  void cascade(int level, int slot);

  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;
  Bucket buckets_[kLevels * kSlots];
  std::uint64_t occupancy_[kLevels] = {};
  std::uint64_t cursor_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t moves_ = 0;
  std::size_t live_ = 0;

  // Test-only seam: the cascade-boundary and corruption tests peek at
  // occupancy/bucket state and poison node callbacks in place.
  friend class TimingWheelTestPeer;
};

}  // namespace intox::sim
