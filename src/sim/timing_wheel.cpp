#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "validate/invariant.hpp"

namespace intox::sim {

namespace {

constexpr std::uint64_t low_bits(int n) {
  return n >= 64 ? ~0ull : (1ull << n) - 1;
}

}  // namespace

TimingWheel::TimingWheel() = default;

std::uint32_t TimingWheel::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    Node& n = nodes_[idx];
    INTOX_INVARIANT(n.bucket == kNoBucket,
                    "wheel freelist points at a parked node %u (bucket %u)",
                    idx, n.bucket);
    free_head_ = n.next;
    n.next = n.prev = kNil;
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  INTOX_INVARIANT(idx != kNil, "wheel slab exhausted the 32-bit index space");
  nodes_.emplace_back();
  return idx;
}

void TimingWheel::free_node(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.cb = nullptr;  // run the closure's destructor eagerly
  ++n.gen;
  n.bucket = kNoBucket;
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
}

inline std::uint16_t TimingWheel::bucket_for(Time t) const {
  const auto ut = static_cast<std::uint64_t>(t);
  INTOX_INVARIANT(ut >= cursor_,
                  "wheel insert behind the cursor: t=%llu cursor=%llu",
                  static_cast<unsigned long long>(ut),
                  static_cast<unsigned long long>(cursor_));
  const std::uint64_t diff = ut ^ cursor_;
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kSlotBits;
  const int slot = static_cast<int>((ut >> (level * kSlotBits)) &
                                    (kSlots - 1));
  return static_cast<std::uint16_t>(level * kSlots + slot);
}

void TimingWheel::place(std::uint32_t idx) {
  Node& n = nodes_[idx];
  const std::uint16_t b = bucket_for(n.time);
  n.bucket = b;
  Bucket& bucket = buckets_[b];
  // Tail-append. Direct inserts carry the globally largest seq; cascade
  // replays a seq-sorted list into empty buckets — either way the list
  // stays sorted by seq, which is the FIFO-within-instant guarantee.
  INTOX_INVARIANT(bucket.tail == kNil || nodes_[bucket.tail].seq < n.seq,
                  "wheel bucket %u would lose FIFO order: tail seq %llu >= "
                  "inserted seq %llu", b,
                  static_cast<unsigned long long>(
                      bucket.tail == kNil ? 0 : nodes_[bucket.tail].seq),
                  static_cast<unsigned long long>(n.seq));
  n.prev = bucket.tail;
  n.next = kNil;
  bucket.lo = std::min(bucket.lo, static_cast<std::uint64_t>(n.time));
  if (bucket.tail == kNil) {
    bucket.head = idx;
    occupancy_[b / kSlots] |= 1ull << (b % kSlots);
  } else {
    nodes_[bucket.tail].next = idx;
  }
  bucket.tail = idx;
}

void TimingWheel::unlink(std::uint32_t idx) {
  Node& n = nodes_[idx];
  INTOX_INVARIANT(n.bucket != kNoBucket, "unlink of a detached wheel node");
  Bucket& bucket = buckets_[n.bucket];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    bucket.head = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    bucket.tail = n.prev;
  }
  if (bucket.head == kNil) {
    occupancy_[n.bucket / kSlots] &= ~(1ull << (n.bucket % kSlots));
    bucket.lo = kNoTime;
  }
  n.bucket = kNoBucket;
  n.prev = n.next = kNil;
}

TimingWheel::Ref TimingWheel::insert(Time t, Callback cb) {
  const std::uint32_t idx = alloc_node();
  Node& n = nodes_[idx];
  n.cb = std::move(cb);
  n.time = t;
  n.seq = next_seq_++;
  place(idx);
  ++live_;
  return Ref{idx, n.gen};
}

TimingWheel::Ref TimingWheel::insert_reserved(Time t, std::uint64_t seq,
                                              Callback cb) {
  INTOX_INVARIANT(seq < next_seq_,
                  "wheel insert under seq %llu, which reserve() never "
                  "handed out (next seq %llu)",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(next_seq_));
  const std::uint32_t idx = alloc_node();
  Node& n = nodes_[idx];
  n.cb = std::move(cb);
  n.time = t;
  n.seq = seq;
  const std::uint16_t b = bucket_for(t);
  n.bucket = b;
  Bucket& bucket = buckets_[b];
  // Only events scheduled before the reservation can precede it. A seq
  // newer than the tail's (a link's delivery chain, mostly) appends in
  // O(1); any other walks in from the head and links ahead of the first
  // later one.
  std::uint32_t next = kNil;
  if (bucket.tail != kNil && nodes_[bucket.tail].seq >= seq) {
    next = bucket.head;
    while (next != kNil && nodes_[next].seq <= seq) next = nodes_[next].next;
  }
  n.next = next;
  n.prev = next == kNil ? bucket.tail : nodes_[next].prev;
  INTOX_INVARIANT(n.prev == kNil || nodes_[n.prev].seq < seq,
                  "wheel bucket %u would lose FIFO order: seq %llu "
                  "inserted twice", b, static_cast<unsigned long long>(seq));
  (n.prev == kNil ? bucket.head : nodes_[n.prev].next) = idx;
  (next == kNil ? bucket.tail : nodes_[next].prev) = idx;
  bucket.lo = std::min(bucket.lo, static_cast<std::uint64_t>(t));
  occupancy_[b / kSlots] |= 1ull << (b % kSlots);
  ++live_;
  return Ref{idx, n.gen};
}

bool TimingWheel::erase(Ref ref) {
  if (ref.index >= nodes_.size()) return false;
  Node& n = nodes_[ref.index];
  if (n.bucket == kNoBucket || n.gen != ref.gen) return false;  // stale
  unlink(ref.index);
  free_node(ref.index);
  INTOX_INVARIANT(live_ > 0, "wheel live-event count would underflow");
  --live_;
  return true;
}

void TimingWheel::cascade(int level, int slot) {
  const auto b = static_cast<std::uint16_t>(level * kSlots + slot);
  Bucket& bucket = buckets_[b];
  std::uint32_t idx = bucket.head;
  // Detach the whole list first: place() below must see the bucket as
  // empty (its occupancy bit cleared, its bound reset) while
  // redistributing.
  bucket.head = bucket.tail = kNil;
  bucket.lo = kNoTime;
  occupancy_[level] &= ~(1ull << slot);
  while (idx != kNil) {
    Node& n = nodes_[idx];
    const std::uint32_t next = n.next;
    n.prev = n.next = kNil;
    n.bucket = kNoBucket;
    place(idx);  // lands at a level strictly below `level`
    ++moves_;
    INTOX_INVARIANT(n.bucket / kSlots < level,
                    "wheel cascade did not descend: node stayed at level %d",
                    n.bucket / kSlots);
    idx = next;
  }
}

inline void TimingWheel::take(std::uint32_t idx, Callback& cb_out,
                              Time& t_out, Ref* ref_out) {
  Node& n = nodes_[idx];
  cb_out = std::move(n.cb);
  t_out = n.time;
  if (ref_out != nullptr) *ref_out = Ref{idx, n.gen};
  unlink(idx);
  free_node(idx);
  --live_;
}

bool TimingWheel::pop_min_until(Time bound, Callback& cb_out, Time& t_out,
                                Ref* ref_out) {
  if (live_ == 0) return false;
  const auto ubound = static_cast<std::uint64_t>(bound < 0 ? 0 : bound);
  for (;;) {
    // Level 0: buckets hold exactly one timestamp; the lowest occupied
    // slot at or after the cursor is the global minimum.
    const int c0 = static_cast<int>(cursor_ & (kSlots - 1));
    const std::uint64_t m0 = occupancy_[0] & ~low_bits(c0);
    if (m0 != 0) {
      const int slot = std::countr_zero(m0);
      const std::uint64_t base = (cursor_ & ~low_bits(kSlotBits)) +
                                 static_cast<std::uint64_t>(slot);
      if (base > ubound) return false;
      cursor_ = base;
      Bucket& bucket = buckets_[slot];
      const std::uint32_t idx = bucket.head;
      Node& n = nodes_[idx];
      INTOX_INVARIANT(static_cast<std::uint64_t>(n.time) == base,
                      "level-0 wheel bucket holds t=%lld but spans tick "
                      "%llu", static_cast<long long>(n.time),
                      static_cast<unsigned long long>(base));
      take(idx, cb_out, t_out, ref_out);
      return true;
    }
    // Level 0 exhausted for this window: the next occupied higher-level
    // bucket (strictly beyond the cursor's own slot — the cursor's slot
    // at level k is, by construction, held at levels < k) holds the
    // earliest events, and every level below it is empty.
    bool cascaded = false;
    for (int level = 1; level < kLevels; ++level) {
      const int ck =
          static_cast<int>((cursor_ >> (level * kSlotBits)) & (kSlots - 1));
      const std::uint64_t mk = occupancy_[level] & ~low_bits(ck + 1);
      if (mk == 0) continue;
      const int slot = std::countr_zero(mk);
      const int span_bits = (level + 1) * kSlotBits;
      const std::uint64_t base =
          (span_bits >= 64 ? 0 : (cursor_ & ~low_bits(span_bits))) |
          (static_cast<std::uint64_t>(slot) << (level * kSlotBits));
      if (base > ubound) return false;
      Bucket& bucket = buckets_[level * kSlots + slot];
      const std::uint32_t idx = bucket.head;
      const auto t = static_cast<std::uint64_t>(nodes_[idx].time);
      if (idx == bucket.tail && t <= ubound) {
        // A lone event due within the bound is the minimum: pop it where
        // it sits instead of cascading it toward level 0.
        INTOX_INVARIANT((t ^ base) >> (level * kSlotBits) == 0,
                        "level-%d wheel bucket holds t=%llu outside its "
                        "64^%d ns from %llu", level,
                        static_cast<unsigned long long>(t), level,
                        static_cast<unsigned long long>(base));
        cursor_ = t;
        take(idx, cb_out, t_out, ref_out);
        return true;
      }
      // Jump the cursor to the bucket's lowest timestamp, not its base,
      // so its earliest events land at level 0 at once. The clamp keeps
      // the cursor at or below the bound: a later insert in (bound, lo)
      // stays legal.
      cursor_ = std::min(bucket.lo, ubound);
      cascade(level, slot);
      cascaded = true;
      break;
    }
    if (!cascaded) return false;  // nothing pending anywhere
  }
}

void TimingWheel::advance_cursor(Time t) {
  const auto ut = static_cast<std::uint64_t>(t < 0 ? 0 : t);
  if (ut <= cursor_) return;
  // Legal only once everything due at or before `t` has been drained.
  // The probe pop makes the misuse loud: it would surface exactly the
  // event the caller was about to skip.
  Callback cb;
  Time when = 0;
  const bool skipped = pop_min_until(t, cb, when);
  INTOX_INVARIANT(!skipped,
                  "advance_cursor(%lld) skipped a pending event at t=%lld",
                  static_cast<long long>(t), static_cast<long long>(when));
  cursor_ = ut;
}

}  // namespace intox::sim
