// Slab (freelist) object pool with generation-tagged handles.
//
// The hot-path engine keeps events, in-flight packets, and per-flow
// records in flat slabs instead of individually heap-allocated objects:
// allocation is a freelist pop, release is a freelist push, and every
// object of a kind lives in one contiguous vector, so the scheduler's
// drain loop and the per-flow scans walk linear memory.
//
// Handles are (index, generation) pairs. The generation is bumped on
// every release, so a stale handle held across a free/re-alloc cycle is
// detected instead of silently aliasing the new occupant — the
// scheduler's cancel-after-fire path depends on this.
//
// In Debug builds (no NDEBUG) released slots are poisoned with a
// recognizable byte pattern and re-checked on allocation, so
// use-after-free through a raw reference (as opposed to a checked
// handle) trips an INTOX_INVARIANT instead of reading plausible stale
// state.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "validate/invariant.hpp"

namespace intox::sim {

/// Byte written over the trailing pad of released slots when poisoning
/// is enabled (0xDB: "dead byte").
inline constexpr unsigned char kSlabPoisonByte = 0xDB;

/// A freelist slab of T. T must be default-constructible; objects are
/// reset to a default-constructed state on release so reuse never
/// observes the previous occupant.
template <typename T>
class SlabPool {
 public:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Handle {
    std::uint32_t index = kNil;
    std::uint32_t generation = 0;
    [[nodiscard]] bool valid() const { return index != kNil; }
    friend bool operator==(const Handle&, const Handle&) = default;
  };

  SlabPool() = default;
  explicit SlabPool(std::size_t reserve) { slots_.reserve(reserve); }

  /// Allocates a slot (freelist pop, or slab growth) and returns its
  /// handle. The object is default-constructed state.
  Handle allocate() {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      Slot& s = slots_[idx];
      INTOX_INVARIANT(!s.live, "slab freelist points at a live slot %u",
                      idx);
      check_poison(s);
      free_head_ = s.next_free;
      --free_count_;
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      INTOX_INVARIANT(idx != kNil, "slab pool exhausted the 32-bit index "
                      "space");
      slots_.emplace_back();
    }
    Slot& s = slots_[idx];
    s.live = true;
    s.next_free = kNil;
    ++live_count_;
    return Handle{idx, s.generation};
  }

  /// Releases a slot back to the freelist. The handle (and every copy of
  /// it) becomes stale: `get()` on it returns nullptr from now on.
  void release(Handle h) {
    Slot& s = checked_slot(h);
    s.value = T{};  // drop payload eagerly (callbacks, buffers)
    s.live = false;
    ++s.generation;
    poison(s);
    s.next_free = free_head_;
    free_head_ = h.index;
    ++free_count_;
    --live_count_;
  }

  /// The object behind a handle, or nullptr if the handle is stale
  /// (already released, possibly re-allocated to someone else).
  [[nodiscard]] T* get(Handle h) {
    if (h.index >= slots_.size()) return nullptr;
    Slot& s = slots_[h.index];
    if (!s.live || s.generation != h.generation) return nullptr;
    return &s.value;
  }
  [[nodiscard]] const T* get(Handle h) const {
    return const_cast<SlabPool*>(this)->get(h);
  }

  /// Unchecked access for the owner's hot loop: `h` must be live.
  [[nodiscard]] T& operator[](Handle h) { return checked_slot(h).value; }
  /// Index-only access when the caller tracks liveness itself.
  [[nodiscard]] T& at_index(std::uint32_t idx) { return slots_[idx].value; }
  [[nodiscard]] const T& at_index(std::uint32_t idx) const {
    return slots_[idx].value;
  }
  [[nodiscard]] std::uint32_t generation_at(std::uint32_t idx) const {
    return slots_[idx].generation;
  }

  [[nodiscard]] std::size_t size() const { return live_count_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t free_slots() const { return free_count_; }

  void reserve(std::size_t n) { slots_.reserve(n); }

 private:
  struct Slot {
    T value{};
    std::uint32_t generation = 1;  // 0 never used: lets 0 mean "invalid"
    std::uint32_t next_free = kNil;
    bool live = false;
#if !defined(NDEBUG)
    // Canary re-checked on allocation: anything scribbling over released
    // slots (use-after-free through a raw pointer) is caught at reuse.
    unsigned char canary[4] = {0, 0, 0, 0};
#endif
  };

  Slot& checked_slot(Handle h) {
    INTOX_INVARIANT(h.index < slots_.size(),
                    "slab handle index %u out of range (capacity %zu)",
                    h.index, slots_.size());
    Slot& s = slots_[h.index];
    INTOX_INVARIANT(s.live && s.generation == h.generation,
                    "stale slab handle {index=%u gen=%u}: slot is %s with "
                    "gen=%u", h.index, h.generation,
                    s.live ? "live" : "free", s.generation);
    return s;
  }

#if !defined(NDEBUG)
  static void poison(Slot& s) {
    std::memset(s.canary, kSlabPoisonByte, sizeof(s.canary));
  }
  static void check_poison(const Slot& s) {
    for (unsigned char c : s.canary) {
      INTOX_INVARIANT(c == kSlabPoisonByte,
                      "slab poison canary overwritten (use-after-free "
                      "through a raw reference): got 0x%02x", c);
    }
  }
#else
  static void poison(Slot&) {}
  static void check_poison(const Slot&) {}
#endif

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::size_t free_count_ = 0;
  std::size_t live_count_ = 0;

  // Test-only seam: the poisoning tests scribble over a released slot's
  // canary to prove the reuse check trips.
  friend class SlabPoolTestPeer;
};

}  // namespace intox::sim
