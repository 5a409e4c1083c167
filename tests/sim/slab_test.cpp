// SlabPool tests: freelist reuse, generation-tagged stale-handle
// detection, and (in poisoned builds — Debug / the sanitizer presets)
// reuse-after-free canary checking.
#include "sim/slab.hpp"

#include <gtest/gtest.h>

#include <string>

#include "validate/invariant.hpp"

namespace intox::sim {

class SlabPoolTestPeer {
 public:
  template <typename T>
  static void scribble_canary(SlabPool<T>& pool, std::uint32_t idx) {
#if !defined(NDEBUG)
    pool.slots_[idx].canary[0] = 0x42;
#else
    (void)pool;
    (void)idx;
#endif
  }
  template <typename T>
  static unsigned char canary_byte(const SlabPool<T>& pool,
                                   std::uint32_t idx) {
#if !defined(NDEBUG)
    return pool.slots_[idx].canary[0];
#else
    (void)pool;
    (void)idx;
    return 0;
#endif
  }
};

namespace {

struct Probe {
  int value = 0;
  std::string tag;  // non-trivial payload: reuse must see it reset
};

TEST(SlabPool, AllocateGrowsThenReusesFreedSlotsLifo) {
  SlabPool<Probe> pool;
  const auto a = pool.allocate();
  const auto b = pool.allocate();
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.capacity(), 2u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.free_slots(), 2u);
  // LIFO: the most recently freed slot comes back first, no growth.
  const auto c = pool.allocate();
  EXPECT_EQ(c.index, b.index);
  const auto d = pool.allocate();
  EXPECT_EQ(d.index, a.index);
  EXPECT_EQ(pool.capacity(), 2u);
}

TEST(SlabPool, ReleaseResetsPayloadBeforeReuse) {
  SlabPool<Probe> pool;
  const auto h = pool.allocate();
  pool[h].value = 41;
  pool[h].tag = "previous tenant";
  pool.release(h);
  const auto h2 = pool.allocate();
  ASSERT_EQ(h2.index, h.index);
  EXPECT_EQ(pool[h2].value, 0);
  EXPECT_TRUE(pool[h2].tag.empty());
}

TEST(SlabPool, StaleHandleIsRefusedAfterReuse) {
  SlabPool<Probe> pool;
  const auto old_h = pool.allocate();
  pool.release(old_h);
  EXPECT_EQ(pool.get(old_h), nullptr);
  const auto new_h = pool.allocate();
  ASSERT_EQ(new_h.index, old_h.index);
  EXPECT_NE(new_h.generation, old_h.generation);
  // The stale handle must not alias the new tenant.
  EXPECT_EQ(pool.get(old_h), nullptr);
  EXPECT_NE(pool.get(new_h), nullptr);
}

TEST(SlabPool, DoubleReleaseIsCaught) {
  SlabPool<Probe> pool;
  const auto h = pool.allocate();
  pool.release(h);
  EXPECT_THROW(pool.release(h), validate::InvariantError);
}

TEST(SlabPool, CheckedAccessThroughStaleHandleIsCaught) {
  SlabPool<Probe> pool;
  const auto h = pool.allocate();
  pool.release(h);
  EXPECT_THROW((void)pool[h], validate::InvariantError);
}

TEST(SlabPoolPoison, ReleasedSlotCarriesTheCanary) {
#if defined(NDEBUG)
  GTEST_SKIP() << "poisoning is compiled out (NDEBUG build)";
#else
  SlabPool<Probe> pool;
  const auto h = pool.allocate();
  pool.release(h);
  EXPECT_EQ(SlabPoolTestPeer::canary_byte(pool, h.index), kSlabPoisonByte);
#endif
}

TEST(SlabPoolPoison, ScribbledCanaryIsCaughtOnReuse) {
#if defined(NDEBUG)
  GTEST_SKIP() << "poisoning is compiled out (NDEBUG build)";
#else
  // Simulates a use-after-free through a raw reference: something wrote
  // over a released slot. The next allocation of that slot must trip the
  // canary check instead of handing out plausible stale state.
  SlabPool<Probe> pool;
  const auto h = pool.allocate();
  pool.release(h);
  SlabPoolTestPeer::scribble_canary(pool, h.index);
  EXPECT_THROW(pool.allocate(), validate::InvariantError);
#endif
}

}  // namespace
}  // namespace intox::sim
