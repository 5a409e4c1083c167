// Blink flow-selector invariants under random traffic, across cell
// counts and hash seeds.
#include <gtest/gtest.h>

#include <set>

#include "blink/flow_selector.hpp"
#include "sim/rng.hpp"

namespace intox::blink {
namespace {

struct SelectorParam {
  std::size_t cells;
  std::uint32_t seed;
};

// Names the ctest entries (`…/cells16_seed0`); gtest's default byte
// dump would include the struct's uninitialized padding.
void PrintTo(const SelectorParam& param, std::ostream* os) {
  *os << "cells" << param.cells << "_seed" << param.seed;
}

class SelectorProperties : public ::testing::TestWithParam<SelectorParam> {};

net::FiveTuple random_tuple(sim::Rng& rng) {
  net::FiveTuple t;
  t.src =
      net::Ipv4Addr{static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 24))};
  t.dst = net::Ipv4Addr{10, 0, 0, 1};
  t.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  t.dst_port = 80;
  return t;
}

TEST_P(SelectorProperties, InvariantsUnderRandomTraffic) {
  const auto param = GetParam();
  BlinkConfig cfg;
  cfg.cells = param.cells;
  cfg.hash_seed = param.seed;
  FlowSelector sel{cfg};
  sim::Rng rng{param.seed + 1};

  // A pool of flows, each sending at random times with random seqs.
  std::vector<net::FiveTuple> pool;
  for (int i = 0; i < 200; ++i) pool.push_back(random_tuple(rng));

  sim::Time now = 0;
  for (int step = 0; step < 20000; ++step) {
    now += static_cast<sim::Duration>(rng.uniform_int(0, sim::millis(30)));
    const auto& flow = pool[rng.uniform_int(0, pool.size() - 1)];
    const auto seq = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
    const bool fin = rng.bernoulli(0.01);
    sel.observe(flow, 0, seq, fin, now);

    if (step % 1000 == 0) {
      // Invariant 1: occupied count never exceeds the cell count.
      ASSERT_LE(sel.occupied_count(), param.cells);
      // Invariant 2: each occupied cell's flow hashes to its own index.
      for (std::size_t i = 0; i < sel.cell_count(); ++i) {
        const auto cell = sel.cell(i);
        if (!cell.occupied) continue;
        ASSERT_EQ(net::flow_hash(cell.flow, cfg.hash_seed) % param.cells, i);
        // Invariant 3: timestamps are coherent.
        ASSERT_LE(cell.sampled_at, cell.last_seen);
        ASSERT_LE(cell.last_seen, now);
      }
      // Invariant 4: retransmitting count is bounded by occupancy.
      ASSERT_LE(sel.retransmitting_count(now), sel.occupied_count());
    }
  }

  // Invariant 5: residency samples are all non-negative.
  EXPECT_GE(sel.residency_stats().min(), 0.0);

  // Invariant 6: reset leaves nothing behind and counts all evictions.
  const auto evicted_before = sel.residency_stats().count();
  const auto occupied = sel.occupied_count();
  sel.reset(now);
  EXPECT_EQ(sel.occupied_count(), 0u);
  EXPECT_EQ(sel.residency_stats().count(), evicted_before + occupied);
}

TEST_P(SelectorProperties, MonitoredFlowIsAlwaysTheCellOccupant) {
  const auto param = GetParam();
  BlinkConfig cfg;
  cfg.cells = param.cells;
  cfg.hash_seed = param.seed;
  FlowSelector sel{cfg};
  sim::Rng rng{param.seed + 2};

  for (int step = 0; step < 5000; ++step) {
    const auto flow = random_tuple(rng);
    const sim::Time now = step * sim::millis(10);
    const auto v = sel.observe(flow, 7, 1, false, now);
    if (v.monitored) {
      const std::size_t idx =
          net::flow_hash(flow, cfg.hash_seed) % param.cells;
      EXPECT_TRUE(sel.cell(idx).occupied);
      EXPECT_EQ(sel.cell(idx).flow, flow);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SelectorProperties,
    ::testing::Values(SelectorParam{16, 0}, SelectorParam{64, 0},
                      SelectorParam{64, 7}, SelectorParam{256, 1},
                      SelectorParam{31, 5}));

}  // namespace
}  // namespace intox::blink
