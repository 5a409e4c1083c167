// Property sweeps over the probabilistic structures: Bloom FPR tracks
// theory across dimensionings; FlowRadar decodes exactly below its
// threshold; LossRadar recovers arbitrary loss sets that fit.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/hash.hpp"
#include "sim/rng.hpp"
#include "sketch/flowradar.hpp"
#include "sketch/lossradar.hpp"

namespace intox::sketch {
namespace {

struct BloomParam {
  std::size_t cells;
  std::uint32_t hashes;
  std::uint64_t inserted;
};

// Names the ctest entries (`…/cells1024_hashes2_keys100`); gtest's
// default byte dump would include the struct's uninitialized padding.
void PrintTo(const BloomParam& param, std::ostream* os) {
  *os << "cells" << param.cells << "_hashes" << param.hashes << "_keys"
      << param.inserted;
}

class BloomProperties : public ::testing::TestWithParam<BloomParam> {};

TEST_P(BloomProperties, NoFalseNegativesEver) {
  const auto p = GetParam();
  BloomFilter f{p.cells, p.hashes, 3};
  for (std::uint64_t i = 0; i < p.inserted; ++i) f.insert(net::mix64(i));
  for (std::uint64_t i = 0; i < p.inserted; ++i) {
    ASSERT_TRUE(f.contains(net::mix64(i))) << i;
  }
}

TEST_P(BloomProperties, EmpiricalFprWithinTheoryBand) {
  const auto p = GetParam();
  BloomFilter f{p.cells, p.hashes, 3};
  for (std::uint64_t i = 0; i < p.inserted; ++i) f.insert(net::mix64(i));
  const double theory = bloom_theoretical_fpr(p.cells, p.hashes, p.inserted);
  const double measured = bloom_empirical_fpr(f, 30000);
  // Allow 3-sigma binomial noise plus 20% model slack.
  const double sigma = std::sqrt(std::max(theory, 1e-4) / 30000.0);
  EXPECT_NEAR(measured, theory, 0.2 * theory + 3.0 * sigma + 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Dimensionings, BloomProperties,
    ::testing::Values(BloomParam{1024, 2, 100}, BloomParam{1024, 4, 100},
                      BloomParam{4096, 4, 400}, BloomParam{4096, 6, 400},
                      BloomParam{16384, 4, 2000}, BloomParam{512, 3, 200}));

class FlowRadarProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlowRadarProperties, DecodesExactlyBelowThreshold) {
  const std::size_t flows = GetParam();
  FlowRadarConfig cfg;
  cfg.table_cells = 1023;  // 3 partitions of 341
  FlowRadar radar{cfg};
  sim::Rng rng{flows};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> truth;  // flow, pkts
  for (std::size_t i = 0; i < flows; ++i) {
    const std::uint64_t flow = net::mix64(1000 + i);
    const std::uint64_t pkts = rng.uniform_int(1, 9);
    truth.push_back({flow, pkts});
    for (std::uint64_t p = 0; p < pkts; ++p) radar.add_packet(flow);
  }
  const DecodeResult result = radar.decode();
  ASSERT_TRUE(result.complete()) << flows << " flows";
  ASSERT_EQ(result.flows.size(), truth.size());

  auto sorted = result.flows;
  std::sort(sorted.begin(), sorted.end(),
            [](const DecodedFlow& a, const DecodedFlow& b) {
              return a.flow < b.flow;
            });
  std::sort(truth.begin(), truth.end());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(sorted[i].flow, truth[i].first);
    EXPECT_EQ(sorted[i].packets, truth[i].second);
  }
}

TEST_P(FlowRadarProperties, DecodeIsNonDestructive) {
  FlowRadarConfig cfg;
  cfg.table_cells = 1023;
  FlowRadar radar{cfg};
  for (std::size_t i = 0; i < GetParam(); ++i) {
    radar.add_packet(net::mix64(i));
  }
  const auto first = radar.decode();
  const auto second = radar.decode();
  EXPECT_EQ(first.flows.size(), second.flows.size());
  EXPECT_EQ(first.stuck_cells, second.stuck_cells);
}

INSTANTIATE_TEST_SUITE_P(Loads, FlowRadarProperties,
                         ::testing::Values(10, 50, 150, 250, 350));

class LossRadarProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LossRadarProperties, RecoversArbitraryLossSets) {
  const std::size_t losses = GetParam();
  LossRadarConfig cfg;
  cfg.cells = 513;  // 3 partitions of 171; threshold ~ 400
  LossRadar up{cfg}, down{cfg};
  sim::Rng rng{losses * 13 + 1};
  std::vector<std::uint64_t> lost;
  for (std::uint64_t i = 1; i <= 3000; ++i) {
    const std::uint64_t id = net::mix64(i);
    up.add(id);
    if (lost.size() < losses && rng.bernoulli(0.2)) {
      lost.push_back(id);
    } else {
      down.add(id);
    }
  }
  auto result = up.diff_decode(down);
  ASSERT_TRUE(result.complete());
  std::sort(result.lost.begin(), result.lost.end());
  std::sort(lost.begin(), lost.end());
  EXPECT_EQ(result.lost, lost);
}

INSTANTIATE_TEST_SUITE_P(LossCounts, LossRadarProperties,
                         ::testing::Values(0, 1, 10, 60, 150));

}  // namespace
}  // namespace intox::sketch
