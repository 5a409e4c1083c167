// Property tests for the link model: conservation, ordering, and latency
// bounds across a grid of configurations.
#include <gtest/gtest.h>

#include "sim/link.hpp"
#include "sim/rng.hpp"

namespace intox::sim {
namespace {

struct LinkParam {
  double rate_bps;
  Duration prop_delay;
  std::uint32_t queue_limit;
  std::uint32_t red_min;  // 0 = no RED
};

// Names the ctest entries (`…/1Mbps_1000us_queue16384_red0`) instead
// of gtest's default byte dump.
void PrintTo(const LinkParam& param, std::ostream* os) {
  *os << param.rate_bps / 1e6 << "Mbps_" << param.prop_delay / kMicrosecond
      << "us_queue" << param.queue_limit << "_red" << param.red_min;
}

class LinkProperties : public ::testing::TestWithParam<LinkParam> {};

net::Packet make_pkt(std::uint64_t tag, std::uint32_t payload) {
  net::Packet p;
  p.src = net::Ipv4Addr{1, 0, 0, 1};
  p.dst = net::Ipv4Addr{2, 0, 0, 1};
  p.l4 = net::UdpHeader{1, 2};
  p.payload_bytes = payload;
  p.flow_tag = tag;
  return p;
}

TEST_P(LinkProperties, ConservationAndFifoAndLatencyBound) {
  const LinkParam param = GetParam();
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate_bps = param.rate_bps;
  cfg.prop_delay = param.prop_delay;
  cfg.queue_limit_bytes = param.queue_limit;
  cfg.red_min_bytes = param.red_min;
  cfg.red_max_bytes = param.queue_limit;
  cfg.red_max_prob = 0.3;

  std::vector<std::uint64_t> delivered_tags;
  std::vector<Time> sent_at(2000, -1);
  Time min_latency_violations = 0;
  Link link{sched, cfg, [&](net::Packet p) {
              delivered_tags.push_back(p.flow_tag);
              const Time latency =
                  sched.now() - sent_at[static_cast<std::size_t>(p.flow_tag)];
              if (latency < cfg.prop_delay) ++min_latency_violations;
            }};

  Rng rng{99};
  std::uint64_t tag = 0;
  // Bursty offered load around 2x capacity.
  for (int burst = 0; burst < 100; ++burst) {
    const auto burst_size = static_cast<int>(rng.uniform_int(1, 8));
    sched.schedule_at(burst * kMillisecond, [&, burst_size] {
      for (int i = 0; i < burst_size && tag < 2000; ++i) {
        sent_at[static_cast<std::size_t>(tag)] = sched.now();
        link.transmit(make_pkt(tag, 1000));
        ++tag;
      }
    });
  }
  sched.run();

  const auto& c = link.counters();
  // Conservation: everything offered is accounted exactly once.
  EXPECT_EQ(c.tx_packets, c.delivered_packets + c.dropped_queue +
                              c.dropped_red + c.dropped_tap + c.dropped_down);
  EXPECT_EQ(delivered_tags.size(), c.delivered_packets);

  // FIFO: delivered tags are strictly increasing (no reordering).
  for (std::size_t i = 1; i < delivered_tags.size(); ++i) {
    EXPECT_LT(delivered_tags[i - 1], delivered_tags[i]);
  }

  // Latency >= propagation delay, always.
  EXPECT_EQ(min_latency_violations, 0);
}

TEST_P(LinkProperties, TapSeesEveryOfferedPacket) {
  const LinkParam param = GetParam();
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate_bps = param.rate_bps;
  cfg.prop_delay = param.prop_delay;
  cfg.queue_limit_bytes = param.queue_limit;

  std::uint64_t tapped = 0;
  Link link{sched, cfg, [](net::Packet) {}};
  link.set_tap([&](net::Packet&) {
    ++tapped;
    return TapAction::kForward;
  });
  for (int i = 0; i < 500; ++i) link.transmit(make_pkt(i, 500));
  sched.run();
  EXPECT_EQ(tapped, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LinkProperties,
    ::testing::Values(LinkParam{1e6, kMillisecond, 16 * 1024, 0},
                      LinkParam{10e6, 10 * kMillisecond, 64 * 1024, 0},
                      LinkParam{100e6, kMicrosecond, 8 * 1024, 0},
                      LinkParam{10e6, 5 * kMillisecond, 32 * 1024, 8 * 1024},
                      LinkParam{1e9, kMillisecond, 256 * 1024, 64 * 1024}));

}  // namespace
}  // namespace intox::sim
