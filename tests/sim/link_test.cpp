#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "sim/network.hpp"

namespace intox::sim {
namespace {

net::Packet make_packet(std::uint32_t payload = 1000) {
  net::Packet p;
  p.src = net::Ipv4Addr{1, 0, 0, 1};
  p.dst = net::Ipv4Addr{2, 0, 0, 1};
  p.l4 = net::UdpHeader{1000, 2000};
  p.payload_bytes = payload;
  return p;
}

TEST(Link, DeliversWithSerializationPlusPropagation) {
  Scheduler s;
  Time arrival = -1;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = millis(1);
  Link link{s, cfg, [&](net::Packet) { arrival = s.now(); }};

  auto p = make_packet(972);  // 1000 bytes total with headers
  link.transmit(p);
  s.run();
  // 1000 B at 1 B/us = 1 ms serialization + 1 ms propagation.
  EXPECT_EQ(arrival, millis(2));
}

TEST(Link, BackToBackPacketsQueue) {
  Scheduler s;
  std::vector<Time> arrivals;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 0;
  Link link{s, cfg, [&](net::Packet) { arrivals.push_back(s.now()); }};

  link.transmit(make_packet(972));
  link.transmit(make_packet(972));
  s.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], millis(1));
  EXPECT_EQ(arrivals[1], millis(2));  // second waits for the first
}

TEST(Link, DropTailWhenQueueFull) {
  Scheduler s;
  int delivered = 0;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.queue_limit_bytes = 2500;
  Link link{s, cfg, [&](net::Packet) { ++delivered; }};

  for (int i = 0; i < 5; ++i) link.transmit(make_packet(972));
  s.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.counters().dropped_queue, 3u);
  EXPECT_EQ(link.counters().tx_packets, 5u);
}

TEST(Link, RedStreamsAreDecorrelatedAcrossLinks) {
  // Regression: every link used to seed its RED RNG from the same
  // constant (0x51ed), so two links with identical backlogs dropped the
  // *same* packets in lockstep — correlated loss across a topology that
  // the experiments model as independent. Links now fork the seed with
  // a scheduler-assigned stream ordinal.
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 0;
  cfg.queue_limit_bytes = 1 << 20;
  cfg.red_min_bytes = 1;       // RED active from the first queued byte
  cfg.red_max_bytes = 200000;  // gentle ramp: drops stay probabilistic
  cfg.red_max_prob = 0.5;

  auto run_pair = [&cfg] {
    Scheduler s;
    std::vector<int> got_a, got_b;
    Link a{s, cfg, [&](net::Packet) { got_a.push_back(1); }};
    Link b{s, cfg, [&](net::Packet) { got_b.push_back(1); }};
    // Identical arrival schedules: both links see the same offered load
    // at the same instants, so under the old correlated seeding their
    // drop sequences were identical.
    for (int i = 0; i < 200; ++i) {
      a.transmit(make_packet(972));
      b.transmit(make_packet(972));
    }
    s.run();
    return std::tuple{got_a.size(), got_b.size(), a.counters().dropped_red,
                      b.counters().dropped_red};
  };

  const auto [da, db, ra, rb] = run_pair();
  EXPECT_GT(ra, 0u) << "RED never fired; the test load is too light";
  EXPECT_GT(rb, 0u);
  // Decorrelated streams: with 200 Bernoulli decisions per link the
  // probability of identical drop *counts* by chance is small, and of
  // identical sequences essentially zero. Seeds are fixed, so this is a
  // deterministic assertion, not a flaky one: these exact streams
  // differ.
  EXPECT_NE(ra, rb)
      << "two same-config links produced identical RED drop sequences";

  // And the fix must not cost reproducibility: an identical topology
  // built again draws the identical per-link streams.
  const auto [da2, db2, ra2, rb2] = run_pair();
  EXPECT_EQ(da, da2);
  EXPECT_EQ(db, db2);
  EXPECT_EQ(ra, ra2);
  EXPECT_EQ(rb, rb2);
}

TEST(Link, ExplicitRedSeedStillSelectsTheStream) {
  // Scenarios that pick distinct seeds per link (pcc/experiment.cpp)
  // keep that control: changing the base seed changes the stream.
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 0;
  cfg.queue_limit_bytes = 1 << 20;
  cfg.red_min_bytes = 1;
  cfg.red_max_bytes = 200000;
  cfg.red_max_prob = 0.5;

  auto drops_with_seed = [&cfg](std::uint64_t seed) {
    Scheduler s;
    LinkConfig c = cfg;
    c.red_seed = seed;
    int delivered = 0;
    Link link{s, c, [&](net::Packet) { ++delivered; }};
    for (int i = 0; i < 200; ++i) link.transmit(make_packet(972));
    s.run();
    return link.counters().dropped_red;
  };

  const auto a = drops_with_seed(1);
  const auto b = drops_with_seed(2);
  EXPECT_EQ(a, drops_with_seed(1));  // deterministic per seed
  EXPECT_NE(a, b);                   // seed still matters
}

TEST(Link, DownLinkLosesEverything) {
  Scheduler s;
  int delivered = 0;
  Link link{s, {}, [&](net::Packet) { ++delivered; }};
  link.set_up(false);
  link.transmit(make_packet());
  s.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.counters().dropped_down, 1u);
  link.set_up(true);
  link.transmit(make_packet());
  s.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Link, TapCanDropAndMutate) {
  Scheduler s;
  std::vector<net::Packet> got;
  Link link{s, {}, [&](net::Packet p) { got.push_back(std::move(p)); }};

  int seen = 0;
  link.set_tap([&](net::Packet& p) {
    ++seen;
    if (seen % 2 == 0) return TapAction::kDrop;
    p.ttl = 7;  // MitM mutation
    return TapAction::kForward;
  });
  link.transmit(make_packet());
  link.transmit(make_packet());
  link.transmit(make_packet());
  s.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].ttl, 7);
  EXPECT_EQ(link.counters().dropped_tap, 1u);
}

TEST(Link, BacklogReportsQueuedBytes) {
  Scheduler s;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  Link link{s, cfg, [](net::Packet) {}};
  EXPECT_DOUBLE_EQ(link.backlog_bytes(), 0.0);
  link.transmit(make_packet(972));
  EXPECT_NEAR(link.backlog_bytes(), 1000.0, 1.0);
}

TEST(Link, DeliversInSendOrderWhileTheSinkRefillsAWrappedRing) {
  // The in-flight ring doubles when full. Every delivery re-enters
  // transmit() on the same link with two packets, so the in-flight
  // count climbs past 16 and then 64 after the head has left slot 0:
  // each of those growths unwraps a wrapped ring.
  Scheduler s;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // one 1000-byte packet per millisecond
  std::uint64_t sent = 0;
  std::uint64_t most_in_flight = 0;
  std::vector<std::uint64_t> got;
  auto tagged = [&sent] {
    net::Packet p = make_packet(972);
    p.flow_tag = sent++;
    return p;
  };
  Link link{s, cfg, [&](net::Packet p) {
              got.push_back(p.flow_tag);
              for (int i = 0; i < 2 && sent < 200; ++i) {
                link.transmit(tagged());
              }
              most_in_flight = std::max(most_in_flight, sent - got.size());
            }};

  for (int i = 0; i < 8; ++i) link.transmit(tagged());
  s.run();

  EXPECT_GT(most_in_flight, 64u);
  std::vector<std::uint64_t> in_send_order(sent);
  std::iota(in_send_order.begin(), in_send_order.end(), std::uint64_t{0});
  EXPECT_EQ(got, in_send_order);  // each tag once, oldest first
  EXPECT_EQ(link.counters().delivered_packets, sent);
}

TEST(Link, KeepsOneSchedulerEventWhileABacklogDrains) {
  // In-flight packets wait in the ring; only the head's delivery is a
  // scheduler event, and each delivery arms the next.
  Scheduler s;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = millis(20);
  cfg.queue_limit_bytes = 1 << 20;
  std::vector<std::uint64_t> got;
  Link link{s, cfg, [&](net::Packet p) { got.push_back(p.flow_tag); }};
  for (std::uint64_t tag = 0; tag < 100; ++tag) {
    net::Packet p = make_packet(972);
    p.flow_tag = tag;
    link.transmit(p);
    ASSERT_EQ(s.pending(), 1u);
  }
  for (std::size_t delivered = 1; delivered <= 100; ++delivered) {
    ASSERT_EQ(s.run(1), 1u);
    ASSERT_EQ(got.size(), delivered);
    EXPECT_EQ(s.pending(), delivered < 100 ? 1u : 0u);
  }
  std::vector<std::uint64_t> in_send_order(100);
  std::iota(in_send_order.begin(), in_send_order.end(), std::uint64_t{0});
  EXPECT_EQ(got, in_send_order);
  EXPECT_EQ(s.now(), millis(120));  // 100 x 1 ms serialization + 20 ms
}

TEST(Link, SinkRefillingTheRingItJustEmptiedGetsItsPacketDelivered) {
  // The delivery of the ring's last packet arms nothing; the sink's
  // transmit then finds an idle link and schedules its delivery afresh.
  Scheduler s;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = millis(1);
  std::vector<std::pair<std::uint64_t, Time>> got;
  std::size_t pending_in_sink = 99;
  Link link{s, cfg, [&](net::Packet p) {
              got.emplace_back(p.flow_tag, s.now());
              if (p.flow_tag == 0) {
                pending_in_sink = s.pending();
                p.flow_tag = 1;
                link.transmit(p);
              }
            }};
  link.transmit(make_packet(972));
  s.run();
  EXPECT_EQ(pending_in_sink, 0u);
  // 1 ms serialization + 1 ms propagation, twice.
  EXPECT_EQ(got, (std::vector<std::pair<std::uint64_t, Time>>{
                     {0, millis(2)}, {1, millis(4)}}));
  EXPECT_EQ(link.counters().delivered_packets, 2u);
}

class EchoNode : public Node {
 public:
  using Node::Node;
  void receive(net::Packet pkt, int port) override {
    received.push_back({std::move(pkt), port});
  }
  std::vector<std::pair<net::Packet, int>> received;
  void fire(int port, net::Packet p) { send(port, std::move(p)); }
};

TEST(Network, DuplexWiringDeliversBothWays) {
  Scheduler s;
  Network net{s};
  EchoNode a{"a"}, b{"b"};
  net.connect(a, 0, b, 0, LinkConfig{});

  a.fire(0, make_packet());
  b.fire(0, make_packet());
  s.run();
  ASSERT_EQ(a.received.size(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 0);  // ingress port as wired
}

TEST(Network, SendOnUnwiredPortIsSilentDrop) {
  Scheduler s;
  EchoNode a{"a"};
  a.fire(3, make_packet());  // no link attached
  s.run();
  EXPECT_TRUE(a.received.empty());
}

}  // namespace
}  // namespace intox::sim
