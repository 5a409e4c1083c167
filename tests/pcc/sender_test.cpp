// PccSender unit tests over an ideal (lossless, fixed-delay) path.
#include "pcc/sender.hpp"

#include <gtest/gtest.h>

#include "pcc/receiver.hpp"
#include "sim/link.hpp"

namespace intox::pcc {
namespace {

struct Loop {
  sim::Scheduler sched;
  PccConfig cfg;
  std::unique_ptr<PccSender> sender;
  std::unique_ptr<PccReceiver> receiver;
  std::unique_ptr<sim::Link> fwd;
  std::unique_ptr<sim::Link> rev;

  explicit Loop(double link_bps = 100e6, double drop_every_nth = 0,
                double max_rate_bps = 1e9) {
    cfg.max_rate_bps = max_rate_bps;
    sim::LinkConfig fc;
    fc.rate_bps = link_bps;
    fc.prop_delay = sim::millis(20);
    sim::LinkConfig rc;
    rc.rate_bps = 1e9;
    rc.prop_delay = sim::millis(20);

    rev = std::make_unique<sim::Link>(sched, rc, [this](net::Packet a) {
      sender->on_ack(static_cast<std::uint32_t>(a.flow_tag), sched.now());
    });
    receiver = std::make_unique<PccReceiver>(
        [this](net::Packet a) { rev->transmit(std::move(a)); });
    fwd = std::make_unique<sim::Link>(sched, fc, [this](net::Packet d) {
      receiver->on_data(d);
    });
    if (drop_every_nth > 0) {
      fwd->set_tap([this, drop_every_nth](net::Packet&) {
        return (++tap_count_ % static_cast<int>(drop_every_nth)) == 0
                   ? sim::TapAction::kDrop
                   : sim::TapAction::kForward;
      });
    }
    net::FiveTuple t{net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{2, 2, 2, 2},
                     10000, 443, net::IpProto::kUdp};
    sender = std::make_unique<PccSender>(
        sched, cfg, t, [this](net::Packet p) { fwd->transmit(std::move(p)); });
  }

  int tap_count_ = 0;
};

TEST(PccSender, StartingPhaseGrowsRate) {
  Loop loop;
  loop.sender->start();
  loop.sched.run_until(sim::seconds(3));
  loop.sender->stop();
  // From 2 Mbps, a few doublings must have happened on a clean 100 Mbps path.
  EXPECT_GT(loop.sender->rate_bps(), 8e6);
}

TEST(PccSender, TracksRttFromAcks) {
  Loop loop;
  loop.sender->start();
  loop.sched.run_until(sim::seconds(3));
  loop.sender->stop();
  // 40 ms RTT path (20 ms each way) plus serialization.
  EXPECT_NEAR(loop.sender->smoothed_rtt_seconds(), 0.040, 0.01);
}

TEST(PccSender, MonitorIntervalsAccountPackets) {
  Loop loop;
  loop.sender->start();
  loop.sched.run_until(sim::seconds(5));
  loop.sender->stop();
  ASSERT_GT(loop.sender->history().size(), 10u);
  for (const auto& mi : loop.sender->history()) {
    EXPECT_GE(mi.sent, mi.acked);
    EXPECT_GE(mi.end, mi.start);
  }
}

TEST(PccSender, LosslessPathMeansZeroMeasuredLoss) {
  // Cap the sender below the link rate so probing can never saturate the
  // queue: the path is then genuinely lossless.
  Loop loop{100e6, 0, /*max_rate_bps=*/40e6};
  loop.sender->start();
  loop.sched.run_until(sim::seconds(5));
  loop.sender->stop();
  // Skip the first few MIs (rate far below link, nothing queued): all
  // should see ~no loss.
  std::size_t lossy = 0;
  for (const auto& mi : loop.sender->history()) {
    if (mi.loss() > 0.02) ++lossy;
  }
  EXPECT_LE(lossy, loop.sender->history().size() / 10);
}

TEST(PccSender, AckLookupsHoldAcrossTheFirstRingRevolution) {
  // The send ring fills in send order. ACKs for sequence numbers not sent
  // yet (slot 0 included) are ignored, and after the ring wraps (~32k
  // packets) a lossless path still sees its ACKs.
  Loop loop{100e6, 0, /*max_rate_bps=*/40e6};
  const double rtt0 = loop.sender->smoothed_rtt_seconds();
  for (std::uint32_t seq : {1u, 2u, 5000u, 32768u, 32769u}) {
    loop.sender->on_ack(seq, sim::seconds(1));
  }
  EXPECT_EQ(loop.sender->smoothed_rtt_seconds(), rtt0);

  loop.sender->start();
  loop.sched.run_until(sim::seconds(20));
  loop.sender->stop();
  ASSERT_GT(loop.fwd->counters().tx_packets, 40000u);
  const auto& h = loop.sender->history();
  std::size_t lossy = 0;
  for (std::size_t i = h.size() / 2; i < h.size(); ++i) {
    if (h[i].loss() > 0.02) ++lossy;
  }
  EXPECT_LE(lossy, h.size() / 20);
}

TEST(PccSender, PersistentLossDetected) {
  Loop loop{100e6, /*drop_every_nth=*/10};
  loop.sender->start();
  loop.sched.run_until(sim::seconds(5));
  loop.sender->stop();
  // Late MIs should measure ~10% loss.
  const auto& h = loop.sender->history();
  ASSERT_GT(h.size(), 10u);
  sim::RunningStats loss;
  for (std::size_t i = h.size() - 5; i < h.size(); ++i) loss.add(h[i].loss());
  EXPECT_NEAR(loss.mean(), 0.10, 0.04);
}

TEST(PccSender, EpsilonBoundedByConfig) {
  Loop loop;
  loop.sender->start();
  loop.sched.run_until(sim::seconds(10));
  loop.sender->stop();
  EXPECT_GE(loop.sender->epsilon(), loop.cfg.epsilon_min);
  EXPECT_LE(loop.sender->epsilon(), loop.cfg.epsilon_max + 1e-12);
}

TEST(PccSender, ExperimentRatesBracketBaseRate) {
  Loop loop;
  loop.sender->start();
  loop.sched.run_until(sim::seconds(10));
  loop.sender->stop();
  bool saw_up = false, saw_down = false;
  for (const auto& mi : loop.sender->history()) {
    saw_up |= mi.phase == MiPhase::kUp;
    saw_down |= mi.phase == MiPhase::kDown;
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
}

TEST(PccSender, StopHaltsTraffic) {
  Loop loop;
  loop.sender->start();
  loop.sched.run_until(sim::seconds(1));
  loop.sender->stop();
  const auto tx = loop.fwd->counters().tx_packets;
  loop.sched.run_until(sim::seconds(2));
  EXPECT_EQ(loop.fwd->counters().tx_packets, tx);
}

}  // namespace
}  // namespace intox::pcc
