// Property tests for the link model: conservation, ordering, and latency
// bounds across a grid of configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <tuple>
#include <vector>

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

// The reference delivery model: one schedule_at per transmitted packet,
// at its arrival, made at transmit time. Drop-tail only (no tap, RED or
// outage), with sim::Link's arithmetic.
class EagerLink {
 public:
  EagerLink(Scheduler& sched, LinkConfig config, Link::Sink deliver)
      : sched_(sched), config_(config), deliver_(std::move(deliver)) {}

  void transmit(net::Packet pkt) {
    const Time now = sched_.now();
    const double backlog =
        next_free_ <= now
            ? 0.0
            : to_seconds(next_free_ - now) * config_.rate_bps / 8.0;
    if (backlog + pkt.size_bytes() >
        static_cast<double>(config_.queue_limit_bytes)) {
      return;
    }
    const auto serialization = static_cast<Duration>(
        static_cast<double>(pkt.size_bytes()) * 8.0 / config_.rate_bps *
        static_cast<double>(kSecond));
    next_free_ =
        std::max(now, next_free_) + std::max<Duration>(serialization, 1);
    sched_.schedule_at(next_free_ + config_.prop_delay,
                       [this, pkt = std::move(pkt)] { deliver_(pkt); });
  }

 private:
  Scheduler& sched_;
  LinkConfig config_;
  Link::Sink deliver_;
  Time next_free_ = 0;
};

struct Send {
  Time at;
  int link;
  std::uint32_t payload;
};

// (time, link or -1 for a timer, packet tag or timer number)
using LogEntry = std::tuple<Time, int, std::uint64_t>;
// arrivals[link][tag]: a packet's delivery instant, -1 if it was dropped.
using Arrivals = std::vector<std::vector<Time>>;

// Link 0 forwards into link 1, a long pipe; link 2 is overloaded and
// drops.
constexpr int kLinks = 4;
const std::array<LinkConfig, kLinks> kTrafficLinks{{
    {.rate_bps = 100e6, .prop_delay = kMillisecond,
     .queue_limit_bytes = 64 * 1024},
    {.rate_bps = 1e9, .prop_delay = 20 * kMillisecond},
    {.rate_bps = 10e6, .prop_delay = 5 * kMillisecond,
     .queue_limit_bytes = 8 * 1024},
    {.rate_bps = 10e9, .prop_delay = 2 * kMillisecond + 7},
}};

std::vector<Send> make_traffic(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Send> sends;
  Time t = 0;
  for (int i = 0; i < 4000; ++i) {
    // Bursts: a quarter of the packets leave at the previous one's
    // instant.
    if (rng.bernoulli(0.75)) t += rng.exp_duration(20 * kMicrosecond);
    const int link = std::array{0, 2, 3}[rng.uniform_int(0, 2)];
    const auto payload = static_cast<std::uint32_t>(rng.uniform_int(12, 1472));
    sends.push_back(Send{t, link, payload});
  }
  return sends;
}

// Runs `sends` over kTrafficLinks and logs every delivery. With
// `arrivals` from an earlier run it also places timers at packets' exact
// arrival instants, scheduled just before and just after each packet's
// transmit (each with probability 0.3); without, it records the arrivals
// into `record`.
template <typename LinkT>
std::vector<LogEntry> run_traffic(const std::vector<Send>& sends,
                                  const Arrivals* arrivals,
                                  Arrivals* record) {
  Scheduler sched;
  Rng rng{7};
  std::vector<LogEntry> log;
  std::uint64_t timers = 0;
  auto timer_at = [&](int link, std::uint64_t tag) {
    if (arrivals == nullptr || !rng.bernoulli(0.3)) return;
    const Time at = (*arrivals)[static_cast<std::size_t>(link)][tag];
    if (at < 0) return;
    sched.schedule_at(at, [&log, &sched, n = timers++] {
      log.emplace_back(sched.now(), -1, n);
    });
  };
  std::vector<std::unique_ptr<LinkT>> links;
  auto transmit = [&](int link, net::Packet p) {
    const std::uint64_t tag = p.flow_tag;
    timer_at(link, tag);
    links[static_cast<std::size_t>(link)]->transmit(std::move(p));
    timer_at(link, tag);
  };
  for (int i = 0; i < kLinks; ++i) {
    links.push_back(std::make_unique<LinkT>(
        sched, kTrafficLinks[static_cast<std::size_t>(i)],
        [&, i](net::Packet p) {
          log.emplace_back(sched.now(), i, p.flow_tag);
          if (record != nullptr) {
            (*record)[static_cast<std::size_t>(i)][p.flow_tag] = sched.now();
          }
          if (i == 0) transmit(1, std::move(p));
        }));
  }
  for (std::size_t tag = 0; tag < sends.size(); ++tag) {
    const Send& send = sends[tag];
    sched.schedule_at(send.at, [&transmit, send, tag] {
      transmit(send.link, make_pkt(tag, send.payload));
    });
  }
  sched.run();
  return log;
}

TEST(LinkDeliveryOrder, MatchesOneEventPerPacketAtEveryInstant) {
  // sim::Link keeps only its head packet's delivery in the scheduler and
  // arms each next one under the ticket reserved at its transmit. Every
  // delivery must still fire at the (time, sequence) an eager
  // schedule_at at transmit time gives it: after a timer at the same
  // instant scheduled before its transmit, and before one scheduled
  // after.
  for (const std::uint64_t seed : {1, 2, 3}) {
    const std::vector<Send> sends = make_traffic(seed);
    Arrivals arrivals(kLinks, std::vector<Time>(sends.size(), -1));
    run_traffic<EagerLink>(sends, nullptr, &arrivals);

    const auto eager = run_traffic<EagerLink>(sends, &arrivals, nullptr);
    const auto lazy = run_traffic<Link>(sends, &arrivals, nullptr);
    ASSERT_EQ(eager.size(), lazy.size()) << "seed " << seed;
    EXPECT_EQ(eager, lazy) << "seed " << seed;

    // The traffic must exercise what the test is about: a timer and a
    // delivery firing at one instant, and drops, which take no ticket.
    auto is_timer = [](const LogEntry& e) { return std::get<1>(e) < 0; };
    std::size_t shared_instants = 0;
    for (std::size_t i = 1; i < eager.size(); ++i) {
      if (std::get<0>(eager[i - 1]) == std::get<0>(eager[i]) &&
          is_timer(eager[i - 1]) != is_timer(eager[i])) {
        ++shared_instants;
      }
    }
    EXPECT_GT(shared_instants, 1000u) << "seed " << seed;
    std::size_t dropped = 0;
    for (std::size_t tag = 0; tag < sends.size(); ++tag) {
      if (sends[tag].link == 2 && arrivals[2][tag] < 0) ++dropped;
    }
    EXPECT_GT(dropped, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace intox::sim
