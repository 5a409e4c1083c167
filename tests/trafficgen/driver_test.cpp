#include "trafficgen/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "trafficgen/synth.hpp"

namespace intox::trafficgen {
namespace {

FlowSpec legit_spec() {
  FlowSpec f;
  f.id = 1;
  f.tuple = {net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{10, 0, 0, 1}, 5555, 80,
             net::IpProto::kTcp};
  f.start = sim::seconds(1);
  f.duration = sim::seconds(5);
  f.pkt_interval = sim::millis(100);
  return f;
}

TEST(LegitFlowDriver, SendsDuringLifetimeThenFin) {
  sim::Scheduler s;
  std::vector<net::Packet> pkts;
  LegitFlowDriver d{s, sim::Rng{1}, legit_spec(),
                    [&](net::Packet p) { pkts.push_back(std::move(p)); }};
  d.start();
  s.run();
  ASSERT_GT(pkts.size(), 10u);
  EXPECT_TRUE(pkts.back().tcp()->fin);
  for (std::size_t i = 0; i + 1 < pkts.size(); ++i) {
    EXPECT_FALSE(pkts[i].tcp()->fin);
  }
  EXPECT_TRUE(d.finished());
}

TEST(LegitFlowDriver, FreshSequenceNumbersWhenHealthy) {
  sim::Scheduler s;
  std::vector<std::uint32_t> seqs;
  LegitFlowDriver d{s, sim::Rng{2}, legit_spec(),
                    [&](net::Packet p) { seqs.push_back(p.tcp()->seq); }};
  d.start();
  s.run();
  for (std::size_t i = 1; i + 1 < seqs.size(); ++i) {  // skip FIN
    EXPECT_GT(seqs[i], seqs[i - 1]);
  }
}

TEST(LegitFlowDriver, FailureModeRetransmitsWithBackoff) {
  sim::Scheduler s;
  std::vector<std::pair<sim::Time, std::uint32_t>> sent;
  auto spec = legit_spec();
  spec.duration = sim::seconds(100);
  LegitFlowDriver d{s, sim::Rng{3}, spec, [&](net::Packet p) {
                      sent.push_back({s.now(), p.tcp()->seq});
                    }};
  d.start();
  s.run_until(sim::seconds(3));
  const auto healthy_count = sent.size();
  d.enter_failure_mode();
  s.run_until(sim::seconds(3) + sim::seconds(7));  // 1+2+4 = 7s of RTOs
  ASSERT_GE(sent.size(), healthy_count + 3);

  // All post-failure packets carry the same (retransmitted) seq.
  const std::uint32_t frozen = sent[healthy_count].second;
  for (std::size_t i = healthy_count; i < sent.size(); ++i) {
    EXPECT_EQ(sent[i].second, frozen);
  }
  // Inter-retransmit gaps double: 1 s then 2 s then 4 s.
  const auto gap1 = sent[healthy_count + 1].first - sent[healthy_count].first;
  const auto gap2 =
      sent[healthy_count + 2].first - sent[healthy_count + 1].first;
  EXPECT_EQ(gap1, sim::seconds(1));
  EXPECT_EQ(gap2, sim::seconds(2));
}

TEST(LegitFlowDriver, ExitFailureModeResumesFreshSeqs) {
  sim::Scheduler s;
  std::vector<std::uint32_t> seqs;
  auto spec = legit_spec();
  spec.duration = sim::seconds(60);
  LegitFlowDriver d{s, sim::Rng{4}, spec,
                    [&](net::Packet p) { seqs.push_back(p.tcp()->seq); }};
  d.start();
  s.run_until(sim::seconds(2));
  d.enter_failure_mode();
  s.run_until(sim::seconds(5));
  d.exit_failure_mode();
  const auto resumed_at = seqs.size();
  s.run_until(sim::seconds(8));
  ASSERT_GT(seqs.size(), resumed_at + 2);
  EXPECT_GT(seqs.back(), seqs[resumed_at]);
}

TEST(MaliciousFlowDriver, EmitsDuplicatePairsForever) {
  sim::Scheduler s;
  std::map<std::uint32_t, int> seq_counts;
  std::vector<sim::Time> times;
  FlowSpec f;
  f.id = 9;
  f.tuple = {net::Ipv4Addr{6, 6, 6, 6}, net::Ipv4Addr{10, 0, 0, 2}, 6666, 80,
             net::IpProto::kTcp};
  f.start = 0;
  f.pkt_interval = sim::millis(100);
  MaliciousFlowDriver d{s, sim::Rng{5}, f, [&](net::Packet p) {
                          ++seq_counts[p.tcp()->seq];
                          times.push_back(s.now());
                        }};
  d.start();
  s.run_until(sim::seconds(10));
  d.stop();

  EXPECT_GE(seq_counts.size(), 18u);  // ~20 seqs in 10 s at 250 ms spacing
  std::size_t singles = 0;
  for (const auto& [seq, count] : seq_counts) {
    EXPECT_LE(count, 2) << "seq " << seq;
    singles += (count == 1);
  }
  // Every seq is sent exactly twice, except possibly the one in flight
  // when the driver was stopped.
  EXPECT_LE(singles, 1u);
  // Activity gaps never exceed Blink's 2 s eviction timeout.
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i] - times[i - 1], sim::seconds(2));
  }
}

TEST(MaliciousFlowDriver, StopHalts) {
  sim::Scheduler s;
  int count = 0;
  FlowSpec f;
  f.tuple = {net::Ipv4Addr{6, 6, 6, 6}, net::Ipv4Addr{10, 0, 0, 2}, 1, 2,
             net::IpProto::kTcp};
  MaliciousFlowDriver d{s, sim::Rng{6}, f, [&](net::Packet) { ++count; }};
  d.start();
  s.run_until(sim::seconds(2));
  const int at_stop = count;
  d.stop();
  s.run_until(sim::seconds(10));
  EXPECT_EQ(count, at_stop);
}

TEST(FlowPopulation, RunsMixedPopulation) {
  sim::Scheduler s;
  std::uint64_t legit_pkts = 0, bad_pkts = 0;
  FlowPopulation pop{s, sim::Rng{7}, [&](net::Packet p) {
                       if (p.flow_tag >= 1000) {
                         ++bad_pkts;
                       } else {
                         ++legit_pkts;
                       }
                     }};
  for (int i = 0; i < 10; ++i) {
    auto f = legit_spec();
    f.id = static_cast<std::uint64_t>(i);
    f.tuple.src_port = static_cast<std::uint16_t>(10000 + i);
    pop.add_legit(f);
  }
  FlowSpec bad;
  bad.id = 1000;
  bad.tuple = {net::Ipv4Addr{6, 6, 6, 6}, net::Ipv4Addr{10, 0, 0, 9}, 7, 8,
               net::IpProto::kTcp};
  pop.add_malicious(bad);
  EXPECT_EQ(pop.legit_count(), 10u);
  EXPECT_EQ(pop.malicious_count(), 1u);

  pop.start_all();
  s.run_until(sim::seconds(8));
  pop.stop_all();
  EXPECT_GT(legit_pkts, 100u);
  EXPECT_GT(bad_pkts, 10u);
}

// --- FlowPopulation against the eager population it replaced ----------

/// Every driver built at add time from the population's fork and started
/// in add order: FlowPopulation must send exactly these packets.
class EagerPopulation {
 public:
  EagerPopulation(sim::Scheduler& sched, sim::Rng rng, PacketSink sink)
      : sched_(sched), rng_(rng), sink_(std::move(sink)) {}
  void add_legit(const FlowSpec& f) {
    legit_.emplace_back(sched_, rng_.fork(next_fork_++), f, sink_);
  }
  void add_malicious(const FlowSpec& f, MaliciousFlowDriver::Options o) {
    malicious_.emplace_back(sched_, rng_.fork(next_fork_++), f, sink_, o);
  }
  void start_all() {
    for (auto& d : legit_) d.start();
    for (auto& d : malicious_) d.start();
  }
  void fail_all_legit() {
    for (auto& d : legit_) d.enter_failure_mode();
  }
  void stop_all() {
    for (auto& d : legit_) d.stop();
    for (auto& d : malicious_) d.stop();
  }

 private:
  sim::Scheduler& sched_;
  sim::Rng rng_;
  PacketSink sink_;
  std::uint64_t next_fork_ = 0;
  std::deque<LegitFlowDriver> legit_;
  std::deque<MaliciousFlowDriver> malicious_;
};

struct Sent {
  sim::Time time;
  std::uint64_t flow;
  std::uint32_t seq;
  friend bool operator==(const Sent&, const Sent&) = default;
};

constexpr std::uint64_t kBotTagBase = 1'000'000;
constexpr std::uint64_t kMarker = 999'999;

/// A 200-flow trace plus 10 bots over 30 s, legit flows first.
std::vector<FlowSpec> trace_plus_bots() {
  TraceConfig cfg;
  cfg.active_flows = 200;
  cfg.horizon = sim::seconds(30);
  sim::Rng rng{11};
  std::vector<FlowSpec> flows = synthesize_trace(cfg, rng);
  for (const FlowSpec& f :
       synthesize_malicious_flows(cfg, 10, 0, rng, kBotTagBase)) {
    flows.push_back(f);
  }
  return flows;
}

/// Adds `flows` in order to a fresh `Population`, runs `script(sched,
/// pop, log)` and returns the (time, flow tag, TCP seq) of every packet.
template <typename Population, typename Script>
std::vector<Sent> packet_log(const std::vector<FlowSpec>& flows,
                             Script script) {
  sim::Scheduler sched;
  std::vector<Sent> log;
  Population pop{sched, sim::Rng{42}, [&](net::Packet p) {
                   log.push_back({sched.now(), p.flow_tag, p.tcp()->seq});
                 }};
  MaliciousFlowDriver::Options bot;
  bot.send_period = sim::millis(250);
  for (const FlowSpec& f : flows) {
    if (f.malicious) {
      pop.add_malicious(f, bot);
    } else {
      pop.add_legit(f);
    }
  }
  script(sched, pop, log);
  return log;
}

template <typename Script>
std::vector<Sent> expect_same_packets(const std::vector<FlowSpec>& flows,
                                      Script script) {
  const auto eager = packet_log<EagerPopulation>(flows, script);
  auto lazy = packet_log<FlowPopulation>(flows, script);
  EXPECT_FALSE(eager.empty());
  EXPECT_EQ(lazy.size(), eager.size());
  const auto [l, e] = std::mismatch(lazy.begin(), lazy.end(), eager.begin(),
                                    eager.end());
  if (l != lazy.end() && e != eager.end()) {
    ADD_FAILURE() << "packet " << (l - lazy.begin()) << ": lazy (t="
                  << l->time << " flow=" << l->flow << " seq=" << l->seq
                  << ") vs eager (t=" << e->time << " flow=" << e->flow
                  << " seq=" << e->seq << ")";
  }
  return lazy;
}

TEST(FlowPopulation, MatchesEagerOnTracePlusBots) {
  expect_same_packets(trace_plus_bots(), [](sim::Scheduler& s, auto& pop,
                                            std::vector<Sent>&) {
    pop.start_all();
    s.run_until(sim::seconds(30));
    pop.stop_all();
  });
}

TEST(FlowPopulation, ArrivalKeepsItsPlaceAheadOfLaterSameInstantEvents) {
  // An event scheduled after start_all, at exactly a later flow's start,
  // must fire after that flow's first packet: its start event predates
  // it. An arrival chain scheduled with fresh sequence numbers gets
  // this backwards.
  const std::vector<FlowSpec> flows = trace_plus_bots();
  const FlowSpec& later = flows[300];
  ASSERT_GT(later.start, 0);
  const auto log = expect_same_packets(
      flows, [&](sim::Scheduler& s, auto& pop, std::vector<Sent>& log) {
        pop.start_all();
        s.schedule_at(later.start,
                      [&] { log.push_back({s.now(), kMarker, 0}); });
        s.run_until(sim::seconds(30));
        pop.stop_all();
      });
  const auto first = std::find_if(log.begin(), log.end(), [&](const Sent& x) {
    return x.flow == later.id;
  });
  const auto marker = std::find_if(log.begin(), log.end(),
                                   [](const Sent& x) {
                                     return x.flow == kMarker;
                                   });
  ASSERT_NE(first, log.end());
  ASSERT_NE(marker, log.end());
  EXPECT_EQ(first->time, marker->time);
  EXPECT_LT(first - log.begin(), marker - log.begin());
}

TEST(FlowPopulation, MatchesEagerWhenSpecsArriveOutOfStartOrder) {
  // Shuffled, bots interleaved with legit flows (so fork indices
  // interleave too), and every 7th flow moved to one shared instant.
  std::vector<FlowSpec> flows = trace_plus_bots();
  sim::Rng rng{3};
  rng.shuffle(flows);
  for (std::size_t i = 0; i < flows.size(); i += 7) {
    if (!flows[i].malicious) flows[i].start = sim::seconds(5);
  }
  expect_same_packets(flows, [](sim::Scheduler& s, auto& pop,
                                std::vector<Sent>&) {
    pop.start_all();
    s.run_until(sim::seconds(30));
    pop.stop_all();
  });
}

TEST(FlowPopulation, MatchesEagerWhenStartedAfterTheClockMoved) {
  // Starts already in the past clamp to now and fire in add order.
  std::vector<FlowSpec> flows = trace_plus_bots();
  sim::Rng rng{4};
  rng.shuffle(flows);
  expect_same_packets(flows, [](sim::Scheduler& s, auto& pop,
                                std::vector<Sent>&) {
    s.run_until(sim::seconds(3));
    pop.start_all();
    s.run_until(sim::seconds(30));
    pop.stop_all();
  });
}

TEST(FlowPopulation, MatchesEagerWhenFailingWithFlowsStillPending) {
  // Flows due after the failure are failed too: each sends a
  // retransmission of seq 1000 at the failure instant.
  const auto log = expect_same_packets(
      trace_plus_bots(),
      [](sim::Scheduler& s, auto& pop, std::vector<Sent>&) {
        pop.start_all();
        s.schedule_at(sim::seconds(12), [&pop] { pop.fail_all_legit(); });
        s.run_until(sim::seconds(30));
        pop.stop_all();
      });
  const std::vector<FlowSpec> flows = trace_plus_bots();
  const auto pending = std::find_if(flows.begin(), flows.end(),
                                    [](const FlowSpec& f) {
                                      return f.start > sim::seconds(12);
                                    });
  ASSERT_NE(pending, flows.end());
  EXPECT_NE(std::find(log.begin(), log.end(),
                      Sent{sim::seconds(12), pending->id, 1000}),
            log.end());
}

TEST(FlowPopulation, SendsNothingAfterStopAll) {
  const auto log = expect_same_packets(
      trace_plus_bots(),
      [](sim::Scheduler& s, auto& pop, std::vector<Sent>&) {
        pop.start_all();
        s.run_until(sim::seconds(10));
        pop.stop_all();
        s.run_until(sim::seconds(30));
      });
  ASSERT_FALSE(log.empty());
  EXPECT_LE(log.back().time, sim::seconds(10));
}

TEST(FlowPopulation, QueueDepthTracksLiveFlowsNotTraceSize) {
  // blink.fig2's trace (2000 live flows, t_R = 8.37 s) and its 105 bots
  // over 60 s: ~16k flows in all, but a driver and its pending events
  // exist only while a flow is live.
  TraceConfig cfg;
  cfg.horizon = sim::seconds(60);
  constexpr std::size_t kBots = 105;
  sim::Scheduler s;
  std::uint64_t pkts = 0;
  FlowPopulation pop{s, sim::Rng{1}, [&pkts](net::Packet) { ++pkts; }};
  sim::Rng rng{2};
  for (const FlowSpec& f : synthesize_trace(cfg, rng)) pop.add_legit(f);
  MaliciousFlowDriver::Options bot;
  bot.send_period = cfg.pkt_interval;
  for (const FlowSpec& f :
       synthesize_malicious_flows(cfg, kBots, 0, rng, kBotTagBase)) {
    pop.add_malicious(f, bot);
  }
  pop.start_all();
  s.run_until(cfg.horizon);
  pop.stop_all();
  EXPECT_GT(pop.legit_count(), 5 * cfg.active_flows);
  EXPECT_GT(pkts, 100'000u);
  EXPECT_LE(s.queue_depth_high_water(), 2 * (cfg.active_flows + kBots));
}

}  // namespace
}  // namespace intox::trafficgen
