// Microbenchmarks of the hot data-plane paths: flow hashing, LPM lookup,
// event-queue throughput, link delivery, RNG forks and draws, and the
// per-packet work of the reproduced systems. These are not paper
// experiments; they document that the substrate is fast enough for the
// packet-level reproductions to run at the scale the paper used.
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blink/flow_selector.hpp"
#include "obs/report.hpp"
#include "innet/classifier.hpp"
#include "net/lpm.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/rng.hpp"
#include "sketch/flowradar.hpp"
#include "sppifo/sppifo.hpp"

namespace {

using namespace intox;

void BM_FlowHash(benchmark::State& state) {
  net::FiveTuple t{net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2},
                   1234, 80, net::IpProto::kTcp};
  std::uint32_t sink = 0;
  for (auto _ : state) {
    t.src_port = static_cast<std::uint16_t>(t.src_port + 1);
    sink ^= net::flow_hash(t);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_FlowHash);

void BM_LpmLookup(benchmark::State& state) {
  net::LpmTable<std::uint32_t> table;
  sim::Rng rng{1};
  for (int i = 0; i < state.range(0); ++i) {
    const auto addr =
        static_cast<std::uint32_t>(rng.uniform_int(0, UINT32_MAX));
    table.insert(net::Prefix{net::Ipv4Addr{addr}, 24},
                 static_cast<std::uint32_t>(i % 16));
  }
  std::uint64_t sink = 0;
  sim::Rng probe{2};
  for (auto _ : state) {
    const net::Ipv4Addr a{
        static_cast<std::uint32_t>(probe.uniform_int(0, UINT32_MAX))};
    auto m = table.lookup(a);
    sink += m ? m->value : 0;
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_LpmLookup)->Arg(1000)->Arg(100000);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(i, [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerSameInstantStorm(benchmark::State& state) {
  // Every event at the same timestamp — the binary heap's worst case
  // (every pop sifts through equal keys) and the timing wheel's best
  // (one bucket, drained head-first in FIFO order).
  for (auto _ : state) {
    sim::Scheduler s;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(1000, [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerSameInstantStorm);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // Timer-style workload: half of everything scheduled is cancelled
  // before it fires. The wheel unlinks in O(1) and reuses the slab slot
  // immediately; the old heap tombstoned cancels and paid for them at
  // pop time.
  std::vector<sim::Scheduler::EventId> ids;
  ids.reserve(1000);
  for (auto _ : state) {
    sim::Scheduler s;
    ids.clear();
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(s.schedule_at(i, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_SchedulerSteadyStateTimers(benchmark::State& state) {
  // A population of self-rescheduling periodic timers at staggered
  // phases — the scheduler shape of a running simulation (trafficgen
  // senders, MI timers, link deliveries).
  for (auto _ : state) {
    sim::Scheduler s;
    std::uint64_t fired = 0;
    std::vector<std::function<void()>> timers(64);
    for (int i = 0; i < 64; ++i) {
      timers[i] = [&s, &timers, &fired, i] {
        ++fired;
        if (fired < 1000) s.schedule_after(17 + i, timers[i]);
      };
      s.schedule_at(i, timers[i]);
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerSteadyStateTimers);

// blink.e2e's scheduler shape at 1 ns ticks: 2,000 flows send at
// exponential gaps (mean 250 ms), and each send schedules its delivery
// 1 ms later. The benches above schedule at most 1,000 ns ahead (wheel
// levels 0-1); these delays park events at levels 3-5 and leave most
// buckets holding one event. Each closure captures at most `this`, so
// std::function never allocates.
struct SparseTraffic {
  static constexpr int kFlows = 2000;
  static constexpr std::uint64_t kSends = 50'000;  // + as many deliveries

  sim::Scheduler sched;
  const std::vector<sim::Duration>& gaps;
  std::size_t draws = 0;
  std::uint64_t scheduled = 0;

  void schedule_send() {
    ++scheduled;
    sched.schedule_after(gaps[draws++ % gaps.size()], [this] { send(); });
  }
  void send() {
    sched.schedule_after(sim::millis(1), [] {});
    if (scheduled < kSends) schedule_send();
  }
};

void BM_SchedulerSparseTraffic(benchmark::State& state) {
  std::vector<sim::Duration> gaps(4096);
  sim::Rng rng{1};
  for (sim::Duration& gap : gaps) gap = rng.exp_duration(sim::millis(250));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    SparseTraffic traffic{{}, gaps};
    for (int i = 0; i < SparseTraffic::kFlows; ++i) traffic.schedule_send();
    traffic.sched.run();
    fired += traffic.sched.events_processed();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SchedulerSparseTraffic);

void BM_LinkDelivery(benchmark::State& state) {
  // Packet transmit -> queue -> deliver through a Link: exercises the
  // in-flight packet ring and its delivery chain, in which each delivery
  // arms the next under the ticket its packet reserved at transmit.
  for (auto _ : state) {
    sim::Scheduler s;
    std::uint64_t delivered = 0;
    sim::LinkConfig cfg;
    cfg.rate_bps = 100e9;  // keep the queue from dropping
    cfg.queue_limit_bytes = 64 * 1024 * 1024;
    sim::Link link{s, cfg, [&delivered](net::Packet) { ++delivered; }};
    net::Packet p;
    p.src = net::Ipv4Addr{10, 0, 0, 1};
    p.dst = net::Ipv4Addr{10, 0, 0, 2};
    p.l4 = net::UdpHeader{1234, 80};
    p.payload_bytes = 512;
    for (int i = 0; i < 1000; ++i) {
      link.transmit(p);
      if ((i & 63) == 63) s.run();  // drain in bursts: bounded in-flight
    }
    s.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkDelivery);

// pcc.fleet's bottleneck in steady state: a sender paced at line rate
// keeps a 480 Mb/s link with a 20 ms delay full, ~1,600 750-byte packets
// in flight. Deliveries one propagation delay out would park at wheel
// level 4; the link keeps only the head's delivery in the scheduler.
struct LongPipe {
  static constexpr sim::Duration kGap = 12'500;  // 750 B at 480 Mb/s

  static sim::LinkConfig config() {
    sim::LinkConfig cfg;
    cfg.rate_bps = 480e6;
    cfg.prop_delay = sim::millis(20);
    return cfg;
  }

  sim::Scheduler sched;
  std::uint64_t delivered = 0;
  sim::Link link{sched, config(), [this](net::Packet) { ++delivered; }};
  net::Packet pkt;

  void send() {
    link.transmit(pkt);
    sched.schedule_after(kGap, [this] { send(); });
  }
};

void BM_LinkDeliveryLongPipe(benchmark::State& state) {
  LongPipe pipe;
  pipe.pkt.l4 = net::UdpHeader{1234, 80};
  pipe.pkt.payload_bytes = 722;  // 750 B on the wire
  pipe.send();
  pipe.sched.run_until(sim::millis(40));  // past the first delivery
  for (auto _ : state) {
    // 1,000 sends and 1,000 deliveries.
    pipe.sched.run_until(pipe.sched.now() + 1000 * LongPipe::kGap);
  }
  benchmark::DoNotOptimize(pipe.delivered);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkDeliveryLongPipe);

void BM_RngForkAndDraw(benchmark::State& state) {
  // Fig. 2's pattern: each arriving flow forks its driver's Rng into a
  // live set of ~2k flows and draws a few dozen numbers from it.
  const sim::Rng base{4};
  std::vector<sim::Rng> live(2048, base);
  std::uint64_t index = 0;
  double sink = 0;
  for (auto _ : state) {
    sim::Rng& rng = live[index & 2047];
    rng = base.fork(index++);
    for (int i = 0; i < 36; ++i) sink += rng.exponential(0.25);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngForkAndDraw);

void BM_RngLongStream(benchmark::State& state) {
  // RED's and PCC's pattern: one long-lived Rng drawn per packet, far
  // past its 156th output.
  sim::Rng rng = sim::Rng{1}.fork("red");
  for (int i = 0; i < 1000; ++i) benchmark::DoNotOptimize(rng.uniform());
  std::uint64_t hits = 0;
  for (auto _ : state) hits += rng.bernoulli(0.0525) ? 1 : 0;
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngLongStream);

void BM_BlinkObserve(benchmark::State& state) {
  // Blink's per-packet pipeline work (hash, cell access, retransmission
  // check) — the cost a switch pays per monitored-prefix packet.
  blink::FlowSelector selector{blink::BlinkConfig{}};
  sim::Rng rng{1};
  std::vector<net::FiveTuple> flows;
  for (int i = 0; i < 256; ++i) {
    flows.push_back({net::Ipv4Addr{static_cast<std::uint32_t>(
                         rng.uniform_int(1, UINT32_MAX))},
                     net::Ipv4Addr{10, 0, 0, 1},
                     static_cast<std::uint16_t>(rng.uniform_int(1024, 65535)),
                     80, net::IpProto::kTcp});
  }
  sim::Time now = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    now += sim::millis(1);
    ++i;
    auto v = selector.observe(flows[(i - 1) & 255], 0,
                              static_cast<std::uint32_t>(i & 7), false, now);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_BlinkObserve);

void BM_SpPifoEnqueueDequeue(benchmark::State& state) {
  sppifo::SpPifo sp{sppifo::SpPifoConfig{}};
  sim::Rng rng{2};
  std::uint64_t id = 0;
  for (auto _ : state) {
    sp.enqueue({static_cast<std::uint32_t>(rng.uniform_int(0, 99)), id++});
    auto p = sp.dequeue();
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_SpPifoEnqueueDequeue);

void BM_FlowRadarAddPacket(benchmark::State& state) {
  sketch::FlowRadar radar{sketch::FlowRadarConfig{}};
  std::uint64_t key = 0;
  for (auto _ : state) {
    radar.add_packet(net::mix64(key++ & 1023));
  }
}
BENCHMARK(BM_FlowRadarAddPacket);

void BM_InNetMlpInference(benchmark::State& state) {
  // The quantized forward pass a switch would execute per packet.
  const auto clf = innet::train_classifier(1, 500, 3);
  const auto data = innet::make_dataset(64, 9);
  std::size_t i = 0, sink = 0;
  for (auto _ : state) {
    sink += clf.deployed.predict(data[i++ & 127].x);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_InNetMlpInference);

// Console reporter that additionally records every finished benchmark as
// a SweepPerf into the BenchSession, so `--metrics-out FILE` produces a
// BENCH_MICRO.json the perf gate can diff against committed baselines.
class SessionReporter : public benchmark::ConsoleReporter {
 public:
  explicit SessionReporter(obs::BenchSession& session) : session_(session) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      if (!run.aggregate_name.empty()) continue;  // mean/median/stddev rows
      obs::SweepPerf perf;
      perf.name = run.benchmark_name();
      perf.trials = static_cast<std::size_t>(run.iterations);
      perf.threads = 1;
      perf.wall_seconds = run.real_accumulated_time;
      session_.record_sweep(std::move(perf));
    }
  }

 private:
  obs::BenchSession& session_;
};

}  // namespace

// Expanded BENCHMARK_MAIN. google-benchmark consumes its own
// --benchmark_* flags; what it leaves must be --metrics-out FILE, the
// run report's destination, or nothing.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  std::string metrics_out;
  if (argc == 3 && std::string_view(argv[1]) == "--metrics-out") {
    metrics_out = argv[2];
    argc = 1;
  }
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  intox::obs::BenchSession session{"MICRO", 0, metrics_out};
  SessionReporter reporter{session};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
