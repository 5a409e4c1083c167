// Metrics registry: placement-invariant values and the
// concurrent-recording contract. This binary carries the
// `sanitize` label, so the thread-hammering tests below also run under
// TSan/ASan via `ctest -L sanitize`.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace intox::obs {
namespace {

TEST(Counter, FoldsShardsDeterministically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// The determinism contract: the total depends only on the work
// performed, never on how that work is spread over threads. Same
// increments, different thread counts, same answer.
TEST(Counter, TotalInvariantAcrossThreadCounts) {
  constexpr std::uint64_t kIncrements = 10000;
  std::vector<std::uint64_t> totals;
  for (std::size_t workers : {1u, 2u, 7u, 32u, 40u}) {
    Counter c;
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&c, workers] {
        for (std::uint64_t i = 0; i < kIncrements / workers; ++i) c.add();
        // Distribute the remainder to thread 0's tail.
      });
    }
    for (auto& t : threads) t.join();
    const std::uint64_t expected = (kIncrements / workers) * workers;
    EXPECT_EQ(c.value(), expected);
    totals.push_back(c.value() + (kIncrements - expected));
  }
  for (std::uint64_t t : totals) EXPECT_EQ(t, kIncrements);
}

TEST(Counter, ConcurrentIncrementStress) {
  Counter c;
  constexpr std::size_t kThreads = 16;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAndMax) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.update_max(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.update_max(2.0);  // lower: no effect
  EXPECT_EQ(g.value(), 3.5);
  g.update_max(7.25);
  EXPECT_EQ(g.value(), 7.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

// update_max from many threads must land on the true maximum — the
// reason instrumentation uses the max form on shared paths.
TEST(Gauge, ConcurrentMaxIsDeterministic) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&g, w] {
      for (int i = 0; i < 10000; ++i) {
        g.update_max(static_cast<double>(w * 10000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), 79999.0);
}

TEST(Registry, HandlesAreStable) {
  Registry& reg = Registry::global();
  Counter& c1 = reg.counter("test.registry.stable");
  Counter& c2 = reg.counter("test.registry.stable");
  EXPECT_EQ(&c1, &c2);
  Gauge& g1 = reg.gauge("test.registry.gauge");
  Gauge& g2 = reg.gauge("test.registry.gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(Registry, SnapshotAndJsonCoverAllKinds) {
  Registry& reg = Registry::global();
  reg.reset_values_for_test();
  reg.counter("test.json.counter").add(3);
  reg.gauge("test.json.gauge").update_max(1.5);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.json.counter"), 3u);
  EXPECT_EQ(snap.gauges.at("test.json.gauge"), 1.5);

  const std::string json = Registry::to_json(snap);
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_EQ(Registry::to_json({}), "{\"counters\":{},\"gauges\":{}}");
}

// Metric values must not depend on which thread recorded what: spread
// the same workload across different worker counts through the
// *registry* (fresh metric per round) and require byte-identical JSON.
TEST(Registry, JsonIdenticalAcrossThreadPlacement) {
  std::vector<std::string> docs;
  for (std::size_t workers : {1u, 4u, 16u}) {
    Registry& reg = Registry::global();
    reg.reset_values_for_test();
    Counter& c = reg.counter("test.placement.counter");
    Gauge& g = reg.gauge("test.placement.gauge");
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        // Each worker handles the slice i % workers == w of the same
        // global workload, mirroring the parallel runner's sharding.
        for (std::size_t i = w; i < 4096; i += workers) {
          c.add(i % 3);
          g.update_max(static_cast<double>(i % 64) / 8.0);
        }
      });
    }
    for (auto& t : threads) t.join();
    const auto snap = reg.snapshot();
    Registry::Snapshot filtered;
    filtered.counters["test.placement.counter"] =
        snap.counters.at("test.placement.counter");
    filtered.gauges["test.placement.gauge"] =
        snap.gauges.at("test.placement.gauge");
    docs.push_back(Registry::to_json(filtered));
  }
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_EQ(docs[0], docs[2]);
}

}  // namespace
}  // namespace intox::obs
