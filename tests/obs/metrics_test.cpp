// Metrics registry: placement-invariant values, histogram semantics,
// and the concurrent-recording contract. This binary carries the
// `sanitize` label, so the thread-hammering tests below also run under
// TSan/ASan via `ctest -L sanitize`.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "validate/invariant.hpp"

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

TEST(HistogramMetric, BucketPlacementAndOutOfRange) {
  HistogramMetric h{0.0, 10.0, 10};
  h.observe(0.0);    // bucket 0
  h.observe(9.999);  // bucket 9
  h.observe(5.0);    // bucket 5
  h.observe(-1.0);   // underflow
  h.observe(10.0);   // hi is exclusive -> overflow
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[5], 1u);
  EXPECT_EQ(snap.buckets[9], 1u);
  EXPECT_EQ(snap.underflow, 1u);
  EXPECT_EQ(snap.overflow, 1u);
  EXPECT_EQ(snap.total, 5u);
  EXPECT_EQ(snap.min, -1.0);
  EXPECT_EQ(snap.max, 10.0);
}

TEST(HistogramMetric, NanCountsAsOverflowWithoutPoisoningSum) {
  HistogramMetric h{0.0, 1.0, 4};
  h.observe(0.5);
  h.observe(std::nan(""));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 2u);
  EXPECT_EQ(snap.overflow, 1u);
  EXPECT_FALSE(std::isnan(snap.sum));
  EXPECT_DOUBLE_EQ(snap.sum, 0.5);
}

// Point records are byte-exact at --threads 1 because one thread's
// samples are summed in record order: the snapshot's sum must be
// bit-equal to the serial double sum, not merely close to it.
TEST(HistogramMetric, OneThreadSumIsRecordOrder) {
  HistogramMetric h{0.0, 1.0, 8};
  double serial = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    const double x = 1.0 / static_cast<double>(i);  // inexact in binary
    h.observe(x);
    serial += x;
  }
  EXPECT_EQ(h.snapshot().sum, serial);
}

TEST(HistogramMetric, ConcurrentObserveStress) {
  HistogramMetric h{0.0, 16.0, 16};
  constexpr std::size_t kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(i % 16));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, kThreads * kPerThread);
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_EQ(snap.buckets[b], kThreads * kPerThread / 16);
  }
  EXPECT_EQ(snap.underflow, 0u);
  EXPECT_EQ(snap.overflow, 0u);
}

TEST(Registry, HandlesAreStable) {
  Registry& reg = Registry::global();
  Counter& c1 = reg.counter("test.registry.stable");
  Counter& c2 = reg.counter("test.registry.stable");
  EXPECT_EQ(&c1, &c2);
  Gauge& g1 = reg.gauge("test.registry.gauge");
  Gauge& g2 = reg.gauge("test.registry.gauge");
  EXPECT_EQ(&g1, &g2);
  HistogramMetric& h1 = reg.histogram("test.registry.hist", 0.0, 1.0, 4);
  HistogramMetric& h2 = reg.histogram("test.registry.hist", 0.0, 1.0, 4);
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, HistogramBoundsMismatchRaisesInvariant) {
  Registry& reg = Registry::global();
  reg.histogram("test.registry.bounds", 0.0, 1.0, 4);
  EXPECT_THROW(reg.histogram("test.registry.bounds", 0.0, 2.0, 4),
               validate::InvariantError);
}

TEST(Registry, SnapshotAndJsonCoverAllKinds) {
  Registry& reg = Registry::global();
  reg.reset_values_for_test();
  reg.counter("test.json.counter").add(3);
  reg.gauge("test.json.gauge").update_max(1.5);
  reg.histogram("test.json.hist", 0.0, 4.0, 4).observe(2.0);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.json.counter"), 3u);
  EXPECT_EQ(snap.gauges.at("test.json.gauge"), 1.5);
  EXPECT_EQ(snap.histograms.at("test.json.hist").total, 1u);

  const std::string json = Registry::to_json(snap);
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
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
    HistogramMetric& h = reg.histogram("test.placement.hist", 0.0, 64.0, 8);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        // Each worker handles the slice i % workers == w of the same
        // global workload, mirroring the parallel runner's sharding.
        for (std::size_t i = w; i < 4096; i += workers) {
          c.add(i % 3);
          h.observe(static_cast<double>(i % 64));
        }
      });
    }
    for (auto& t : threads) t.join();
    const auto snap = reg.snapshot();
    Registry::Snapshot filtered;
    filtered.counters["test.placement.counter"] =
        snap.counters.at("test.placement.counter");
    filtered.histograms["test.placement.hist"] =
        snap.histograms.at("test.placement.hist");
    docs.push_back(Registry::to_json(filtered));
  }
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_EQ(docs[0], docs[2]);
}

}  // namespace
}  // namespace intox::obs
