// Trace layer: disabled-by-default contract, span emission, recording
// concurrent with flushing, and a structural check that the flushed
// file is valid Chrome trace-event JSON (parsed structurally here; CI
// loads a real bench trace through python's json module as well).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace intox::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// The tracer is process-global, so these tests run as one sequence:
// disabled -> enabled -> flushed -> disabled again.
TEST(Trace, DisabledByDefaultAndCheapToCall) {
  // No trace path is set yet; nothing may be enabled and every entry
  // point must be a safe no-op.
  ASSERT_FALSE(trace_enabled());
  trace_complete("noop", "test", 0.0);
  { TraceSpan span{"noop", "test"}; EXPECT_FALSE(span.enabled()); }
  EXPECT_FALSE(trace_flush());
}

TEST(Trace, SpansFlushToValidChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "/intox_trace_test.json";
  set_trace_path(path);
  ASSERT_TRUE(trace_enabled());

  {
    TraceSpan outer{"test.outer", "test"};
    outer.arg0("items", 3);
    outer.arg1("workers", 2);
    TraceSpan inner{"test.inner", "test"};
  }
  // Spans from other threads must land in the same file even though the
  // recording thread has exited by flush time.
  std::thread worker{[] { TraceSpan span{"test.worker", "test"}; }};
  worker.join();

  ASSERT_TRUE(trace_flush());
  const std::string doc = slurp(path);

  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"test.worker\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"items\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"workers\":2"), std::string::npos);

  // Structural sanity: balanced braces/brackets (no JSON parser in the
  // test toolchain; the strings above contain no nested quoting).
  EXPECT_EQ(count_occurrences(doc, "{"), count_occurrences(doc, "}"));
  EXPECT_EQ(count_occurrences(doc, "["), count_occurrences(doc, "]"));

  // Flush is cumulative and idempotent: a second flush rewrites the same
  // events rather than emitting an empty or truncated file.
  ASSERT_TRUE(trace_flush());
  EXPECT_EQ(slurp(path), doc);

  set_trace_path("");
  EXPECT_FALSE(trace_enabled());
  std::remove(path.c_str());
}

TEST(Trace, ReenableAccumulatesNewEvents) {
  const std::string path = ::testing::TempDir() + "/intox_trace_test2.json";
  set_trace_path(path);
  { TraceSpan span{"test.second_session", "test"}; }
  ASSERT_TRUE(trace_flush());
  EXPECT_NE(slurp(path).find("test.second_session"), std::string::npos);
  set_trace_path("");
  std::remove(path.c_str());
}

// Recording threads and a flushing thread share the one event buffer:
// the flush after the recorders finish must hold every span, once. Each
// recorder pauses halfway until two more flushes have completed, so
// flushes really do run while spans are being recorded. The flusher
// sleeps between flushes: re-locking the tracer mutex back to back
// starves the recorders (under TSan, for minutes).
TEST(Trace, ConcurrentRecordAndFlushKeepsEverySpan) {
  const std::string path = ::testing::TempDir() + "/intox_trace_test3.json";
  set_trace_path(path);
  constexpr std::size_t kThreads = 8;
  constexpr int kSpansPerThread = 1000;
  std::atomic<std::size_t> running{kThreads};
  std::atomic<std::uint64_t> flushes{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&running, &flushes] {
      for (int n = 0; n < kSpansPerThread; ++n) {
        if (n == kSpansPerThread / 2) {
          const std::uint64_t seen = flushes.load(std::memory_order_acquire);
          while (flushes.load(std::memory_order_acquire) < seen + 2) {
            std::this_thread::yield();
          }
        }
        TraceSpan span{"test.concurrent", "test"};
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  while (running.load(std::memory_order_acquire) > 0) {
    EXPECT_TRUE(trace_flush());
    flushes.fetch_add(1, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(trace_flush());
  EXPECT_EQ(count_occurrences(slurp(path), "\"name\":\"test.concurrent\""),
            kThreads * kSpansPerThread);
  set_trace_path("");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace intox::obs
