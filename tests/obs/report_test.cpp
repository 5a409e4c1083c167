// The BenchSession run report: its sweeps and metrics sections, the
// legacy stderr perf line, and the file round-trip.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"

namespace intox::obs {
namespace {

TEST(SweepPerf, ImbalanceIsMaxOverMean) {
  SweepPerf p;
  EXPECT_EQ(p.shard_imbalance(), 0.0);  // unknown
  p.shard_seconds = {1.0, 1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(p.shard_imbalance(), 4.0 / 2.0);
  p.shard_seconds = {3.0, 3.0};
  EXPECT_DOUBLE_EQ(p.shard_imbalance(), 1.0);
}

TEST(BenchSession, ConstructorSetsFamilyAndThreads) {
  BenchSession session{"TEST-FAM", 3, ""};
  const std::string doc = session.to_json();
  EXPECT_NE(doc.find("\"family\":\"TEST-FAM\""), std::string::npos);
  EXPECT_NE(doc.find("\"threads_requested\":3"), std::string::npos);
}

TEST(BenchSession, ReportCarriesSweepsMetricsAndInvariants) {
  Registry::global().reset_values_for_test();
  Registry::global().counter("test.report.counter").add(7);

  BenchSession session{"TEST-REPORT", 0, ""};
  SweepPerf sweep;
  sweep.name = "needs \"escaping\"";
  sweep.trials = 10;
  sweep.threads = 2;
  sweep.wall_seconds = 2.0;
  sweep.shard_seconds = {0.9, 1.1};
  ::testing::internal::CaptureStderr();
  session.record_sweep(sweep);
  const std::string line = ::testing::internal::GetCapturedStderr();
  // The legacy stderr line survives, now with the name escaped.
  EXPECT_NE(line.find("\"sweep\":\"needs \\\"escaping\\\"\""),
            std::string::npos);
  EXPECT_NE(line.find("\"trials\":10"), std::string::npos);

  const std::string doc = session.to_json();
  EXPECT_NE(doc.find("\"schema\":\"intox.bench_report.v2\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"family\":\"TEST-REPORT\""), std::string::npos);
  EXPECT_NE(doc.find("\"sweep\":\"needs \\\"escaping\\\"\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"trials_per_s\":5"), std::string::npos);
  EXPECT_NE(doc.find("\"shard_wall_s\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.report.counter\":7"), std::string::npos);
  // No invariants section: a violated invariant fails the run.
  EXPECT_EQ(doc.find("\"invariants\""), std::string::npos);
}

TEST(BenchSession, WriteRoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "/intox_report_test.json";
  {
    BenchSession session{"TEST-WRITE", 0, path};
    SweepPerf sweep;
    sweep.name = "s";
    sweep.trials = 1;
    sweep.threads = 1;
    sweep.wall_seconds = 0.5;
    session.record_sweep(sweep);
  }  // dtor writes
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"family\":\"TEST-WRITE\""), std::string::npos);
  EXPECT_NE(doc.find("\"sweep\":\"s\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace intox::obs
