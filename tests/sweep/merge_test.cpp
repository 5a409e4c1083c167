// Report merging: record order is point order, the envelope is
// deterministic, and the worst point exit is read from the parsed
// records.
#include "sweep/merge.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/report.hpp"

namespace intox::sweep {
namespace {

std::string write_temp(const char* name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
  return path;
}

TEST(Merge, ConcatenatesRecordsInPointOrder) {
  MergeInput in;
  in.scenario = "quickstart";
  in.family = "QUICKSTART";
  SweepAxis axis;
  axis.key = "flows";
  axis.values = {"1", "2"};
  in.axes = {axis};
  in.record_paths = {
      write_temp("merge_r0.json", "{\"schema\":\"x\",\"exit\":0}\n"),
      write_temp("merge_r1.json", "{\"schema\":\"y\",\"exit\":3}\n"),
  };
  int worst_exit = -1;
  std::string error;
  const std::string doc = render_merged_report(in, &worst_exit, &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(worst_exit, 3);
  EXPECT_NE(doc.find("\"schema\":\"intox.sweep_report.v1.1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"points\":2"), std::string::npos);
  // Records appear verbatim, in order.
  const auto first = doc.find("{\"schema\":\"x\",\"exit\":0}");
  const auto second = doc.find("{\"schema\":\"y\",\"exit\":3}");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(doc.back(), '\n');
  for (const std::string& p : in.record_paths) std::remove(p.c_str());
}

TEST(Merge, RecordsWithoutMetricsYieldEmptyAggregates) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {
      write_temp("merge_nometrics.json", "{\"schema\":\"x\",\"exit\":0}\n"),
  };
  int worst_exit = -1;
  std::string error;
  const std::string doc = render_merged_report(in, &worst_exit, &error);
  ASSERT_EQ(error, "");
  EXPECT_NE(
      doc.find("\"aggregates\":{\"counters\":{},\"gauges\":{}}"),
      std::string::npos);
  std::remove(in.record_paths[0].c_str());
}

TEST(Merge, AggregatesFoldCountersAndGaugesAcrossPoints) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {
      write_temp("merge_m0.json",
                 "{\"exit\":0,\"metrics\":{\"counters\":{\"pkts\":10},"
                 "\"gauges\":{\"rate\":1.5}}}\n"),
      write_temp("merge_m1.json",
                 "{\"exit\":0,\"metrics\":{\"counters\":{\"pkts\":30},"
                 "\"gauges\":{\"rate\":0.5,\"loss\":2}}}\n"),
  };
  int worst_exit = -1;
  std::string error;
  const std::string doc = render_merged_report(in, &worst_exit, &error);
  ASSERT_EQ(error, "");
  // pkts: both points; min 10, max 30, mean 20.
  EXPECT_NE(doc.find("\"pkts\":{\"count\":2,\"min\":10,\"max\":30,"
                     "\"mean\":20}"),
            std::string::npos)
      << doc;
  // rate: both points; loss: only one.
  EXPECT_NE(doc.find("\"rate\":{\"count\":2,\"min\":0.5,\"max\":1.5,"
                     "\"mean\":1}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"loss\":{\"count\":1,\"min\":2,\"max\":2,"
                     "\"mean\":2}"),
            std::string::npos)
      << doc;
  for (const std::string& p : in.record_paths) std::remove(p.c_str());
}

TEST(Merge, MissingRecordIsAnError) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {"/nonexistent/record.json"};
  int worst_exit = -1;
  std::string error;
  EXPECT_EQ(render_merged_report(in, &worst_exit, &error), "");
  EXPECT_NE(error.find("/nonexistent/record.json"), std::string::npos);
}

TEST(Merge, MalformedRecordIsAnError) {
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  in.record_paths = {write_temp("merge_bad.json", "not json\n")};
  int worst_exit = -1;
  std::string error;
  EXPECT_EQ(render_merged_report(in, &worst_exit, &error), "");
  EXPECT_NE(error.find("not a JSON object"), std::string::npos);
  std::remove(in.record_paths[0].c_str());
}

TEST(Merge, CommitReportIsAtomicRename) {
  const std::string path = ::testing::TempDir() + "merge_commit.json";
  ASSERT_EQ(commit_report(path, "{\"a\":1}\n"), "");
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_STREQ(buf, "{\"a\":1}\n");
  std::remove(path.c_str());
}

TEST(Merge, ReportsTheWorstPointExit) {
  // Real records from the point-record writer; hostile stdout must not
  // shadow the top-level exit.
  MergeInput in;
  in.scenario = "s";
  in.family = "F";
  for (const int exit_code : {0, 4, 2}) {
    obs::PointRecord record;
    record.scenario = "s";
    record.family = "F";
    record.banner = "k=" + std::to_string(exit_code);
    record.exit_code = exit_code;
    record.stdout_text = "tricky \"exit\": 99 text\n";
    const std::string path = ::testing::TempDir() + "merge_exit" +
                             std::to_string(exit_code) + ".json";
    ASSERT_TRUE(obs::write_point_record(path, record));
    in.record_paths.push_back(path);
  }
  int worst_exit = -1;
  std::string error;
  ASSERT_NE(render_merged_report(in, &worst_exit, &error), "") << error;
  EXPECT_EQ(worst_exit, 4);

  for (const std::string& p : in.record_paths) std::remove(p.c_str());

  // A record without an integer exit counts as a failed point (1).
  for (const char* body : {"{\"schema\":\"x\"}\n", "{\"exit\":\"0\"}\n"}) {
    in.record_paths = {write_temp("merge_noexit.json", body)};
    ASSERT_NE(render_merged_report(in, &worst_exit, &error), "") << error;
    EXPECT_EQ(worst_exit, 1) << body;
    std::remove(in.record_paths[0].c_str());
  }
}

}  // namespace
}  // namespace intox::sweep
