#include "sweep/merge.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace intox::sweep {

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Running cross-point statistic for one metric. Accumulated in point
/// order over std::map (name-sorted emission), so the rendered numbers
/// are a pure function of the record set — resume byte-identity holds.
struct MetricAgg {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  void fold(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    ++count;
  }
};

void fold_metric_section(const obs::JsonValue& metrics, const char* section,
                         std::map<std::string, MetricAgg>* aggs) {
  const obs::JsonValue* obj = metrics.find(section);
  if (obj == nullptr || !obj->is_object()) return;
  for (const auto& [name, value] : obj->members) {
    if (value.is_number()) (*aggs)[name].fold(value.number);
  }
}

void write_aggregate_section(obs::JsonWriter& w, const char* section,
                             const std::map<std::string, MetricAgg>& aggs) {
  w.key(section).begin_object();
  for (const auto& [name, agg] : aggs) {
    w.key(name).begin_object();
    w.key("count").value(agg.count);
    w.key("min").value(agg.min);
    w.key("max").value(agg.max);
    w.key("mean").value(agg.count > 0
                            ? agg.sum / static_cast<double>(agg.count)
                            : 0.0);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string render_merged_report(const MergeInput& in, int* worst_exit,
                                 std::string* error) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSweepReportSchema);
  w.key("scenario").value(in.scenario);
  w.key("family").value(in.family);
  w.key("axes").begin_array();
  for (const SweepAxis& axis : in.axes) {
    w.begin_object();
    w.key("key").value(axis.key);
    w.key("values").begin_array();
    for (const std::string& v : axis.values) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("points").value(static_cast<std::uint64_t>(in.record_paths.size()));
  std::map<std::string, MetricAgg> counter_aggs;
  std::map<std::string, MetricAgg> gauge_aggs;
  w.key("records").begin_array();
  *worst_exit = 0;
  std::string record;
  for (std::size_t i = 0; i < in.record_paths.size(); ++i) {
    if (!read_file(in.record_paths[i], &record)) {
      *error = "cannot read point record '" + in.record_paths[i] + "'";
      return "";
    }
    // Records end with the writer's trailing newline; strip it so the
    // splice stays a single JSON token.
    while (!record.empty() &&
           (record.back() == '\n' || record.back() == '\r')) {
      record.pop_back();
    }
    if (record.empty() || record.front() != '{' || record.back() != '}') {
      *error = "point record '" + in.record_paths[i] +
               "' is not a JSON object";
      return "";
    }
    w.raw(record);
    // Cross-point aggregates: a record without a parseable metrics
    // section (foreign or hand-written) simply contributes nothing. One
    // without an integer exit counts as a failed point.
    obs::JsonValue parsed;
    int exit_code = 1;
    if (obs::json_parse(record, &parsed, nullptr)) {
      if (const obs::JsonValue* metrics = parsed.find("metrics")) {
        fold_metric_section(*metrics, "counters", &counter_aggs);
        fold_metric_section(*metrics, "gauges", &gauge_aggs);
      }
      const obs::JsonValue* exit = parsed.find("exit");
      if (exit != nullptr && exit->is_number() &&
          exit->number == std::trunc(exit->number) &&
          std::fabs(exit->number) <= INT_MAX) {
        exit_code = static_cast<int>(exit->number);
      }
    }
    *worst_exit = std::max(*worst_exit, exit_code);
  }
  w.end_array();
  w.key("aggregates").begin_object();
  write_aggregate_section(w, "counters", counter_aggs);
  write_aggregate_section(w, "gauges", gauge_aggs);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

std::string commit_report(const std::string& path, const std::string& doc) {
  if (path.empty()) {
    if (std::fwrite(doc.data(), 1, doc.size(), stdout) != doc.size()) {
      return "cannot write report to stdout";
    }
    std::fflush(stdout);
    return "";
  }
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return "cannot write report to '" + tmp + "': " + std::strerror(errno);
  }
  bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  ok = (std::fclose(f) == 0) && ok;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return "cannot commit report to '" + path + "'";
  }
  return "";
}

}  // namespace intox::sweep
