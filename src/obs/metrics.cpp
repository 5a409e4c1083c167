#include "obs/metrics.hpp"

#include <cmath>

#include "obs/json.hpp"
#include "validate/invariant.hpp"

namespace intox::obs {

namespace {

void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      // The initializers run before the check below, so buckets == 0
      // must not divide by zero on the way to the throw.
      width_((hi - lo) / static_cast<double>(buckets ? buckets : 1)),
      counts_(buckets ? buckets : 1) {
  INTOX_INVARIANT(hi > lo && buckets > 0,
                  "histogram metric needs hi > lo and buckets > 0 "
                  "(got lo=%g hi=%g buckets=%zu)", lo, hi, buckets);
}

void HistogramMetric::observe(double x) {
  // intox-analyze: hot-lane
  if (std::isnan(x)) {
    // NaN carries no bucket; count it as overflow so total stays
    // conserved and the report shows the sample was not lost.
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (x < lo_) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
  } else if (x >= hi_) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // hi-edge rounding
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
  }
  atomic_add_double(sum_, x);
  atomic_min_double(min_, x);
  atomic_max_double(max_, x);
}

HistogramMetric::Snapshot HistogramMetric::snapshot() const {
  Snapshot snap;
  snap.lo = lo_;
  snap.hi = hi_;
  snap.underflow = underflow_.load(std::memory_order_relaxed);
  snap.overflow = overflow_.load(std::memory_order_relaxed);
  snap.total = snap.underflow + snap.overflow;
  snap.buckets.reserve(counts_.size());
  for (const auto& c : counts_) {
    snap.buckets.push_back(c.load(std::memory_order_relaxed));
    snap.total += snap.buckets.back();
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void HistogramMetric::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives all dtors
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

HistogramMetric& Registry::histogram(std::string_view name, double lo,
                                     double hi, std::size_t buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<HistogramMetric>(lo, hi, buckets))
             .first;
  } else {
    INTOX_INVARIANT(it->second->lo() == lo && it->second->hi() == hi &&
                        it->second->bucket_count() == buckets,
                    "histogram '%.*s' re-registered with different bounds: "
                    "[%g,%g)x%zu vs existing [%g,%g)x%zu",
                    static_cast<int>(name.size()), name.data(), lo, hi,
                    buckets, it->second->lo(), it->second->hi(),
                    it->second->bucket_count());
  }
  return *it->second;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->snapshot();
  }
  return snap;
}

std::string Registry::to_json(const Snapshot& snap) {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.key("lo").value(h.lo);
    w.key("hi").value(h.hi);
    w.key("buckets").begin_array();
    for (std::uint64_t c : h.buckets) w.value(c);
    w.end_array();
    w.key("underflow").value(h.underflow);
    w.key("overflow").value(h.overflow);
    w.key("total").value(h.total);
    w.key("sum").value(h.sum);
    // Unobserved histograms have infinite extremes — render as null.
    w.key("min").value(h.total ? h.min
                               : std::numeric_limits<double>::quiet_NaN());
    w.key("max").value(h.total ? h.max
                               : std::numeric_limits<double>::quiet_NaN());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void Registry::reset_values_for_test() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace intox::obs
