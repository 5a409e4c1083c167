#include "obs/trace.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace intox::obs {

namespace {

struct Event {
  const char* name;
  const char* category;
  double ts_us;
  double dur_us;
  std::uint32_t tid;
  const char* arg0_name;
  std::uint64_t arg0;
  const char* arg1_name;
  std::uint64_t arg1;
};

struct Tracer {
  std::atomic<bool> enabled{false};
  // Trace timestamps measure the host, not the simulation; they never
  // feed back into trial results or stdout.
  // intox-analyze: allow(determinism, host-side trace timestamps only)
  std::chrono::steady_clock::time_point epoch =
      // intox-analyze: allow(determinism, host-side trace timestamps only)
      std::chrono::steady_clock::now();
  std::mutex mu;  // guards everything below
  std::string path;
  std::vector<Event> events;
  std::uint32_t next_tid = 1;
  bool atexit_installed = false;
};

Tracer& tracer() {
  static Tracer* t = new Tracer();  // leaked: must outlive the atexit flush
  return *t;
}

void install_atexit_locked(Tracer& t) {
  if (!t.atexit_installed) {
    t.atexit_installed = true;
    std::atexit([] { trace_flush(); });
  }
}

}  // namespace

bool trace_enabled() {
  return tracer().enabled.load(std::memory_order_relaxed);
}

void set_trace_path(std::string path) {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  t.path = std::move(path);
  t.enabled.store(!t.path.empty(), std::memory_order_relaxed);
  if (!t.path.empty()) install_atexit_locked(t);
}

double trace_now_us() {
  // Host-time span timestamps; see Tracer::epoch.
  // intox-analyze: allow(determinism, host-side trace timestamps only)
  const auto dt = std::chrono::steady_clock::now() - tracer().epoch;
  return std::chrono::duration<double, std::micro>(dt).count();
}

void trace_complete(const char* name, const char* category, double start_us,
                    const char* arg0_name, std::uint64_t arg0,
                    const char* arg1_name, std::uint64_t arg1) {
  if (!trace_enabled()) return;
  double dur_us = trace_now_us() - start_us;
  if (dur_us < 0) dur_us = 0;
  // A thread's lane number is its rank in first-record order.
  thread_local std::uint32_t tid = 0;
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  if (tid == 0) tid = t.next_tid++;
  t.events.push_back(Event{name, category, start_us, dur_us, tid, arg0_name,
                           arg0, arg1_name, arg1});
}

bool trace_flush() {
  Tracer& t = tracer();
  // Held through the write, so concurrent flushes cannot leave an older
  // snapshot on disk after a newer one.
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.path.empty()) return false;
  // Real pid so merged multi-process sweep traces get per-pid lanes.
  const auto pid = static_cast<std::uint64_t>(::getpid());
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const Event& e : t.events) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(e.category);
    w.key("ph").value("X");
    w.key("ts").value(e.ts_us);
    w.key("dur").value(e.dur_us);
    w.key("pid").value(pid);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    if (e.arg0_name || e.arg1_name) {
      w.key("args").begin_object();
      if (e.arg0_name) w.key(e.arg0_name).value(e.arg0);
      if (e.arg1_name) w.key(e.arg1_name).value(e.arg1);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return write_file(t.path, w.str(), nullptr);
}

}  // namespace intox::obs
