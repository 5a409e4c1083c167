#include "obs/trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace intox::obs {

namespace {

struct Event {
  const char* name;
  const char* category;
  char phase;        // 'X', 'i', 'C'
  double ts_us;
  double dur_us;     // X only
  std::uint32_t tid;
  const char* arg0_name = nullptr;
  std::uint64_t arg0 = 0;
  const char* arg1_name = nullptr;
  std::uint64_t arg1 = 0;
  double counter_value = 0.0;  // C only (arg0_name holds the series)
};

/// Tiny test-and-set lock: the recording thread owns its buffer, so the
/// only contention is a concurrent trace_flush — rare and short.
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

struct ThreadBuffer {
  SpinLock lock;
  std::uint32_t tid = 0;
  std::vector<Event> events;
};

struct Tracer {
  std::atomic<bool> enabled{false};
  std::mutex mu;  // guards path + buffer registry
  std::string path;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
  // Trace timestamps measure the host, not the simulation; they never
  // feed back into trial results or stdout.
  // intox-analyze: allow(determinism, host-side trace timestamps only)
  std::chrono::steady_clock::time_point epoch =
      // intox-analyze: allow(determinism, host-side trace timestamps only)
      std::chrono::steady_clock::now();
  bool atexit_installed = false;
};

Tracer& tracer() {
  static Tracer* t = [] {
    auto* tr = new Tracer();  // leaked: must outlive thread-local dtors
    if (const char* env = std::getenv("INTOX_TRACE")) {
      if (env[0] != '\0') {
        tr->path = env;
        tr->enabled.store(true, std::memory_order_relaxed);
      }
    }
    return tr;
  }();
  return *t;
}

void install_atexit_locked(Tracer& t) {
  if (!t.atexit_installed) {
    t.atexit_installed = true;
    std::atexit([] { trace_flush(); });
  }
}

ThreadBuffer& this_thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Tracer& t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    b->tid = t.next_tid++;
    t.buffers.push_back(b);  // shared: survives this thread's exit
    return b;
  }();
  return *buf;
}

void record(Event e) {
  ThreadBuffer& buf = this_thread_buffer();
  e.tid = buf.tid;
  buf.lock.lock();
  buf.events.push_back(e);
  buf.lock.unlock();
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
  // The analyzer attributes lambda bodies to their enclosing function;
  // the atexit lambda registered inside runs at process exit, unlocked.
  // intox-analyze: allow(lockorder, atexit lambda runs at exit unlocked)
  if (!t.path.empty()) install_atexit_locked(t);
}

std::string trace_path() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.path;
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
  Event e{};
  e.name = name;
  e.category = category;
  e.phase = 'X';
  e.ts_us = start_us;
  e.dur_us = trace_now_us() - start_us;
  if (e.dur_us < 0) e.dur_us = 0;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  record(e);
}

void trace_instant(const char* name, const char* category) {
  if (!trace_enabled()) return;
  Event e{};
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.ts_us = trace_now_us();
  record(e);
}

void trace_counter(const char* name, const char* series, double value) {
  if (!trace_enabled()) return;
  Event e{};
  e.name = name;
  e.category = "counter";
  e.phase = 'C';
  e.ts_us = trace_now_us();
  e.arg0_name = series;
  e.counter_value = value;
  record(e);
}

bool trace_flush() {
  Tracer& t = tracer();
  std::string path;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(t.mu);
    if (t.path.empty()) return false;
    path = t.path;
    buffers = t.buffers;  // snapshot; new threads append to new buffers
  }

  std::vector<Event> events;
  for (const auto& buf : buffers) {
    buf->lock.lock();
    events.insert(events.end(), buf->events.begin(), buf->events.end());
    buf->events.clear();
    buf->lock.unlock();
  }

  // Append when the file already has a flush's worth of events? No —
  // the Chrome format is one document. Flush rewrites the whole file
  // from the events drained so far plus everything drained before.
  static std::mutex written_mu;
  static std::vector<Event>* written = new std::vector<Event>();
  std::lock_guard<std::mutex> wlock(written_mu);
  written->insert(written->end(), events.begin(), events.end());

  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const Event& e : *written) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(e.category);
    w.key("ph").value(std::string_view{&e.phase, 1});
    w.key("ts").value(e.ts_us);
    if (e.phase == 'X') w.key("dur").value(e.dur_us);
    // Real pid so merged multi-process sweep traces get per-pid lanes.
    w.key("pid").value(static_cast<std::uint64_t>(::getpid()));
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    if (e.phase == 'C') {
      w.key("args").begin_object();
      w.key(e.arg0_name ? e.arg0_name : "value").value(e.counter_value);
      w.end_object();
    } else if (e.arg0_name || e.arg1_name) {
      w.key("args").begin_object();
      if (e.arg0_name) w.key(e.arg0_name).value(e.arg0);
      if (e.arg1_name) w.key(e.arg1_name).value(e.arg1);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string& doc = w.str();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

}  // namespace intox::obs
