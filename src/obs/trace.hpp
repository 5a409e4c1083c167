// Span/trace layer emitting Chrome trace-event JSON.
//
// set_trace_path (`intox run --trace-out FILE`) makes every
// instrumented scope — runner dispatches and shards, scheduler drain
// batches, per-bench phases — record a "complete" (ph:"X") event.
// trace_flush() (installed via atexit, and called by BenchSession
// teardown) writes every event recorded so far to a file loadable in
// about://tracing or https://ui.perfetto.dev, one lane per thread.
//
// Cost model: when tracing is disabled (the default) every entry point
// is one relaxed atomic load and a branch — cheap enough to leave in
// the scheduler drain loop. When enabled, recording appends to one
// process-wide vector under a mutex. A traced run records a few dozen
// spans, so the lock is never contended enough to matter.
//
// Event names and categories must be string literals (or otherwise
// outlive the process): the buffer stores the pointers, not copies.
#pragma once

#include <cstdint>
#include <string>

namespace intox::obs {

/// True when a trace sink is configured. Inline fast path for hot code.
bool trace_enabled();

/// Sets the trace file; tracing is off until a path is set. An empty
/// path disables tracing. Safe to call before any recording.
void set_trace_path(std::string path);

/// Monotonic microseconds since process trace-clock start — the `ts`
/// domain of emitted events. Meaningful only while tracing is enabled.
double trace_now_us();

/// Records a complete event (`ph:"X"`) that started at `start_us` (a
/// prior trace_now_us() value) and ends now. Up to two optional integer
/// args are attached as {arg0_name: arg0, arg1_name: arg1}; pass
/// nullptr names to omit. No-op when tracing is disabled.
void trace_complete(const char* name, const char* category, double start_us,
                    const char* arg0_name = nullptr, std::uint64_t arg0 = 0,
                    const char* arg1_name = nullptr, std::uint64_t arg1 = 0);

/// Rewrites the configured file with every event recorded so far, so
/// repeated flushes are cumulative and idempotent. Returns false on I/O
/// failure or when tracing is disabled. Registered with atexit on first
/// enable, so plain benches need not call it explicitly.
bool trace_flush();

/// RAII complete-event span. Construction snapshots the clock;
/// destruction emits. The two arg slots can be filled before scope exit
/// (e.g. events processed in the batch).
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category)
      : name_(name), category_(category),
        enabled_(trace_enabled()), start_us_(enabled_ ? trace_now_us() : 0) {}
  ~TraceSpan() {
    if (enabled_) {
      trace_complete(name_, category_, start_us_, arg0_name_, arg0_,
                     arg1_name_, arg1_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void arg0(const char* key, std::uint64_t v) { arg0_name_ = key; arg0_ = v; }
  void arg1(const char* key, std::uint64_t v) { arg1_name_ = key; arg1_ = v; }
  [[nodiscard]] bool enabled() const { return enabled_; }

 private:
  const char* name_;
  const char* category_;
  bool enabled_;
  double start_us_;
  const char* arg0_name_ = nullptr;
  std::uint64_t arg0_ = 0;
  const char* arg1_name_ = nullptr;
  std::uint64_t arg1_ = 0;
};

}  // namespace intox::obs
