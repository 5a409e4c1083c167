#include "obs/flightrec.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

namespace intox::obs {

namespace {

constexpr std::size_t kWordsPerRecord = 5;
constexpr std::size_t kMaxThreads = 512;
constexpr std::uint64_t kDecisionCapacity = 1024;
constexpr std::uint64_t kHotCapacity = 4096;

const char* const kTypeNames[kFrTypeCount] = {
    "none",         "sched.fire",    "link.drop",
    "blink.retx",   "blink.reroute", "blink.veto",
    "pcc.decision", "pytheas.move",  "attacker.action",
    "note",
};

// Hot lane: per-packet/per-event volume. Everything else is a
// control-plane decision and goes to the separate lane so data-plane
// floods cannot evict it.
bool is_hot_lane(FrType type) {
  switch (type) {
    case FrType::kSchedFire:
    case FrType::kLinkDrop:
    case FrType::kBlinkRetx:
    case FrType::kAttackerAction:
      return true;
    default:
      return false;
  }
}

// Fixed-capacity text slot readable from a signal handler: bytes are
// packed into relaxed atomic words, length published last. A reader
// racing a store may see torn *content*, never a data race or an
// out-of-bounds length.
struct AtomicText {
  static constexpr std::size_t kWords = 48;
  static constexpr std::size_t kBytes = kWords * 8;  // 384

  std::atomic<std::uint64_t> words[kWords];
  std::atomic<std::uint32_t> length{0};

  void store_text(const char* text) {
    std::size_t len = text == nullptr ? 0 : std::strlen(text);
    if (len > kBytes) len = kBytes;
    length.store(0, std::memory_order_release);
    for (std::size_t w = 0; w * 8 < len; ++w) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < 8 && w * 8 + b < len; ++b) {
        word |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(text[w * 8 + b]))
                << (8 * b);
      }
      words[w].store(word, std::memory_order_relaxed);
    }
    length.store(static_cast<std::uint32_t>(len), std::memory_order_release);
  }

  // `out` must hold kBytes + 1; returns the NUL-terminated length.
  std::size_t load_text(char* out) const {
    std::size_t len = length.load(std::memory_order_acquire);
    if (len > kBytes) len = kBytes;
    for (std::size_t w = 0; w * 8 < len; ++w) {
      const std::uint64_t word = words[w].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < 8 && w * 8 + b < len; ++b) {
        out[w * 8 + b] = static_cast<char>((word >> (8 * b)) & 0xff);
      }
    }
    out[len] = '\0';
    return len;
  }
};

// One lane: single-writer ring of records as bare atomic words. head
// counts all records ever written; slot = seq & mask.
struct Ring {
  std::atomic<std::uint64_t>* words;
  std::uint64_t capacity;
  std::uint64_t mask;
  std::atomic<std::uint64_t> head{0};

  explicit Ring(std::uint64_t cap)
      : words(new std::atomic<std::uint64_t>[cap * kWordsPerRecord]()),
        capacity(cap),
        mask(cap - 1) {}
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  void write(std::uint64_t time, std::uint64_t type, std::uint64_t a,
             std::uint64_t b, std::uint64_t c) {
    // intox-analyze: hot-lane
    const std::uint64_t seq = head.load(std::memory_order_relaxed);
    const std::size_t base =
        static_cast<std::size_t>(seq & mask) * kWordsPerRecord;
    words[base + 0].store(time, std::memory_order_relaxed);
    words[base + 1].store(type, std::memory_order_relaxed);
    words[base + 2].store(a, std::memory_order_relaxed);
    words[base + 3].store(b, std::memory_order_relaxed);
    words[base + 4].store(c, std::memory_order_relaxed);
    head.store(seq + 1, std::memory_order_release);
  }
};

struct ThreadSlot {
  std::uint32_t tid;
  Ring hot;
  Ring decision;
  ThreadSlot* next_free = nullptr;  // guarded by g_free_mu

  explicit ThreadSlot(std::uint32_t tid_in)
      : tid(tid_in), hot(kHotCapacity), decision(kDecisionCapacity) {}
};

// Leaked by design: a signal handler must be able to walk every ring
// that ever existed, including ones owned by already-exited threads.
std::atomic<ThreadSlot*> g_slots[kMaxThreads];
std::atomic<std::uint32_t> g_thread_count{0};

// Rings of exited threads, which the next registering thread takes over
// (it keeps their tid and appends after their records). Never held
// while taking another lock, and never taken by a dump.
std::mutex g_free_mu;
ThreadSlot* g_free = nullptr;

thread_local ThreadSlot* t_slot = nullptr;
thread_local bool t_rejected = false;

// Hands the thread's rings to the free list when the thread exits;
// records made by later thread-exit destructors are dropped.
struct ThreadExitHook {
  ThreadSlot* slot = nullptr;
  ~ThreadExitHook() {
    if (slot == nullptr) return;
    t_slot = nullptr;
    t_rejected = true;
    std::lock_guard<std::mutex> lock(g_free_mu);
    slot->next_free = g_free;
    g_free = slot;
  }
};
thread_local ThreadExitHook t_exit_hook;

AtomicText g_scenario;
AtomicText g_dump_path;

std::atomic<bool> g_dumped{false};

ThreadSlot* register_thread() {
  ThreadSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_free_mu);
    slot = g_free;
    if (slot != nullptr) g_free = slot->next_free;
  }
  if (slot == nullptr) {
    const std::uint32_t idx =
        g_thread_count.fetch_add(1, std::memory_order_acq_rel);
    if (idx >= kMaxThreads) return nullptr;
    slot = new ThreadSlot(idx + 1);
    g_slots[idx].store(slot, std::memory_order_release);
  }
  t_exit_hook.slot = slot;
  return slot;
}

// ---------------------------------------------------------------------
// Async-signal-safe JSON writer: open/write(2) through a stack buffer;
// no allocation, no stdio, no locale.
class SigWriter {
 public:
  explicit SigWriter(int fd) : fd_(fd) {}

  void put(char ch) {
    if (len_ == sizeof(buf_)) flush();
    buf_[len_++] = ch;
  }

  void text(const char* s) {
    for (; *s != '\0'; ++s) put(*s);
  }

  // JSON string literal, quotes included.
  void string(const char* s) {
    put('"');
    for (; *s != '\0'; ++s) {
      const unsigned char ch = static_cast<unsigned char>(*s);
      if (ch == '"' || ch == '\\') {
        put('\\');
        put(static_cast<char>(ch));
      } else if (ch < 0x20) {
        put('\\');
        put('u');
        put('0');
        put('0');
        static const char kHex[] = "0123456789abcdef";
        put(kHex[ch >> 4]);
        put(kHex[ch & 0xf]);
      } else {
        put(static_cast<char>(ch));
      }
    }
    put('"');
  }

  void u64(std::uint64_t v) {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) put(digits[--n]);
  }

  void flush() {
    std::size_t off = 0;
    while (off < len_) {
      const ssize_t wrote = ::write(fd_, buf_ + off, len_ - off);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        break;  // nothing recoverable mid-crash; keep what we have
      }
      off += static_cast<std::size_t>(wrote);
    }
    len_ = 0;
  }

 private:
  int fd_;
  std::size_t len_ = 0;
  char buf_[4096];
};

void emit_lane(SigWriter& w, const char* lane_name, const Ring& ring) {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t kept = head < ring.capacity ? head : ring.capacity;
  w.text("{\"lane\":");
  w.string(lane_name);
  w.text(",\"capacity\":");
  w.u64(ring.capacity);
  w.text(",\"recorded\":");
  w.u64(head);
  w.text(",\"dropped\":");
  w.u64(head - kept);
  w.text(",\"records\":[");
  for (std::uint64_t seq = head - kept; seq < head; ++seq) {
    if (seq != head - kept) w.put(',');
    const std::size_t base =
        static_cast<std::size_t>(seq & ring.mask) * kWordsPerRecord;
    w.put('[');
    for (std::size_t word = 0; word < kWordsPerRecord; ++word) {
      if (word != 0) w.put(',');
      w.u64(ring.words[base + word].load(std::memory_order_relaxed));
    }
    w.put(']');
  }
  w.text("]}");
}

// ---------------------------------------------------------------------
// Crash plumbing.

const char* signal_reason(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "signal:SIGSEGV";
    case SIGABRT:
      return "signal:SIGABRT";
    case SIGBUS:
      return "signal:SIGBUS";
    case SIGFPE:
      return "signal:SIGFPE";
    case SIGILL:
      return "signal:SIGILL";
    default:
      return "signal:unknown";
  }
}

void crash_handler(int sig) {
  // Restore default disposition first so a fault inside the dump path
  // terminates instead of recursing, then re-raise to preserve the
  // kill-by-signal exit status.
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  flightrec_dump_on_crash(signal_reason(sig), "");
  ::raise(sig);
}

void install_signal_handlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &crash_handler;
  ::sigemptyset(&action.sa_mask);
  const int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
  for (const int sig : kSignals) ::sigaction(sig, &action, nullptr);
}

}  // namespace

const char* flightrec_type_name(FrType type) {
  const auto idx = static_cast<std::size_t>(type);
  return idx < kFrTypeCount ? kTypeNames[idx] : kTypeNames[0];
}

void flightrec_record(FrType type, std::uint64_t time, std::uint64_t a,
                      std::uint64_t b, std::uint64_t c) {
  // intox-analyze: hot-lane
  ThreadSlot* slot = t_slot;
  if (slot == nullptr) [[unlikely]] {
    if (t_rejected) return;
    slot = register_thread();
    if (slot == nullptr) {
      t_rejected = true;
      return;
    }
    t_slot = slot;
  }
  Ring& ring = is_hot_lane(type) ? slot->hot : slot->decision;
  ring.write(time, static_cast<std::uint64_t>(type), a, b, c);
}

void flightrec_set_scenario(const char* name) {
  g_scenario.store_text(name);
}

void set_flightrec_dump_path(const std::string& path) {
  g_dump_path.store_text(path.c_str());
}

void flightrec_init() {
  static std::once_flag once;
  std::call_once(once, install_signal_handlers);
}

bool flightrec_dump(const char* path, const char* reason,
                    const char* detail) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  SigWriter w(fd);

  w.text("{\"schema\":");
  w.string(kFlightrecSchema);
  w.text(",\"pid\":");
  w.u64(static_cast<std::uint64_t>(::getpid()));
  w.text(",\"reason\":");
  w.string(reason != nullptr ? reason : "");
  w.text(",\"detail\":");
  w.string(detail != nullptr ? detail : "");

  char textbuf[AtomicText::kBytes + 1];
  g_scenario.load_text(textbuf);
  w.text(",\"scenario\":");
  w.string(textbuf);

  w.text(",\"types\":[");
  for (std::size_t i = 0; i < kFrTypeCount; ++i) {
    if (i != 0) w.put(',');
    w.string(kTypeNames[i]);
  }
  w.text("]");

  const std::uint32_t threads =
      g_thread_count.load(std::memory_order_acquire);
  const std::uint64_t dropped_threads =
      threads > kMaxThreads ? threads - kMaxThreads : 0;
  w.text(",\"dropped_threads\":");
  w.u64(dropped_threads);

  w.text(",\"threads\":[");
  bool first = true;
  const std::uint32_t published =
      threads < kMaxThreads ? threads : static_cast<std::uint32_t>(kMaxThreads);
  for (std::uint32_t idx = 0; idx < published; ++idx) {
    const ThreadSlot* slot = g_slots[idx].load(std::memory_order_acquire);
    if (slot == nullptr) continue;  // registration in flight mid-crash
    if (!first) w.put(',');
    first = false;
    w.text("{\"tid\":");
    w.u64(slot->tid);
    w.text(",\"lanes\":[");
    emit_lane(w, "hot", slot->hot);
    w.put(',');
    emit_lane(w, "decision", slot->decision);
    w.text("]}");
  }
  w.text("]}\n");
  w.flush();
  ::close(fd);
  return true;
}

bool flightrec_dump_on_crash(const char* reason, const char* detail) {
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return false;
  char path[AtomicText::kBytes + 1];
  if (g_dump_path.load_text(path) == 0) return false;
  return flightrec_dump(path, reason, detail);
}

std::uint64_t flightrec_records_recorded() {
  std::uint64_t total = 0;
  const std::uint32_t threads =
      g_thread_count.load(std::memory_order_acquire);
  const std::uint32_t published =
      threads < kMaxThreads ? threads : static_cast<std::uint32_t>(kMaxThreads);
  for (std::uint32_t idx = 0; idx < published; ++idx) {
    const ThreadSlot* slot = g_slots[idx].load(std::memory_order_acquire);
    if (slot == nullptr) continue;
    total += slot->hot.head.load(std::memory_order_acquire);
    total += slot->decision.head.load(std::memory_order_acquire);
  }
  return total;
}

std::size_t flightrec_registered_threads() {
  std::size_t count = 0;
  const std::uint32_t threads =
      g_thread_count.load(std::memory_order_acquire);
  const std::uint32_t published =
      threads < kMaxThreads ? threads : static_cast<std::uint32_t>(kMaxThreads);
  for (std::uint32_t idx = 0; idx < published; ++idx) {
    if (g_slots[idx].load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

std::uint32_t flightrec_this_thread_tid() {
  if (t_slot == nullptr && !t_rejected) {
    ThreadSlot* slot = register_thread();
    if (slot == nullptr) {
      t_rejected = true;
    } else {
      t_slot = slot;
    }
  }
  return t_slot != nullptr ? t_slot->tid : 0;
}

}  // namespace intox::obs
