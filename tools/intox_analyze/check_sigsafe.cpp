#include <set>

#include "checks.hpp"

namespace intox::analyze {
namespace {

// POSIX async-signal-safe functions (subset the codebase could plausibly
// reach), the mem*/str* helpers POSIX.1-2016 added to the safe list, and
// a few allocation-free pure std helpers (move/min/max/to_chars).
const std::set<std::string>& sigsafe_allowlist() {
  static const std::set<std::string> kAllow = {
      "move",       "min",        "max",         "clamp",      "abs",
      "isfinite",   "isnan",      "to_chars",    "from_chars", "forward",
      "abort",      "access",     "alarm",       "chdir",      "chmod",
      "close",      "clock_gettime",             "creat",      "dup",
      "dup2",       "_exit",      "_Exit",       "faccessat",  "fchmod",
      "fcntl",      "fdatasync",  "fstat",       "fsync",      "ftruncate",
      "getegid",    "geteuid",    "getgid",      "getpgrp",    "getpid",
      "getppid",    "gettid",     "getuid",      "kill",       "link",
      "lseek",      "lstat",      "memchr",      "memcmp",     "memcpy",
      "memmove",    "memset",     "mkdir",       "open",       "openat",
      "pause",      "pipe",       "poll",        "pread",      "pwrite",
      "raise",      "read",       "readlink",    "rename",     "rmdir",
      "sigaction",  "sigaddset",  "sigdelset",   "sigemptyset",
      "sigfillset", "signal",     "sigprocmask", "stat",       "strcat",
      "strchr",     "strcmp",     "strcpy",      "strlen",     "strncat",
      "strncmp",    "strncpy",    "strrchr",     "strstr",     "symlink",
      "time",       "umask",      "uname",       "unlink",     "write"};
  return kAllow;
}

std::string strip_qualifiers(const std::string& chain) {
  std::string s = chain;
  if (s.rfind("::", 0) == 0) s = s.substr(2);
  if (s.rfind("std::", 0) == 0) s = s.substr(5);
  return s;
}

}  // namespace

void check_sigsafe(const CallGraph& graph, std::vector<Finding>& out,
                   std::ostream* explain) {
  const Index& index = graph.index();

  // Roots: every registered handler plus the crash-dump entry points,
  // which are documented to be callable from a fatal-signal context.
  std::set<int> root_set;
  std::vector<std::string> root_names;
  for (const SignalHandlerReg& reg : index.signal_handlers) {
    for (int f : graph.find_functions(reg.handler)) root_set.insert(f);
    root_names.push_back(reg.handler);
  }
  for (const char* builtin : {"flightrec_dump", "flightrec_dump_on_crash"}) {
    const std::vector<int> fns = graph.find_functions(builtin);
    if (!fns.empty()) root_names.push_back(builtin);
    for (int f : fns) root_set.insert(f);
  }

  const std::vector<int> reach =
      graph.reachable({root_set.begin(), root_set.end()});

  if (explain != nullptr) {
    *explain << "sigsafe roots:";
    for (const std::string& r : root_names) *explain << " " << r;
    *explain << "\nsigsafe reachable (" << reach.size() << "):\n";
    for (int f : reach) {
      const FunctionDef& fn = index.functions[f];
      *explain << "  " << fn.qname << "  (" << fn.file << ":" << fn.line
               << ")\n";
    }
  }

  for (int f : reach) {
    const FunctionDef& fn = index.functions[f];
    for (const CallSite& c : fn.calls) {
      if (!graph.resolve_call(f, c).empty()) continue;  // proven by recursion
      if (!c.receiver.empty()) continue;  // unresolvable method on a value
      const std::string name = strip_qualifiers(c.name);
      if (sigsafe_allowlist().count(name)) continue;
      out.push_back({fn.file, c.line, "sigsafe",
                     "'" + fn.qname +
                         "' is on the fatal-signal path but calls '" +
                         c.name + "', which is not async-signal-safe"});
    }
    for (const DangerEvent& d : fn.dangers) {
      out.push_back({fn.file, d.line, "sigsafe",
                     "'" + fn.qname + "' is on the fatal-signal path but uses " +
                         d.what + " (may allocate or throw)"});
    }
    for (const LockAcquire& lock : fn.lock_acquires) {
      out.push_back({fn.file, lock.line, "sigsafe",
                     "'" + fn.qname +
                         "' is on the fatal-signal path but acquires lock '" +
                         lock.node + "' (deadlocks if the interrupted thread "
                         "holds it)"});
    }
  }
}

}  // namespace intox::analyze
