#include <algorithm>
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

// The functions in the caller's own file that a call may target, by
// name: a member call (`w.put(c)`) targets methods, any other call free
// functions plus the caller's own class (implicit this). `std::` calls
// are external.
std::vector<int> file_targets(const Index& index, int caller,
                              const CallSite& call) {
  if (call.name.rfind("std::", 0) == 0) return {};
  const FunctionDef& from = index.functions[caller];
  const std::string name = call.name.substr(call.name.rfind(':') + 1);
  std::vector<int> out;
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    const FunctionDef& to = index.functions[f];
    if (to.file != from.file || to.name != name) continue;
    if (call.receiver.empty() ? to.cls.empty() || to.cls == from.cls
                              : !to.cls.empty()) {
      out.push_back(static_cast<int>(f));
    }
  }
  return out;
}

}  // namespace

void check_sigsafe(const Index& index, std::vector<Finding>& out,
                   std::ostream* explain) {
  // Roots: every registered handler plus the crash-dump entry points,
  // which are documented to be callable from a fatal-signal context.
  std::vector<std::string> root_names = index.signal_handlers;
  for (const char* builtin : {"flightrec_dump", "flightrec_dump_on_crash"}) {
    if (std::any_of(index.functions.begin(), index.functions.end(),
                    [&](const FunctionDef& fn) { return fn.name == builtin; })) {
      root_names.push_back(builtin);
    }
  }

  // Walk each root through its own file.
  std::vector<char> seen(index.functions.size(), 0);
  std::vector<int> path;
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    const std::string& name = index.functions[f].name;
    if (std::find(root_names.begin(), root_names.end(), name) !=
        root_names.end()) {
      seen[f] = 1;
      path.push_back(static_cast<int>(f));
    }
  }
  for (std::size_t next = 0; next < path.size(); ++next) {
    const int f = path[next];
    for (const CallSite& c : index.functions[f].calls) {
      for (int callee : file_targets(index, f, c)) {
        if (!seen[callee]) {
          seen[callee] = 1;
          path.push_back(callee);
        }
      }
    }
  }
  std::sort(path.begin(), path.end());

  if (explain != nullptr) {
    *explain << "sigsafe roots:";
    for (const std::string& r : root_names) *explain << " " << r;
    *explain << "\nsigsafe reachable (" << path.size() << "):\n";
    for (int f : path) {
      const FunctionDef& fn = index.functions[f];
      *explain << "  " << fn.qname << "  (" << fn.file << ":" << fn.line
               << ")\n";
    }
  }

  for (int f : path) {
    const FunctionDef& fn = index.functions[f];
    for (const CallSite& c : fn.calls) {
      if (!file_targets(index, f, c).empty()) continue;  // walked above
      const std::string name = strip_qualifiers(c.name);
      if (sigsafe_allowlist().count(name)) continue;
      out.push_back({fn.file, c.line, "sigsafe",
                     "'" + fn.qname +
                         "' is on the fatal-signal path but calls '" +
                         c.name +
                         "', which is neither defined in this file nor on "
                         "the async-signal-safe allowlist"});
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
