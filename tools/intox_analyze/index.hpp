// The index intox_analyze builds before running checks.
//
// This is a *lightweight* semantic model, not a compiler front end: a
// scope-tracking pass over the shared cxxlex token stream recovers
// namespaces, classes, function definitions with qualified names, and —
// inside each function body — the events the checks care about: call
// sites, lock acquisitions, atomic operations with their memory orders,
// range-for iteration over unordered containers, and "danger" mentions
// (new-expressions, throw, std::string, iostreams).
// The soundness boundary of this model is documented in DESIGN.md §9:
// names are resolved textually (no overload resolution, no type
// inference), and a call is only followed into a function defined in
// the caller's own file.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "token.hpp"

namespace intox::analyze {

/// One call site inside a function body. `name` is the callee text as
/// written ("std::strlen", "invariant_failed"); `receiver` is the
/// object chain of a member call ("w", "ring.head") or empty.
struct CallSite {
  std::string name;
  std::string receiver;
  int line = 0;
};

/// One lock acquisition: an argument of lock_guard / unique_lock /
/// scoped_lock, or a zero-argument `.lock()` call.
struct LockAcquire {
  std::string node;  // normalized lock name ("Registry::mu_")
  int line = 0;
};

/// One atomic member operation (load/store/RMW) with its memory order.
struct AtomicOp {
  std::string receiver;  // normalized last component ("Ring::head")
  std::string op;        // "load", "store", "fetch_add", ...
  std::string order;     // "relaxed".."seq_cst"; implicit => "seq_cst"
  bool implicit = false;
  int line = 0;
};

/// A range-for over a container declared with an unordered type.
struct UnorderedIter {
  std::string container;  // root variable of the range expression
  int line = 0;
};

/// A non-call token event sigsafe flags: "new-expression", "throw", or
/// a mention of an allocating name ("std::string", "std::cout", ...).
struct DangerEvent {
  std::string what;
  int line = 0;
};

struct FunctionDef {
  std::string qname;  // "intox::obs::flightrec_dump", "SigWriter::put"
  std::string name;   // last component
  std::string cls;    // innermost enclosing class ("" for free functions)
  std::string file;   // repo-relative path
  int line = 0;
  int end_line = 0;
  bool hot_lane = false;  // marked `// intox-analyze: hot-lane`
  std::vector<CallSite> calls;
  std::vector<LockAcquire> lock_acquires;
  std::vector<AtomicOp> atomic_ops;
  std::vector<UnorderedIter> unordered_iters;
  std::vector<DangerEvent> dangers;
};

/// A metric registered by name from C++ (`.counter("x")`, `.gauge("x")`,
/// `.histogram("x", ...)`).
struct MetricReg {
  std::string kind;  // "counter" | "gauge" | "histogram"
  std::string name;
  std::string file;
  int line = 0;
};

struct Index {
  std::vector<FunctionDef> functions;
  std::vector<MetricReg> metric_regs;
  /// Functions installed as signal handlers (`action.sa_handler = &fn`
  /// or `::signal(SIG, fn)`), by name as written.
  std::vector<std::string> signal_handlers;
  /// Variables and parameters declared anywhere with an unordered
  /// container type (std::unordered_map / set / multimap / multiset, or
  /// an alias of one). Collected globally so a member declared in a
  /// header is recognized when iterated in a .cpp.
  std::set<std::string> unordered_vars;
};

/// Indexes one file into `index`: `toks` is `source` tokenized, and
/// `rel_path` is repo-relative.
void index_file(const std::string& rel_path, const std::string& source,
                const cxxlex::TokenStream& toks, Index& index);

/// Second pass after all files are indexed: resolves unordered-iteration
/// events that were deferred because the container's declaration lives
/// in another file (e.g. a member declared in a header).
void finalize_index(Index& index);

}  // namespace intox::analyze
