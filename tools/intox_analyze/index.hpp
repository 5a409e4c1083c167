// The whole-program index intox_analyze builds before running checks.
//
// This is a *lightweight* semantic model, not a compiler front end: a
// scope-tracking pass over the shared cxxlex token stream recovers
// namespaces, classes, function definitions with qualified names, and —
// inside each function body — the events the checks care about: call
// sites, lock acquisitions/releases, atomic operations with their
// memory orders, range-for iteration over unordered containers, and
// "danger" mentions (new-expressions, throw, std::string, iostreams).
// The soundness boundary of this model is documented in DESIGN.md §9:
// names are resolved textually (no overload resolution, no type
// inference), so the checks over-approximate call targets and treat
// unresolved callees as external functions.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "token.hpp"

namespace intox::analyze {

/// One call site inside a function body. `name` is the callee text as
/// written ("std::strlen", "flock", "invariant_violations"); `receiver`
/// is the object chain of a member call ("w", "ring.head") or empty.
struct CallSite {
  std::string name;
  std::string receiver;
  int line = 0;
  int seq = 0;  // body-order position, shared with LockEvent
};

/// Lock activity, in body order. Scoped acquisitions (lock_guard /
/// unique_lock / scoped_lock) release when their block closes; manual
/// .lock() / flock(LOCK_*) acquisitions release at .unlock() /
/// flock(LOCK_UN) or function end.
struct LockEvent {
  enum Kind { kScopedAcquire, kAcquire, kRelease, kBlockClose } kind;
  std::string node;  // normalized lock name ("Registry::mu_"); empty for
                     // kBlockClose
  int line = 0;
  int depth = 0;  // brace depth inside the function at the event
  int seq = 0;
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
  std::vector<LockEvent> lock_events;
  std::vector<AtomicOp> atomic_ops;
  std::vector<UnorderedIter> unordered_iters;
  std::vector<DangerEvent> dangers;
};

/// A metric registered by name from C++ (`.counter("x")`, `.gauge("x")`,
/// `.histogram("x", ...)`, `register_external_counter("x", ...)`).
struct MetricReg {
  std::string kind;  // "counter" | "gauge" | "histogram" | "external"
  std::string name;
  std::string file;
  int line = 0;
};

/// A function installed as a signal handler (`action.sa_handler = &fn`
/// or `::signal(SIG, fn)`).
struct SignalHandlerReg {
  std::string handler;  // function name as written
  std::string file;
  int line = 0;
};

/// A scenario registration: the run function named last in the braced
/// initializer of INTOX_REGISTER_SCENARIO(ident, {...}).
struct ScenarioReg {
  std::string run_fn;
  std::string file;
  int line = 0;
};

struct Index {
  std::vector<FunctionDef> functions;
  std::vector<MetricReg> metric_regs;
  std::vector<SignalHandlerReg> signal_handlers;
  std::vector<ScenarioReg> scenarios;
  /// Variables declared anywhere with an unordered container type
  /// (std::unordered_map / set / multimap / multiset, or an alias of
  /// one). Collected globally so a member declared in a header is
  /// recognized when iterated in a .cpp.
  std::set<std::string> unordered_vars;
  /// Declared name (local, member, or parameter) -> type names it was
  /// declared with (last component, plus the first template argument for
  /// wrapper types), merged program-wide. Narrows member-call
  /// resolution: `w.text()` with `SigWriter w` only targets
  /// SigWriter::text. Same-named variables of different types merge,
  /// which only widens resolution.
  std::map<std::string, std::set<std::string>> var_types;
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
