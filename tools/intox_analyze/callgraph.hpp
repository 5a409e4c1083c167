// Conservative call-graph construction over the index.
//
// Resolution is name-based: a call site resolves to every indexed
// function whose name matches under the rules below, and to "external"
// when nothing matches. This over-approximates real call targets —
// exactly the right direction for reachability-style checks (a function
// is only declared safe if *every* resolution of every call is safe).
//
// Rules:
//  - chains starting with `::` or `std::` are always external (project
//    code lives under intox::*, so `::write` is the libc symbol even
//    though BenchSession::write exists);
//  - an unqualified or member call resolves to all functions whose last
//    name component matches;
//  - a qualified chain (`validate::invariant_violations`) additionally
//    requires the chain to be a `::`-boundary suffix of the candidate's
//    qualified name.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "index.hpp"

namespace intox::analyze {

class CallGraph {
 public:
  explicit CallGraph(const Index& index);

  const Index& index() const { return *index_; }

  /// Indices into index().functions that a call chain may target; empty
  /// means the call is external.
  const std::vector<int>& resolve(const std::string& chain) const;

  /// Like resolve(), narrowed by the calling context:
  ///  - an unqualified call (`foo()`) targets free functions plus
  ///    methods of the caller's own class (implicit this);
  ///  - a member call (`obj.foo()`) targets methods only; when obj's
  ///    declared type is known and names an indexed class, only that
  ///    class's methods; when it names only non-indexed (std) types,
  ///    nothing; when unknown, any method of a matching name;
  ///  - `this->foo()` targets the caller's class.
  /// `caller` indexes index().functions.
  std::vector<int> resolve_call(int caller, const CallSite& call) const;

  /// All function indices reachable from `roots` (inclusive) by
  /// following resolved calls breadth-first.
  std::vector<int> reachable(const std::vector<int>& roots) const;

  /// Function indices whose name matches `name` (last component), or
  /// whose qualified name ends with `name` on a `::` boundary.
  std::vector<int> find_functions(const std::string& name) const;

  /// Lock nodes a function may acquire, directly or through any callee
  /// (interprocedural fixpoint over the resolved graph).
  const std::set<std::string>& may_acquire(int fn) const;

 private:
  const Index* index_;
  std::map<std::string, std::vector<int>> by_name_;  // last component
  std::set<std::string> classes_;  // classes with at least one method
  mutable std::map<std::string, std::vector<int>> resolve_cache_;
  std::vector<std::set<std::string>> may_acquire_;

  std::vector<int> resolve_uncached(const std::string& chain) const;
  void compute_may_acquire();
};

}  // namespace intox::analyze
