#include "callgraph.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

namespace intox::analyze {
namespace {

// Last named component of a receiver expression: "slot->ring" -> "ring",
// "g_slots[idx]" -> "g_slots", "this" -> "this".
std::string receiver_base(const std::string& expr) {
  std::string s = expr;
  if (const auto b = s.find('['); b != std::string::npos) s.resize(b);
  std::size_t cut = 0;
  for (const char* sep : {"->", "."}) {
    if (const auto p = s.rfind(sep); p != std::string::npos) {
      cut = std::max(cut, p + std::strlen(sep));
    }
  }
  return s.substr(cut);
}

std::string last_component(const std::string& chain) {
  const auto pos = chain.rfind("::");
  return pos == std::string::npos ? chain : chain.substr(pos + 2);
}

// True when `suffix` matches the tail of `qname` on a `::` boundary:
// "validate::invariant_failed" matches
// "intox::validate::invariant_failed" but not
// "intox::invalidate::invariant_failed".
bool qname_suffix_match(const std::string& qname, const std::string& suffix) {
  if (suffix.size() > qname.size()) return false;
  if (qname.compare(qname.size() - suffix.size(), suffix.size(), suffix) != 0)
    return false;
  if (suffix.size() == qname.size()) return true;
  const std::size_t cut = qname.size() - suffix.size();
  return cut >= 2 && qname.compare(cut - 2, 2, "::") == 0;
}

}  // namespace

CallGraph::CallGraph(const Index& index) : index_(&index) {
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    by_name_[index.functions[f].name].push_back(static_cast<int>(f));
    if (!index.functions[f].cls.empty()) classes_.insert(index.functions[f].cls);
  }
}

std::vector<int> CallGraph::resolve_uncached(const std::string& chain) const {
  if (chain.rfind("::", 0) == 0 || chain.rfind("std::", 0) == 0) {
    return {};  // explicitly global / standard library
  }
  const auto it = by_name_.find(last_component(chain));
  if (it == by_name_.end()) return {};
  if (chain.find("::") == std::string::npos) return it->second;
  std::vector<int> out;
  for (int f : it->second) {
    if (qname_suffix_match(index_->functions[f].qname, chain)) {
      out.push_back(f);
    }
  }
  return out;
}

const std::vector<int>& CallGraph::resolve(const std::string& chain) const {
  auto it = resolve_cache_.find(chain);
  if (it == resolve_cache_.end()) {
    it = resolve_cache_.emplace(chain, resolve_uncached(chain)).first;
  }
  return it->second;
}

std::vector<int> CallGraph::resolve_call(int caller,
                                         const CallSite& call) const {
  const std::vector<int>& all = resolve(call.name);
  if (all.empty()) return {};
  const std::string& caller_cls = index_->functions[caller].cls;

  std::vector<int> methods, free_fns;
  for (int f : all) {
    (index_->functions[f].cls.empty() ? free_fns : methods).push_back(f);
  }

  if (call.receiver.empty()) {
    // An unqualified member call can only target the caller's own class.
    std::vector<int> out = std::move(free_fns);
    if (!caller_cls.empty()) {
      for (int f : methods) {
        if (index_->functions[f].cls == caller_cls) out.push_back(f);
      }
    }
    return out;
  }

  const std::string base = receiver_base(call.receiver);
  if (base == "this") {
    std::vector<int> out;
    for (int f : methods) {
      if (index_->functions[f].cls == caller_cls) out.push_back(f);
    }
    return out;
  }
  const auto ty = index_->var_types.find(base);
  if (ty != index_->var_types.end()) {
    bool names_indexed_class = false;
    std::vector<int> out;
    for (const std::string& t : ty->second) {
      if (classes_.count(t)) names_indexed_class = true;
    }
    if (names_indexed_class) {
      for (int f : methods) {
        if (ty->second.count(index_->functions[f].cls)) out.push_back(f);
      }
      return out;
    }
    // Declared with only non-indexed (std/library) types: the call
    // cannot land in project code.
    return {};
  }
  return methods;  // receiver type unknown: any method of this name
}

std::vector<int> CallGraph::reachable(const std::vector<int>& roots) const {
  std::vector<char> seen(index_->functions.size(), 0);
  std::deque<int> queue;
  for (int r : roots) {
    if (r >= 0 && !seen[r]) {
      seen[r] = 1;
      queue.push_back(r);
    }
  }
  std::vector<int> out;
  while (!queue.empty()) {
    const int f = queue.front();
    queue.pop_front();
    out.push_back(f);
    for (const CallSite& c : index_->functions[f].calls) {
      for (int callee : resolve_call(f, c)) {
        if (!seen[callee]) {
          seen[callee] = 1;
          queue.push_back(callee);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> CallGraph::find_functions(const std::string& name) const {
  std::vector<int> out;
  for (std::size_t f = 0; f < index_->functions.size(); ++f) {
    const FunctionDef& fn = index_->functions[f];
    if (fn.name == name || qname_suffix_match(fn.qname, name)) {
      out.push_back(static_cast<int>(f));
    }
  }
  return out;
}

}  // namespace intox::analyze
