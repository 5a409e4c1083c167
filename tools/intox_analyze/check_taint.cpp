#include <set>

#include "checks.hpp"

namespace intox::analyze {

void check_taint(const CallGraph& graph, std::vector<Finding>& out,
                 std::ostream* explain) {
  const Index& index = graph.index();

  std::set<int> root_set;
  std::vector<std::string> root_names;
  for (const ScenarioReg& reg : index.scenarios) {
    for (int f : graph.find_functions(reg.run_fn)) root_set.insert(f);
    root_names.push_back(reg.run_fn);
  }

  const std::vector<int> reach =
      graph.reachable({root_set.begin(), root_set.end()});

  if (explain != nullptr) {
    *explain << "taint roots (" << root_names.size() << "):";
    for (const std::string& r : root_names) *explain << " " << r;
    *explain << "\ntaint reachable (" << reach.size() << "):\n";
    for (int f : reach) {
      const FunctionDef& fn = index.functions[f];
      *explain << "  " << fn.qname << "  (" << fn.file << ":" << fn.line
               << ")\n";
    }
  }

  for (int f : reach) {
    const FunctionDef& fn = index.functions[f];
    for (const UnorderedIter& it : fn.unordered_iters) {
      out.push_back({fn.file, it.line, "taint",
                     "'" + fn.qname +
                         "' is reachable from a scenario run function but "
                         "iterates unordered container '" + it.container +
                         "' (iteration order is hash/address-dependent; sort "
                         "before emitting)"});
    }
  }
}

}  // namespace intox::analyze
