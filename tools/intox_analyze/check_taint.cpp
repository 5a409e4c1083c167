#include "checks.hpp"

namespace intox::analyze {

void check_taint(const Index& index, std::vector<Finding>& out,
                 std::ostream* explain) {
  int checked = 0;
  for (const FunctionDef& fn : index.functions) {
    if (!in_product_code(fn.file)) continue;
    ++checked;
    for (const UnorderedIter& it : fn.unordered_iters) {
      out.push_back({fn.file, it.line, "taint",
                     "'" + fn.qname + "' iterates unordered container '" +
                         it.container +
                         "' (iteration order is hash/address-dependent; sort "
                         "before emitting)"});
    }
  }
  if (explain != nullptr) {
    *explain << "taint checked " << checked
             << " functions in src/ and bench/\n";
  }
}

}  // namespace intox::analyze
