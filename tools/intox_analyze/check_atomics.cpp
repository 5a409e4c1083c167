#include <algorithm>
#include <map>
#include <sstream>

#include "checks.hpp"

namespace intox::analyze {
namespace {

bool is_write_op(const std::string& op) { return op != "load"; }
bool is_read_op(const std::string& op) { return op != "store"; }

struct OrderSides {
  bool release = false;  // publishes (write side)
  bool acquire = false;  // observes (read side)
  bool seq_cst = false;
  bool relaxed_only = true;
};

OrderSides classify(const AtomicOp& a) {
  OrderSides s;
  std::istringstream parts(a.order);
  std::string comp;
  while (std::getline(parts, comp, ',')) {
    if (comp == "relaxed") continue;
    s.relaxed_only = false;
    if (comp == "seq_cst") {
      s.seq_cst = true;
      s.release = s.release || is_write_op(a.op);
      s.acquire = s.acquire || is_read_op(a.op);
    } else if (comp == "release") {
      s.release = true;
    } else if (comp == "acquire" || comp == "consume") {
      s.acquire = true;
    } else if (comp == "acq_rel") {
      s.release = true;
      s.acquire = true;
    }
  }
  return s;
}

struct ReceiverState {
  bool has_release = false;  // some write-op publishes with release
  bool has_acquire = false;  // some read-op observes with acquire
  // First unmatched site of each side for reporting.
  std::string release_file, acquire_file;
  int release_line = 0, acquire_line = 0;
  std::string fn_release, fn_acquire;
};

}  // namespace

void check_atomics(const Index& index, std::vector<Finding>& out,
                   std::ostream* explain) {
  // Program-wide pairing table, keyed by normalized receiver name: the
  // hot lane writes `head` with release, the fold side reads `head`
  // with acquire — possibly in another file.
  std::map<std::string, ReceiverState> receivers;
  for (const FunctionDef& fn : index.functions) {
    for (const AtomicOp& a : fn.atomic_ops) {
      const OrderSides s = classify(a);
      ReceiverState& r = receivers[a.receiver];
      if (s.release && is_write_op(a.op) && !r.has_release) {
        r.has_release = true;
        r.release_file = fn.file;
        r.release_line = a.line;
        r.fn_release = fn.qname;
      }
      if (s.acquire && is_read_op(a.op) && !r.has_acquire) {
        r.has_acquire = true;
        r.acquire_file = fn.file;
        r.acquire_line = a.line;
        r.fn_acquire = fn.qname;
      }
    }
  }

  if (explain != nullptr) {
    *explain << "atomic receivers (" << receivers.size() << "):\n";
    for (const auto& [name, r] : receivers) {
      *explain << "  " << name << "  release="
               << (r.has_release ? "yes" : "no")
               << " acquire=" << (r.has_acquire ? "yes" : "no") << "\n";
    }
    *explain << "hot lanes:\n";
    for (const FunctionDef& fn : index.functions) {
      if (fn.hot_lane) {
        *explain << "  " << fn.qname << "  (" << fn.file << ":" << fn.line
                 << ")\n";
      }
    }
  }

  // Policy 1: hot lanes must not pay seq_cst fences (explicit or by
  // defaulting the order argument).
  for (const FunctionDef& fn : index.functions) {
    if (!fn.hot_lane) continue;
    for (const AtomicOp& a : fn.atomic_ops) {
      const OrderSides s = classify(a);
      if (!s.seq_cst) continue;
      out.push_back(
          {fn.file, a.line, "atomics",
           "'" + fn.qname + "' is a hot lane but '" + a.receiver + "." +
               a.op + "' uses " +
               (a.implicit ? std::string("the implicit seq_cst default")
                           : std::string("seq_cst")) +
               "; use relaxed (or a paired release/acquire at the fold "
               "boundary)"});
    }
  }

  // Policy 2: one-sided protocols publish nothing. A release store whose
  // receiver is never loaded with acquire (or the reverse) is either a
  // wasted fence or a missing one on the other side.
  for (const auto& [name, r] : receivers) {
    if (r.has_release && !r.has_acquire) {
      out.push_back({r.release_file, r.release_line, "atomics",
                     "release-side write to '" + name + "' in '" +
                         r.fn_release +
                         "' has no acquire-side load anywhere; the release "
                         "fence publishes nothing (add the acquire or relax "
                         "both sides)"});
    }
    if (r.has_acquire && !r.has_release) {
      out.push_back({r.acquire_file, r.acquire_line, "atomics",
                     "acquire-side load of '" + name + "' in '" +
                         r.fn_acquire +
                         "' has no release-side write anywhere; the acquire "
                         "fence observes nothing (add the release or relax "
                         "both sides)"});
    }
  }
}

}  // namespace intox::analyze
