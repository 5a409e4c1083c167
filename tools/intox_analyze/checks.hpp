// The checks. Three enforce line-local project conventions on the token
// stream; three walk the call graph. Each appends findings; the graph
// checks also print the evidence they ran on (reachable-function lists,
// atomic pairing tables) when `explain` is non-null, for humans and for
// CI assertions.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "token.hpp"

namespace intox::analyze {

struct Finding {
  std::string path;  // repo-relative, '/'-separated
  int line = 0;
  std::string check;
  std::string message;
};

/// True for src/ and bench/: the code whose output the goldens pin,
/// and the only place `determinism` and `metrics` apply.
bool in_product_code(const std::string& rel_path);

/// The per-file token checks:
///   determinism  bans entropy and clock reads (std::random_device, the
///                libc PRNGs, time/gettimeofday, the <chrono> clocks)
///                in product code, reachable or not; draws around
///                sim::Rng (the Mersenne Twister engines, any
///                `*_distribution`, a free `shuffle(` call) in product
///                code but src/sim/rng.{hpp,cpp}; and literal-seeded Rng
///                construction in src/ (seeds must be forked or plumbed
///                from config so `--threads` cannot perturb them).
///   header       #pragma once in every header, no `using namespace`
///                at header scope, and no <iostream> in src/ headers
///                (hot-path translation units must not inherit stream
///                globals and their static initializers).
void check_tokens(const std::string& rel_path, const cxxlex::TokenStream& toks,
                  std::vector<Finding>& out);

/// Metric names registered in product code (Index::metric_regs, the
/// inventory --dump-metric-names prints) must match the dotted
/// `family.name` grammar and be unique per registration site, so two
/// subsystems cannot silently fold their counts together.
void check_metrics(const Index& index, std::vector<Finding>& out);

/// Functions reachable from fatal-signal handlers (auto-detected
/// `sa_handler =` / `signal(SIG, fn)` registrations plus the
/// flightrec_dump entry points) may only call a POSIX async-signal-safe
/// allowlist or functions proven safe by recursion. Allocation, throw,
/// iostreams, std::string and lock acquisition are flagged.
void check_sigsafe(const CallGraph& graph, std::vector<Finding>& out,
                   std::ostream* explain);

/// Nothing reachable from a scenario run function (INTOX_REGISTER_SCENARIO)
/// may iterate an unordered container in a way that can feed output
/// bytes. Clock and entropy reads are `determinism`'s job, everywhere in
/// product code; hash order is the one hazard that needs reachability.
void check_taint(const CallGraph& graph, std::vector<Finding>& out,
                 std::ostream* explain);

/// In functions marked `// intox-analyze: hot-lane`, atomics must be
/// relaxed or participate in a properly paired release/acquire protocol;
/// seq_cst (explicit or defaulted) is always flagged. Pairing is checked
/// program-wide per receiver: a release store with no acquire-side load
/// anywhere (or vice versa) publishes nothing and is flagged.
void check_atomics(const CallGraph& graph, std::vector<Finding>& out,
                   std::ostream* explain);

/// Names accepted by `--check`, `--explain` and in allow() pragmas,
/// sorted. `pragma` reports malformed and stale suppressions.
const std::vector<std::string>& check_names();

}  // namespace intox::analyze
