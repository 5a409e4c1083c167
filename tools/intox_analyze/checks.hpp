// The checks. Three enforce line-local project conventions on the token
// stream; three read the index. Each appends findings; the index checks
// also print the evidence they ran on (the signal-path functions, the
// taint scope, atomic pairing tables) when `explain` is non-null, for
// humans and for CI assertions.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "index.hpp"
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

/// The fatal-signal path starts at each registered handler (auto-detected
/// `sa_handler =` / `signal(SIG, fn)` registrations) and at the
/// flightrec_dump entry points, and follows calls by name through the
/// functions defined in that root's own file. Every call it cannot
/// resolve there must be on a POSIX async-signal-safe allowlist.
/// Allocation, throw, iostreams, std::string and lock acquisition on the
/// path are flagged.
void check_sigsafe(const Index& index, std::vector<Finding>& out,
                   std::ostream* explain);

/// No function in product code may iterate an unordered container: hash
/// order can feed output bytes. Clock and entropy reads are
/// `determinism`'s job.
void check_taint(const Index& index, std::vector<Finding>& out,
                 std::ostream* explain);

/// In functions marked `// intox-analyze: hot-lane`, atomics must be
/// relaxed or participate in a properly paired release/acquire protocol;
/// seq_cst (explicit or defaulted) is always flagged. Pairing is checked
/// program-wide per receiver: a release store with no acquire-side load
/// anywhere (or vice versa) publishes nothing and is flagged.
void check_atomics(const Index& index, std::vector<Finding>& out,
                   std::ostream* explain);

/// Names accepted by `--check`, `--explain` and in allow() pragmas,
/// sorted. `pragma` reports malformed and stale suppressions.
const std::vector<std::string>& check_names();

}  // namespace intox::analyze
