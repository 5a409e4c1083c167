// Fixture: suppressions that suppress nothing are themselves findings
// (the checked-in pragma inventory must not rot). Both must fire.
#include <cstdint>

namespace intox::fixture {

// intox-analyze: allow(determinism, justified yet stale)
inline std::uint64_t nothing_to_suppress() { return 7; }  // line 8

// An unknown check name in a pragma is malformed. Fires at line 11:
// intox-analyze: allow(made-up-check, justified yet unknown)
inline std::uint64_t also_clean() { return 8; }

}  // namespace intox::fixture
