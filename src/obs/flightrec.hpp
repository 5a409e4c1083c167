// Always-on flight recorder: lock-free per-thread rings of compact
// typed records, flushed on failure as a schema-versioned dump.
//
// The paper's argument rests on causal timelines — a handful of
// intoxicating inputs arrive, and some time later Blink reroutes, PCC
// walks its rate down, Pytheas re-ranks a group. The metrics plane
// (obs/metrics) shows the aggregates; the flight recorder keeps the
// *chain of events* that produced the last bad decision, cheap enough
// to stay enabled in NDEBUG production runs.
//
// Design:
//  * Each recording thread owns two rings ("lanes") of fixed-size
//    records, registered on its first record and handed on when it
//    exits: the next new thread takes them over, keeping their records
//    and their id. A dump's `tid` therefore names a pair of rings,
//    which successive threads may share. Rings are never freed, so a
//    signal-time dump can read any of them. The lanes are:
//    a hot lane for per-packet/per-event noise (scheduler fires, link
//    drops, attacker packet actions, Blink retransmission hits) and a
//    decision lane for the rare control-plane records (reroutes,
//    vetoes, PCC MI decisions, Pytheas group moves, notes) so
//    data-plane volume cannot evict the decisions a postmortem actually
//    needs.
//  * A record is five 64-bit words (time, type, a, b, c) stored as
//    relaxed atomics: writers are single-threaded per ring, and readers
//    (a concurrent dump) may observe a torn *record* across words but
//    never torn words or a data race — acceptable for forensics, clean
//    under TSan.
//  * Recording never touches stdout, locks, or the allocator after the
//    per-thread slow-path setup, so trial output stays byte-identical
//    at any --threads and the hot path stays within the perf gate.
//  * Dumping is async-signal-safe: flightrec_dump walks the ring
//    registry with open/write(2) and a hand-rolled formatter — no
//    malloc, no stdio — so SIGSEGV/SIGABRT handlers can flush the
//    last-N records per thread. `intox run` commits the same dump when
//    a violated invariant fails the run.
//
// The "time" word is producer-defined: sim::Time nanoseconds for
// scheduler/link/blink/pcc records, the epoch index for Pytheas, 0 when
// no clock is in scope. `intox forensics <dump>` renders the merged,
// (time, tid, seq)-sorted timeline.
//
// Sizes are fixed: 4096 hot-lane and 1024 decision-lane records per
// thread. The crash-dump destination is set only by
// set_flightrec_dump_path (`intox run --flightrec-out FILE`). Recording
// is always on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace intox::obs {

inline constexpr const char* kFlightrecSchema = "intox.flightrec.v2";

enum class FrType : std::uint16_t {
  kNone = 0,
  kSchedFire = 1,       // time=sim ns, a=unused
  kLinkDrop = 2,        // time=sim ns, a=FrDropCause, b=dst addr, c=bytes
  kBlinkRetx = 3,       // time=sim ns, a=prefix addr, b=len, c=retx cells
  kBlinkReroute = 4,    // time=sim ns, a=prefix addr, b=len, c=retx cells
  kBlinkVeto = 5,       // time=sim ns, a=prefix addr, b=len, c=retx cells
  kPccDecision = 6,     // time=sim ns, a=0 incon/1 up/2 down, b=old bps,
                        // c=new bps (inconclusive: c=epsilon ppm)
  kPytheasMove = 7,     // time=epoch, a=group id, b=old arm, c=new arm
  kAttackerAction = 8,  // time=sim ns, a=FrAttackerKind, b/c=kind-specific
  kNote = 9,            // free-form breadcrumb
};
inline constexpr std::size_t kFrTypeCount = 10;

/// Stable display name ("sched.fire", "blink.reroute", ...); "none" for
/// out-of-range values.
const char* flightrec_type_name(FrType type);

/// Link-drop causes carried in kLinkDrop's `a` word.
enum class FrDropCause : std::uint64_t {
  kDown = 1,
  kTap = 2,
  kQueue = 3,
  kRed = 4,
};

/// Attacker-action kinds carried in kAttackerAction's `a` word.
enum class FrAttackerKind : std::uint64_t {
  kPccMitmDrop = 1,    // b=mode (0 omniscient, 1 shaper), c=total dropped
  kBlinkFig2Start = 2  // b=malicious flows, c=legitimate flows
};

/// Appends one record to this thread's lane for `type`. Lock-free,
/// allocation-free after the first call per thread, safe from any
/// thread.
void flightrec_record(FrType type, std::uint64_t time, std::uint64_t a = 0,
                      std::uint64_t b = 0, std::uint64_t c = 0);

/// Names the running scenario in subsequent dumps (truncated copy; the
/// driver calls this before dispatching a scenario body).
void flightrec_set_scenario(const char* name);

/// Crash-dump destination. Empty (the default outside the intox driver)
/// means crashes do not write a dump; the driver sets a pid-suffixed
/// default, which --flightrec-out overrides.
void set_flightrec_dump_path(const std::string& path);

/// Installs the crash plumbing once per process: SIGSEGV/SIGABRT/
/// SIGBUS/SIGFPE/SIGILL handlers that dump to the configured path and
/// re-raise. Idempotent; BenchSession and the intox driver call it
/// automatically.
void flightrec_init();

/// Writes every registered thread's lanes to `path` as an
/// intox.flightrec.v2 document. Async-signal-safe (open/write only).
/// `reason` names the trigger ("signal:SIGSEGV", "invariant",
/// "manual"); `detail` is free text (may be nullptr) — for "invariant",
/// the violation message.
bool flightrec_dump(const char* path, const char* reason,
                    const char* detail);

/// Dumps to the configured path exactly once per process (first caller
/// wins; later crash handlers see the dump already committed). Returns
/// false when already dumped or no path is configured.
bool flightrec_dump_on_crash(const char* reason, const char* detail);

/// Test introspection: total records ever recorded / ring pairs ever
/// registered (monotonic: exited threads' rings are reused, never
/// freed, so a dump from a signal handler can always read them).
std::uint64_t flightrec_records_recorded();
std::size_t flightrec_registered_threads();
/// The id of the calling thread's rings as it appears in dumps
/// (registers the thread if needed).
std::uint32_t flightrec_this_thread_tid();

}  // namespace intox::obs
