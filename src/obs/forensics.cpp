#include "obs/forensics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"

namespace intox::obs {

namespace {

std::string ipv4_text(std::uint64_t addr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u",
                static_cast<unsigned>((addr >> 24) & 0xff),
                static_cast<unsigned>((addr >> 16) & 0xff),
                static_cast<unsigned>((addr >> 8) & 0xff),
                static_cast<unsigned>(addr & 0xff));
  return buf;
}

std::string prefix_text(std::uint64_t addr, std::uint64_t len) {
  return ipv4_text(addr) + "/" + std::to_string(len);
}

const char* drop_cause_name(std::uint64_t cause) {
  switch (static_cast<FrDropCause>(cause)) {
    case FrDropCause::kDown:
      return "down";
    case FrDropCause::kTap:
      return "tap";
    case FrDropCause::kQueue:
      return "queue";
    case FrDropCause::kRed:
      return "red";
  }
  return "unknown";
}

std::string mbps_text(std::uint64_t bps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(bps) / 1e6);
  return std::string(buf) + " Mbps";
}

/// Type-specific one-line decode of a record's payload words.
std::string describe(const FlightrecRecord& r) {
  switch (r.type) {
    case FrType::kSchedFire:
      return "";
    case FrType::kLinkDrop:
      return "cause=" + std::string(drop_cause_name(r.a)) +
             " dst=" + ipv4_text(r.b) + " bytes=" + std::to_string(r.c);
    case FrType::kBlinkRetx:
      return "prefix=" + prefix_text(r.a, r.b) +
             " retransmitting_flows=" + std::to_string(r.c);
    case FrType::kBlinkReroute:
      return "REROUTE prefix=" + prefix_text(r.a, r.b) +
             " retransmitting_flows=" + std::to_string(r.c);
    case FrType::kBlinkVeto:
      return "veto prefix=" + prefix_text(r.a, r.b) +
             " retransmitting_flows=" + std::to_string(r.c);
    case FrType::kPccDecision:
      if (r.a == 0) return "inconclusive (rate held at " + mbps_text(r.c) + ")";
      return std::string(r.a == 1 ? "rate UP " : "rate DOWN ") +
             mbps_text(r.b) + " -> " + mbps_text(r.c);
    case FrType::kPytheasMove:
      return "group " + std::to_string(r.a) + " arm " + std::to_string(r.b) +
             " -> " + std::to_string(r.c);
    case FrType::kAttackerAction:
      switch (static_cast<FrAttackerKind>(r.a)) {
        case FrAttackerKind::kPccMitmDrop:
          return std::string("pcc-mitm drop (mode=") +
                 (r.b == 0 ? "omniscient" : "shaper") +
                 ", total_dropped=" + std::to_string(r.c) + ")";
        case FrAttackerKind::kBlinkFig2Start:
          return "blink fig2 attack start (malicious_flows=" +
                 std::to_string(r.b) + ", legit_flows=" + std::to_string(r.c) +
                 ")";
      }
      return "kind=" + std::to_string(r.a) + " b=" + std::to_string(r.b) +
             " c=" + std::to_string(r.c);
    case FrType::kNote:
      return "a=" + std::to_string(r.a) + " b=" + std::to_string(r.b) +
             " c=" + std::to_string(r.c);
    case FrType::kNone:
      break;
  }
  return "";
}

/// Sim-time words are nanoseconds for every producer except Pytheas
/// (epoch index); render both readings where ambiguity is harmless.
std::string time_text(const FlightrecRecord& r) {
  if (r.type == FrType::kPytheasMove) {
    return "epoch " + std::to_string(r.time);
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%13.6f s",
                static_cast<double>(r.time) / 1e9);
  return buf;
}

}  // namespace

bool load_flightrec_dump(const std::string& path, FlightrecDump* out,
                         std::string* error) {
  JsonValue doc;
  if (!json_parse_file(path, &doc, error)) return false;
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->text != kFlightrecSchema) {
    if (error != nullptr) {
      *error = path + ": not an " + std::string(kFlightrecSchema) +
               " document";
    }
    return false;
  }

  *out = FlightrecDump{};
  if (const JsonValue* v = doc.find("pid")) out->pid = v->as_u64();
  if (const JsonValue* v = doc.find("reason")) out->reason = v->text;
  if (const JsonValue* v = doc.find("detail")) out->detail = v->text;
  if (const JsonValue* v = doc.find("scenario")) out->scenario = v->text;
  if (const JsonValue* v = doc.find("dropped_threads")) {
    out->dropped_threads = v->as_u64();
  }

  const JsonValue* threads = doc.find("threads");
  if (threads == nullptr || !threads->is_array()) {
    if (error != nullptr) *error = path + ": missing threads array";
    return false;
  }
  for (const JsonValue& thread : threads->items) {
    const JsonValue* tid_value = thread.find("tid");
    const JsonValue* lanes = thread.find("lanes");
    if (tid_value == nullptr || lanes == nullptr || !lanes->is_array()) {
      continue;
    }
    const auto tid = static_cast<std::uint32_t>(tid_value->as_u64());
    for (const JsonValue& lane : lanes->items) {
      const JsonValue* records = lane.find("records");
      if (records == nullptr || !records->is_array()) continue;
      if (const JsonValue* dropped = lane.find("dropped")) {
        out->dropped_records += dropped->as_u64();
      }
      std::uint64_t seq = 0;
      for (const JsonValue& rec : records->items) {
        if (!rec.is_array() || rec.items.size() != 5) continue;
        FlightrecRecord r;
        r.time = rec.items[0].as_u64();
        const std::uint64_t type_word = rec.items[1].as_u64();
        r.type = type_word < kFrTypeCount ? static_cast<FrType>(type_word)
                                          : FrType::kNone;
        r.a = rec.items[2].as_u64();
        r.b = rec.items[3].as_u64();
        r.c = rec.items[4].as_u64();
        r.tid = tid;
        r.seq = seq++;
        out->records.push_back(r);
      }
    }
  }

  std::stable_sort(out->records.begin(), out->records.end(),
                   [](const FlightrecRecord& x, const FlightrecRecord& y) {
                     if (x.time != y.time) return x.time < y.time;
                     if (x.tid != y.tid) return x.tid < y.tid;
                     return x.seq < y.seq;
                   });
  return true;
}

std::string render_flightrec_timeline(const FlightrecDump& dump) {
  std::string out;
  out += "flight recorder dump (" + std::string(kFlightrecSchema) + ")\n";
  out += "  scenario: " +
         (dump.scenario.empty() ? std::string("(unset)") : dump.scenario) +
         "\n";
  out += "  reason:   " + dump.reason + "\n";
  if (!dump.detail.empty()) out += "  detail:   " + dump.detail + "\n";
  out += "  pid:      " + std::to_string(dump.pid) + "\n";
  out += "  records:  " + std::to_string(dump.records.size()) + " kept, " +
         std::to_string(dump.dropped_records) + " overwritten";
  if (dump.dropped_threads > 0) {
    out += ", " + std::to_string(dump.dropped_threads) +
           " threads unrecorded";
  }
  out += "\n\ntimeline (merged across threads, oldest first):\n";
  if (dump.records.empty()) {
    out += "  (no records)\n";
    return out;
  }
  for (const FlightrecRecord& r : dump.records) {
    out += "  [" + time_text(r) + "] t" + std::to_string(r.tid) + " " +
           flightrec_type_name(r.type);
    const std::string detail = describe(r);
    if (!detail.empty()) out += "  " + detail;
    out += "\n";
  }
  return out;
}

}  // namespace intox::obs
