// The one JSON unit of the observability layer: a serializer, a reader
// and the file helpers every artifact goes through.
//
// Every machine-readable artifact this repo emits — the per-sweep perf
// lines, the BENCH_<family>.json run reports, point records, sweep
// reports — goes through JsonWriter so string escaping and number
// formatting are correct in one place. json_parse reads back point
// records and flightrec dumps; it is not a general-purpose parser:
// UTF-8 only, \uXXXX limited to the BMP, and the first error is
// reported with a byte offset.
//
// Numbers: doubles are rendered with std::to_chars (shortest round-trip
// form); NaN and infinities have no JSON representation and are emitted
// as null.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace intox::obs {

/// Returns `s` with JSON string escapes applied ("\"", "\\", control
/// characters as \u00XX, and the common \n \r \t \b \f short forms).
/// Bytes >= 0x20 other than quote/backslash pass through untouched, so
/// UTF-8 payloads survive.
std::string json_escape(std::string_view s);

/// Renders a double as a JSON number token (shortest round-trip), or
/// "null" for NaN / infinity.
std::string json_number(double v);

/// Parsed JSON node. Object members keep source order so deterministic
/// inputs produce deterministic traversals.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                               // kArray
  std::vector<std::pair<std::string, JsonValue>> members;     // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* find(std::string_view key) const;

  /// Value as u64 (truncating); 0 for non-numbers.
  std::uint64_t as_u64() const;
  /// Value as double; 0.0 for non-numbers.
  double as_number() const;
};

/// A streaming JSON writer with comma/nesting bookkeeping. Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("schema").value("intox.bench_report.v2");
///   w.key("sweeps").begin_array();
///   ...
///   w.end_array().end_object();
///   file << w.str();
///
/// The writer trusts its caller to produce a well-formed sequence (keys
/// only inside objects, matched begin/end); it is an internal tool, not
/// a validator.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view{s}); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(bool v);
  /// Splices a pre-rendered JSON token (e.g. a nested document).
  JsonWriter& raw(std::string_view token);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void element_prefix();

  std::string out_;
  // One flag per open scope: has the scope already emitted an element?
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

/// Parses `input` into `*out`. On failure returns false and describes
/// the first error (with byte offset) in `*error` when non-null.
bool json_parse(std::string_view input, JsonValue* out, std::string* error);

/// Reads and parses a whole file; distinguishes I/O from syntax errors
/// in `*error`.
bool json_parse_file(const std::string& path, JsonValue* out,
                     std::string* error);

/// Reads the whole file at `path` into `*out`. Returns false when it
/// cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

/// Writes `content` to `path` in place, so a device path such as
/// /dev/stdout works. Returns false when the open, the write or the
/// close fails, with the diagnostic in `*error` when non-null.
bool write_file(const std::string& path, std::string_view content,
                std::string* error);

/// Writes `content` to `path` via write-temp-then-rename within the
/// destination directory, so the path only ever holds a complete file
/// (POSIX rename is atomic on one filesystem). The pid in the temp name
/// keeps two processes committing one path from trampling each other's
/// half-written bytes. Returns false on failure, with the diagnostic in
/// `*error` when non-null.
bool commit_file(const std::string& path, std::string_view content,
                 std::string* error);

}  // namespace intox::obs
