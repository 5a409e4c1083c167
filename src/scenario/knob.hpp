// Typed experiment knobs: the declarative half of a Scenario.
//
// Every scenario declares its tunable parameters once — name, type,
// default, range, help text — and the `intox` driver's strict
// `--set`/`--sweep`/`--config` parsing applies values through the
// KnobSet. Unknown keys, malformed values and out-of-range numbers are
// rejected with a one-line diagnostic instead of silently falling
// through to a default.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace intox::scenario {

enum class KnobKind { kU64, kDouble };

/// Parses `text` as a decimal unsigned integer: one or more digits and
/// nothing else (no sign, no whitespace), within u64 range. Returns
/// false, leaving *out untouched, otherwise.
[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t* out);

/// Parses all of `text` as a finite decimal number (std::from_chars: no
/// leading whitespace or '+', no hex, no nan or inf). Returns false,
/// leaving *out untouched, otherwise.
[[nodiscard]] bool parse_double(std::string_view text, double* out);

const char* to_string(KnobKind kind);

struct Knob;

/// Renders a knob's *current* value as text that round-trips exactly
/// through KnobSet::set (doubles in shortest round-trip form). This is
/// the canonical form the sweep cache keys and point records use — two
/// distinct values never render to the same string.
std::string render_value(const Knob& knob);

/// Renders a ranged knob's bounds as "[min, max]": exact integers for a
/// u64 knob, %g for a double one.
std::string render_range(const Knob& knob);

struct Knob {
  std::string name;
  KnobKind kind = KnobKind::kU64;
  std::string help;
  // Current value; only the member matching `kind` is meaningful.
  std::uint64_t u = 0;
  double d = 0.0;
  /// The declared default, pre-rendered for `intox knobs`.
  std::string default_text;
  /// Inclusive range; every double knob has a finite one.
  bool has_range = false;
  double min_value = 0.0;
  double max_value = 0.0;
};

class KnobSet {
 public:
  void declare_u64(const std::string& name, std::uint64_t def,
                   const std::string& help);
  void declare_u64(const std::string& name, std::uint64_t def,
                   const std::string& help, std::uint64_t min,
                   std::uint64_t max);
  void declare_double(const std::string& name, double def,
                      const std::string& help, double min, double max);

  /// Typed accessors; a wrong name or kind is a programming error in the
  /// scenario body and throws std::logic_error.
  [[nodiscard]] std::uint64_t u(std::string_view name) const;
  [[nodiscard]] double d(std::string_view name) const;

  /// Strictly applies one key/value pair. Returns an empty string on
  /// success, else the one-line diagnostic the caller should print.
  [[nodiscard]] std::string set(const std::string& key,
                                const std::string& value);

  [[nodiscard]] const Knob* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Knob>& all() const { return knobs_; }

 private:
  void declare(Knob knob);
  [[nodiscard]] const Knob& require(std::string_view name,
                                    KnobKind kind) const;
  [[nodiscard]] std::string declared_names() const;

  std::vector<Knob> knobs_;
};

}  // namespace intox::scenario
