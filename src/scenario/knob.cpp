#include "scenario/knob.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace intox::scenario {
namespace {

/// A default or bound as `intox knobs` shows it: a u64 knob's as an
/// exact integer ("%.0f"; declared bounds are far below 2^53, so the
/// double holds them exactly), a double knob's as "%g".
std::string render_number(KnobKind kind, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, kind == KnobKind::kU64 ? "%.0f" : "%g", v);
  return buf;
}

}  // namespace

bool parse_u64(std::string_view text, std::uint64_t* out) {
  // from_chars takes no sign and no leading whitespace for an unsigned
  // type, and reports overflow instead of clamping.
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || end != last) return false;
  *out = v;
  return true;
}

bool parse_double(std::string_view text, double* out) {
  double v = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || end != last || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string render_value(const Knob& knob) {
  if (knob.kind == KnobKind::kU64) return std::to_string(knob.u);
  // Shortest round-trip form: KnobSet::set(render_value(k)) restores
  // the exact bits, and distinct doubles never collide as text.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, knob.d);
  return ec == std::errc{} ? std::string(buf, end) : "nan";
}

std::string render_range(const Knob& knob) {
  return "[" + render_number(knob.kind, knob.min_value) + ", " +
         render_number(knob.kind, knob.max_value) + "]";
}

const char* to_string(KnobKind kind) {
  return kind == KnobKind::kU64 ? "u64" : "double";
}

void KnobSet::declare(Knob knob) {
  if (find(knob.name) != nullptr) {
    throw std::logic_error("knob '" + knob.name + "' declared twice");
  }
  knob.default_text = knob.kind == KnobKind::kU64
                          ? render_value(knob)
                          : render_number(knob.kind, knob.d);
  knobs_.push_back(std::move(knob));
}

void KnobSet::declare_u64(const std::string& name, std::uint64_t def,
                          const std::string& help) {
  Knob k;
  k.name = name;
  k.kind = KnobKind::kU64;
  k.help = help;
  k.u = def;
  declare(std::move(k));
}

void KnobSet::declare_u64(const std::string& name, std::uint64_t def,
                          const std::string& help, std::uint64_t min,
                          std::uint64_t max) {
  Knob k;
  k.name = name;
  k.kind = KnobKind::kU64;
  k.help = help;
  k.u = def;
  k.has_range = true;
  k.min_value = static_cast<double>(min);
  k.max_value = static_cast<double>(max);
  declare(std::move(k));
}

void KnobSet::declare_double(const std::string& name, double def,
                             const std::string& help, double min,
                             double max) {
  Knob k;
  k.name = name;
  k.kind = KnobKind::kDouble;
  k.help = help;
  k.d = def;
  k.has_range = true;
  k.min_value = min;
  k.max_value = max;
  declare(std::move(k));
}

const Knob* KnobSet::find(std::string_view name) const {
  for (const Knob& k : knobs_) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

const Knob& KnobSet::require(std::string_view name, KnobKind kind) const {
  const Knob* k = find(name);
  if (k == nullptr) {
    throw std::logic_error("undeclared knob '" + std::string(name) + "'");
  }
  if (k->kind != kind) {
    throw std::logic_error("knob '" + std::string(name) + "' is " +
                           to_string(k->kind) + ", accessed as " +
                           to_string(kind));
  }
  return *k;
}

std::uint64_t KnobSet::u(std::string_view name) const {
  return require(name, KnobKind::kU64).u;
}

double KnobSet::d(std::string_view name) const {
  return require(name, KnobKind::kDouble).d;
}

std::string KnobSet::declared_names() const {
  std::string out;
  for (const Knob& k : knobs_) {
    out += (out.empty() ? "" : ", ") + k.name;
  }
  return out.empty() ? "<none>" : out;
}

std::string KnobSet::set(const std::string& key, const std::string& value) {
  Knob* knob = nullptr;
  for (Knob& k : knobs_) {
    if (k.name == key) {
      knob = &k;
      break;
    }
  }
  if (knob == nullptr) {
    return "unknown knob '" + key + "' (declared: " + declared_names() + ")";
  }
  std::uint64_t u = 0;
  double d = 0.0;
  if (knob->kind == KnobKind::kU64) {
    if (!parse_u64(value, &u)) {
      return "knob '" + key + "' expects an unsigned integer, got '" +
             value + "'";
    }
    d = static_cast<double>(u);
  } else if (!parse_double(value, &d)) {
    return "knob '" + key + "' expects a finite number, got '" + value + "'";
  }
  // Negated so that a NaN, for which every comparison is false, fails.
  if (knob->has_range && !(d >= knob->min_value && d <= knob->max_value)) {
    return "knob '" + key + "' out of range " + render_range(*knob) + ": " +
           value;
  }
  if (knob->kind == KnobKind::kU64) {
    knob->u = u;
  } else {
    knob->d = d;
  }
  return "";
}

}  // namespace intox::scenario
