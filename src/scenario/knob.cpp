#include "scenario/knob.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace intox::scenario {
namespace {

std::string render_default(const Knob& knob) {
  char buf[64];
  switch (knob.kind) {
    case KnobKind::kU64:
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(knob.u));
      return buf;
    case KnobKind::kDouble:
      std::snprintf(buf, sizeof buf, "%g", knob.d);
      return buf;
    case KnobKind::kString:
      return knob.s;
  }
  return "";
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

std::string render_value(const Knob& knob) {
  switch (knob.kind) {
    case KnobKind::kU64: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(knob.u));
      return buf;
    }
    case KnobKind::kDouble: {
      // Shortest round-trip form: KnobSet::set(render_value(k)) restores
      // the exact bits, and distinct doubles never collide as text.
      char buf[32];
      const auto [end, ec] =
          std::to_chars(buf, buf + sizeof buf, knob.d);
      return ec == std::errc{} ? std::string(buf, end) : "nan";
    }
    case KnobKind::kString:
      return knob.s;
  }
  return "";
}

const char* to_string(KnobKind kind) {
  switch (kind) {
    case KnobKind::kU64:
      return "u64";
    case KnobKind::kDouble:
      return "double";
    case KnobKind::kString:
      return "string";
  }
  return "?";
}

void KnobSet::declare(Knob knob) {
  if (find(knob.name) != nullptr) {
    throw std::logic_error("knob '" + knob.name + "' declared twice");
  }
  knob.default_text = render_default(knob);
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
                             const std::string& help) {
  Knob k;
  k.name = name;
  k.kind = KnobKind::kDouble;
  k.help = help;
  k.d = def;
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

void KnobSet::declare_string(const std::string& name, const std::string& def,
                             const std::string& help) {
  Knob k;
  k.name = name;
  k.kind = KnobKind::kString;
  k.help = help;
  k.s = def;
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

const std::string& KnobSet::s(std::string_view name) const {
  return require(name, KnobKind::kString).s;
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
  switch (knob->kind) {
    case KnobKind::kU64: {
      std::uint64_t parsed = 0;
      if (!parse_u64(value, &parsed)) {
        return "knob '" + key + "' expects an unsigned integer, got '" +
               value + "'";
      }
      const double as_double = static_cast<double>(parsed);
      if (knob->has_range &&
          (as_double < knob->min_value || as_double > knob->max_value)) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "knob '%s' out of range [%.0f, %.0f]: %s",
                      key.c_str(), knob->min_value, knob->max_value,
                      value.c_str());
        return buf;
      }
      knob->u = parsed;
      return "";
    }
    case KnobKind::kDouble: {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || end == value.c_str() || *end != '\0') {
        return "knob '" + key + "' expects a number, got '" + value + "'";
      }
      if (knob->has_range &&
          (parsed < knob->min_value || parsed > knob->max_value)) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "knob '%s' out of range [%g, %g]: %s",
                      key.c_str(), knob->min_value, knob->max_value,
                      value.c_str());
        return buf;
      }
      knob->d = parsed;
      return "";
    }
    case KnobKind::kString: {
      knob->s = value;
      return "";
    }
  }
  return "knob '" + key + "' has an unknown kind";
}

}  // namespace intox::scenario
