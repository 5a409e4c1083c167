#include "obs/json.hpp"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace intox::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void JsonWriter::element_prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  element_prefix();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  needs_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  element_prefix();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  needs_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  element_prefix();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  element_prefix();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  element_prefix();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  element_prefix();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  element_prefix();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  element_prefix();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view token) {
  element_prefix();
  out_ += token;
  return *this;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      fill_error(error);
      return false;
    }
    skip_ws();
    if (pos_ != input_.size()) {
      message_ = "trailing content after top-level value";
      fill_error(error);
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* message) {
    if (message_ == nullptr) message_ = message;
    return false;
  }

  void fill_error(std::string* error) const {
    if (error == nullptr) return;
    *error = std::string(message_ != nullptr ? message_ : "parse error") +
             " at byte " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < input_.size()) {
      const char ch = input_[pos_];
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (input_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= input_.size()) return fail("unexpected end of input");
    switch (input_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return parse_string(&out->text);
      case 't':
        if (!literal("true")) return fail("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("invalid literal");
        out->kind = JsonValue::Kind::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < input_.size() && input_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= input_.size() || input_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= input_.size()) return fail("unterminated object");
      if (input_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (input_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < input_.size() && input_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value, depth + 1)) return false;
      out->items.push_back(std::move(value));
      skip_ws();
      if (pos_ >= input_.size()) return fail("unterminated array");
      if (input_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (input_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  static void append_utf8(std::string* out, unsigned code_point) {
    if (code_point < 0x80) {
      out->push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code_point >> 6)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xe0 | (code_point >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < input_.size()) {
      const char ch = input_[pos_];
      if (ch == '"') {
        ++pos_;
        return true;
      }
      if (ch == '\\') {
        ++pos_;
        if (pos_ >= input_.size()) return fail("unterminated escape");
        const char esc = input_[pos_++];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > input_.size()) return fail("truncated \\u escape");
            unsigned code_point = 0;
            for (int i = 0; i < 4; ++i) {
              const char hex = input_[pos_++];
              code_point <<= 4;
              if (hex >= '0' && hex <= '9') {
                code_point |= static_cast<unsigned>(hex - '0');
              } else if (hex >= 'a' && hex <= 'f') {
                code_point |= static_cast<unsigned>(hex - 'a' + 10);
              } else if (hex >= 'A' && hex <= 'F') {
                code_point |= static_cast<unsigned>(hex - 'A' + 10);
              } else {
                return fail("invalid \\u escape");
              }
            }
            append_utf8(out, code_point);
            break;
          }
          default:
            return fail("invalid escape character");
        }
        continue;
      }
      out->push_back(ch);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool next_is(char ch) const {
    return pos_ < input_.size() && input_[pos_] == ch;
  }

  /// Advances past a run of digits; false when there is none.
  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < input_.size() && input_[pos_] >= '0' &&
           input_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > from;
  }

  bool parse_number(JsonValue* out) {
    // JSON's grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
    // comes first: from_chars alone also reads inf, nan, ".5" and "1.".
    // A leading 0 is the whole integer part, so "01" leaves a trailing
    // "1" that the caller refuses.
    const std::size_t begin = pos_;
    if (next_is('-')) ++pos_;
    if (next_is('0')) {
      ++pos_;
    } else if (!digits()) {
      return fail(pos_ == begin ? "invalid value" : "invalid number");
    }
    if (next_is('.')) {
      ++pos_;
      if (!digits()) return fail("invalid number");
    }
    if (next_is('e') || next_is('E')) {
      ++pos_;
      if (next_is('+') || next_is('-')) ++pos_;
      if (!digits()) return fail("invalid number");
    }
    double value = 0.0;
    if (std::from_chars(input_.data() + begin, input_.data() + pos_, value)
            .ec != std::errc{}) {
      return fail("number out of range");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  const char* message_ = nullptr;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::uint64_t JsonValue::as_u64() const {
  if (kind != Kind::kNumber) return 0;
  if (number <= 0.0) return 0;
  return static_cast<std::uint64_t>(number);
}

double JsonValue::as_number() const {
  return kind == Kind::kNumber ? number : 0.0;
}

bool json_parse(std::string_view input, JsonValue* out, std::string* error) {
  Parser parser(input);
  return parser.parse(out, error);
}

bool json_parse_file(const std::string& path, JsonValue* out,
                     std::string* error) {
  std::string content;
  if (!read_file(path, &content)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  return json_parse(content, out, error);
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, std::string_view content,
                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot write " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

bool commit_file(const std::string& path, std::string_view content,
                 std::string* error) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  if (!write_file(tmp, content, error)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot commit " + path + ": " + std::strerror(errno);
    }
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace intox::obs
