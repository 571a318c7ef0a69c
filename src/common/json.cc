#include "src/common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace nearpm {

bool ParseUint(std::string_view text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, 10);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = v;
  return true;
}

namespace json {
namespace {

// Deeper nesting than any schema needs is refused before it can exhaust the
// stack.
constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Value> Document() {
    SkipWs();
    if (Peek() != '{') {
      return Fail("expected '{'");
    }
    StatusOr<Value> object = ParseObject(0);
    if (!object.ok()) {
      return object;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing content after the object");
    }
    return object;
  }

 private:
  Status Fail(const std::string& message) const {
    return InvalidArgument("json: " + message + " at offset " +
                           std::to_string(pos_));
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
           Peek() == '\r') {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // At '{'.
  StatusOr<Value> ParseObject(int depth) {
    if (depth >= kMaxDepth) {
      return Fail("objects nest too deeply");
    }
    ++pos_;
    Value object;
    SkipWs();
    if (Consume('}')) {
      return object;
    }
    while (true) {
      SkipWs();
      const std::size_t key_at = pos_;
      if (Peek() != '"') {
        return Fail("expected a string key");
      }
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      for (const auto& member : object.members) {
        if (member.first == *key) {
          pos_ = key_at;
          return Fail("duplicate key '" + *key + "'");
        }
      }
      SkipWs();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      SkipWs();
      StatusOr<Value> value = ParseValue(depth);
      if (!value.ok()) {
        return value;
      }
      object.members.emplace_back(std::move(*key), std::move(*value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return object;
      }
      return Fail("expected ',' or '}'");
    }
  }

  StatusOr<Value> ParseValue(int depth) {
    const char c = Peek();
    if (c == '{') {
      return ParseObject(depth + 1);
    }
    if (c == '"') {
      StatusOr<std::string> s = ParseString();
      if (!s.ok()) {
        return s.status();
      }
      return Value::String(std::move(*s));
    }
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return Value::Bool(true);
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return Value::Bool(false);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return ParseNumber();
    }
    if (c == '[' || c == 'n') {
      return Fail("arrays and null are not supported");
    }
    return Fail("expected a value");
  }

  // At '"'. Escapes: \" \\ \/ \b \f \n \r \t and \u00XX below 0x80.
  StatusOr<std::string> ParseString() {
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      const char esc = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          const std::string_view hex = text_.substr(pos_ + 2, 4);
          const auto [ptr, ec] =
              std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
          if (hex.size() != 4 || ec != std::errc() ||
              ptr != hex.data() + hex.size() || code >= 0x80) {
            return Fail("unsupported \\u escape (only \\u0000-\\u007f)");
          }
          out.push_back(static_cast<char>(code));
          pos_ += 4;
          break;
        }
        default:
          return Fail("unsupported escape sequence");
      }
      pos_ += 2;
    }
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  StatusOr<Value> ParseNumber() {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t first = pos_;
      while (Peek() >= '0' && Peek() <= '9') {
        ++pos_;
      }
      return pos_ > first;
    };
    bool integer = !Consume('-');
    if (!Consume('0') && !digits()) {
      return Fail("expected a digit");
    }
    if (Consume('.')) {
      integer = false;
      if (!digits()) {
        return Fail("expected a digit after '.'");
      }
    }
    if (Consume('e') || Consume('E')) {
      integer = false;
      if (!Consume('+')) {
        Consume('-');
      }
      if (!digits()) {
        return Fail("expected a digit in the exponent");
      }
    }
    const std::string_view literal = text_.substr(start, pos_ - start);
    if (integer) {
      std::uint64_t n = 0;
      if (!ParseUint(literal, &n)) {
        pos_ = start;
        return Fail("integer does not fit in 64 bits");
      }
      return Value::Uint(n);
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(literal.data(), literal.data() + literal.size(), d);
    if (ec != std::errc() || ptr != literal.data() + literal.size() ||
        !std::isfinite(d)) {
      pos_ = start;
      return Fail("number is out of range");
    }
    return Value::Number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void WriteString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void WriteNumber(double d, std::string* out) {
  char buf[64];
  // Integral values below 2^53 are exact in fixed notation and read back as
  // integer literals; everything else takes the shortest round-trip form.
  const bool integral = std::fabs(d) < 9007199254740992.0 && d == std::trunc(d);
  const auto [ptr, ec] =
      integral ? std::to_chars(buf, buf + sizeof(buf), d,
                               std::chars_format::fixed)
               : std::to_chars(buf, buf + sizeof(buf), d);
  out->append(buf, ptr);
}

void WriteObject(const Value& object, int depth, std::string* out) {
  if (object.members.empty()) {
    out->append("{}");
    return;
  }
  const std::string indent(2 * static_cast<std::size_t>(depth + 1), ' ');
  out->append("{\n");
  for (std::size_t i = 0; i < object.members.size(); ++i) {
    const auto& [key, value] = object.members[i];
    out->append(indent);
    WriteString(key, out);
    out->append(": ");
    switch (value.kind) {
      case Value::Kind::kObject:
        WriteObject(value, depth + 1, out);
        break;
      case Value::Kind::kString:
        WriteString(value.str, out);
        break;
      case Value::Kind::kUint:
        out->append(std::to_string(value.integer));
        break;
      case Value::Kind::kDouble:
        WriteNumber(value.number, out);
        break;
      case Value::Kind::kBool:
        out->append(value.boolean ? "true" : "false");
        break;
    }
    out->append(i + 1 < object.members.size() ? ",\n" : "\n");
  }
  out->append(indent, 0, indent.size() - 2);
  out->push_back('}');
}

}  // namespace

Value Value::String(std::string s) {
  Value v;
  v.kind = Kind::kString;
  v.str = std::move(s);
  return v;
}

Value Value::Uint(std::uint64_t n) {
  Value v;
  v.kind = Kind::kUint;
  v.integer = n;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.kind = Kind::kDouble;
  v.number = d;
  return v;
}

Value Value::Bool(bool b) {
  Value v;
  v.kind = Kind::kBool;
  v.boolean = b;
  return v;
}

Value& Value::Add(std::string key, Value value) {
  members.emplace_back(std::move(key), std::move(value));
  return *this;
}

StatusOr<Value> Parse(std::string_view text) {
  return Parser(text).Document();
}

std::string Write(const Value& object) {
  std::string out;
  WriteObject(object, 0, &out);
  out.push_back('\n');
  return out;
}

Reader::Reader(const Value& object, std::string where, std::string path)
    : object_(&object),
      where_(std::move(where)),
      path_(std::move(path)),
      read_(object.members.size(), false) {}

bool Reader::Has(std::string_view key) const {
  for (const auto& member : object_->members) {
    if (member.first == key) {
      return true;
    }
  }
  return false;
}

const Value* Reader::Find(std::string_view key) {
  for (std::size_t i = 0; i < object_->members.size(); ++i) {
    if (object_->members[i].first == key) {
      read_[i] = true;
      return &object_->members[i].second;
    }
  }
  return nullptr;
}

Status Reader::WrongKind(std::string_view key, const char* want) const {
  return InvalidArgument(where_ + "'" + path_ + std::string(key) +
                         "' must be " + want);
}

Status Reader::CheckUint(std::string_view key, const Value& v,
                         std::uint64_t max) const {
  if (v.kind != Value::Kind::kUint) {
    return WrongKind(key, "a non-negative integer");
  }
  if (v.integer > max) {
    return InvalidArgument(where_ + "'" + path_ + std::string(key) +
                           "' is out of range (at most " +
                           std::to_string(max) + ")");
  }
  return Status::Ok();
}

Status Reader::Get(std::string_view key, std::string* out) {
  const Value* v = Find(key);
  if (v == nullptr) {
    return Status::Ok();
  }
  if (v->kind != Value::Kind::kString) {
    return WrongKind(key, "a string");
  }
  *out = v->str;
  return Status::Ok();
}

Status Reader::Get(std::string_view key, bool* out) {
  const Value* v = Find(key);
  if (v == nullptr) {
    return Status::Ok();
  }
  if (v->kind != Value::Kind::kBool) {
    return WrongKind(key, "a boolean");
  }
  *out = v->boolean;
  return Status::Ok();
}

Status Reader::Get(std::string_view key, double* out) {
  const Value* v = Find(key);
  if (v == nullptr) {
    return Status::Ok();
  }
  if (v->kind == Value::Kind::kUint) {
    *out = static_cast<double>(v->integer);
  } else if (v->kind == Value::Kind::kDouble) {
    *out = v->number;
  } else {
    return WrongKind(key, "a number");
  }
  return Status::Ok();
}

StatusOr<Reader> Reader::Section(std::string_view key) {
  static const Value kEmpty;
  const Value* v = Find(key);
  if (v == nullptr) {
    v = &kEmpty;
  } else if (v->kind != Value::Kind::kObject) {
    return WrongKind(key, "an object");
  }
  return Reader(*v, where_, path_ + std::string(key) + ".");
}

Status Reader::Done() const {
  for (std::size_t i = 0; i < read_.size(); ++i) {
    if (!read_[i]) {
      return InvalidArgument(where_ + "unknown key '" + path_ +
                             object_->members[i].first + "'");
    }
  }
  return Status::Ok();
}

}  // namespace json
}  // namespace nearpm
