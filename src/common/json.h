// Strict JSON reader and canonical writer for the repo's small input files:
// hardware configs (src/hwmodel), SLO specs (src/obs), crash repros
// (src/fuzz) and litmus repros (src/spec). DESIGN.md section 2
// ("src/common/json") states the accepted grammar and the strictness rules.
//
// A file is one object. Values are objects, strings, numbers and booleans;
// arrays and null are rejected because no schema uses them. An integer
// literal (no sign, fraction or exponent) is kept as an exact uint64 and
// overflow is an error; any other number is a finite double. Duplicate
// keys, trailing content, unsupported escapes and raw control characters
// in strings are errors that carry the byte offset.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace nearpm {

// Exact decimal parse of all of `text`: digits only, no sign, no
// whitespace, no overflow. The JSON integer scan and the CLIs' numeric
// flags share it.
bool ParseUint(std::string_view text, std::uint64_t* out);

namespace json {

struct Value {
  enum class Kind { kObject, kString, kUint, kDouble, kBool };
  Kind kind = Kind::kObject;
  std::string str;
  std::uint64_t integer = 0;
  double number = 0.0;
  bool boolean = false;
  // Object members in file (or insertion) order; keys are unique.
  std::vector<std::pair<std::string, Value>> members;

  static Value String(std::string s);
  static Value Uint(std::uint64_t n);
  static Value Number(double d);
  static Value Bool(bool b);

  // Appends a member to an object (the writer side); returns *this so a
  // schema writer reads as one chain.
  Value& Add(std::string key, Value value);
};

// Parses text holding exactly one object.
StatusOr<Value> Parse(std::string_view text);

// Canonical text of an object: one member per line in member order, two
// spaces of indent per nesting level, a trailing newline. Strings escape
// '"', '\' and control characters; an integral number is written without a
// fraction, any other number in its shortest round-trip form.
std::string Write(const Value& object);

// Typed, strict view of one parsed object for a schema walker. Each getter
// checks the member's kind and, for integers, the target type's range; an
// absent member leaves *out unchanged. Done() rejects every member no
// getter asked for, so an unknown key is caught in one place.
class Reader {
 public:
  // `where` prefixes every error (e.g. "hwconfig: "), `path` every key.
  Reader(const Value& object, std::string where, std::string path = "");

  bool Has(std::string_view key) const;

  Status Get(std::string_view key, std::string* out);
  Status Get(std::string_view key, bool* out);
  // Accepts any number; an integer literal converts to double.
  Status Get(std::string_view key, double* out);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Status Get(std::string_view key, T* out) {
    const Value* v = Find(key);
    if (v == nullptr) {
      return Status::Ok();
    }
    NEARPM_RETURN_IF_ERROR(CheckUint(
        key, *v, static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
    *out = static_cast<T>(v->integer);
    return Status::Ok();
  }

  // Like Get, but an absent member is an error.
  template <typename T>
  Status Require(std::string_view key, T* out) {
    if (!Has(key)) {
      return InvalidArgument(where_ + "missing field '" + path_ +
                             std::string(key) + "'");
    }
    return Get(key, out);
  }

  // Nested object `key`; an absent member reads as an empty object.
  StatusOr<Reader> Section(std::string_view key);

  Status Done() const;

 private:
  // Marks `key` read; nullptr when it is absent.
  const Value* Find(std::string_view key);
  Status WrongKind(std::string_view key, const char* want) const;
  Status CheckUint(std::string_view key, const Value& v,
                   std::uint64_t max) const;

  const Value* object_;
  std::string where_;
  std::string path_;
  std::vector<bool> read_;
};

}  // namespace json
}  // namespace nearpm

#endif  // SRC_COMMON_JSON_H_
