#include "src/common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "src/common/json.h"

namespace nearpm {
namespace flags {
namespace {

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

// Reads one value of the field's type; false leaves the field alone.
bool ReadOne(std::string_view text, std::uint64_t /*min*/, std::string* out) {
  *out = text;
  return true;
}
template <typename T>  // an integer field: exact decimal in [min, max of T]
bool ReadOne(std::string_view text, std::uint64_t min, T* out) {
  std::uint64_t v = 0;
  if (!ParseUint(text, &v) || v < min ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}
bool ReadOne(std::string_view text, std::uint64_t min, double* out) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
      v < static_cast<double>(min)) {
    return false;
  }
  *out = v;
  return true;
}

std::string Expected(std::uint64_t /*min*/, const std::string*) {
  return "a non-empty name";
}
template <typename T>
std::string Expected(std::uint64_t min, const T*) {
  return "an integer in [" + std::to_string(min) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "]";
}
std::string Expected(std::uint64_t min, const double*) {
  return "a finite number >= " + std::to_string(min);
}

Status ParseArg(std::string_view arg, std::span<const Flag> table) {
  const std::size_t eq = arg.find('=');
  const auto row = std::find_if(table.begin(), table.end(), [&](const Flag& f) {
    return arg.substr(0, eq) == f.name;
  });
  if (row == table.end()) {
    return InvalidArgument("unknown argument " + std::string(arg));
  }
  const Flag& flag = *row;
  const bool has_value = eq != std::string_view::npos;
  const std::string_view value = has_value ? arg.substr(eq + 1) : "";
  if (const auto* sw = std::get_if<Switch>(&flag.target)) {
    if (has_value) {
      return InvalidArgument(std::string(arg) + ": takes no value");
    }
    *sw->on = true;
    return Status::Ok();
  }
  if (const auto* opt = std::get_if<OptionalUint>(&flag.target);
      opt != nullptr && !has_value) {
    *opt->value = opt->bare;
    return Status::Ok();
  }
  if (value.empty()) {
    return InvalidArgument(std::string(arg) + ": needs a value, as " +
                           flag.name + "=" + flag.value);
  }
  const std::uint64_t min = flag.min;
  std::string expected;
  const bool ok = std::visit(
      Overloaded{
          [&](auto* field) {
            expected = Expected(min, field);
            return ReadOne(value, min, field);
          },
          [&]<typename T>(std::vector<T>* list) {
            expected = "a comma list, each " + Expected(min, list->data());
            std::vector<T> items;
            for (std::string_view rest = value;;) {
              const std::size_t comma = rest.find(',');
              const std::string_view item = rest.substr(0, comma);
              if (item.empty() || !ReadOne(item, min, &items.emplace_back())) {
                return false;
              }
              if (comma == std::string_view::npos) {
                break;
              }
              rest.remove_prefix(comma + 1);
            }
            *list = std::move(items);
            return true;
          },
          [&](Repeated r) {
            r.values->emplace_back(value);
            return true;
          },
          [&](Bool01 b) {
            expected = "0 or 1";
            if (value != "0" && value != "1") {
              return false;
            }
            *b.value = value == "1";
            return true;
          },
          [&](OptionalUint o) {
            expected = Expected(min, o.value);
            return ReadOne(value, min, o.value);
          },
          [](Switch) { return false; },  // handled above
      },
      flag.target);
  if (!ok) {
    return InvalidArgument(std::string(arg) + ": expected " + expected);
  }
  return Status::Ok();
}

}  // namespace

Status Parse(int argc, const char* const* argv, std::span<const Flag> table) {
  for (int i = 1; i < argc; ++i) {
    NEARPM_RETURN_IF_ERROR(ParseArg(argv[i], table));
  }
  return Status::Ok();
}

std::string Usage(const char* argv0, std::span<const Flag> table) {
  std::vector<std::string> forms;
  std::size_t width = 0;
  for (const Flag& row : table) {
    std::string form = row.name;
    if (std::holds_alternative<OptionalUint>(row.target)) {
      form = form + "[=" + row.value + "]";
    } else if (!std::holds_alternative<Switch>(row.target)) {
      form = form + "=" + row.value;
    }
    width = std::max(width, form.size());
    forms.push_back(std::move(form));
  }
  std::string out = std::string("usage: ") + argv0 + " [flags]\n";
  for (std::size_t i = 0; i < forms.size(); ++i) {
    forms[i].resize(width + 2, ' ');
    out += "  " + forms[i] + table[i].help + "\n";
  }
  return out;
}

int UsageError(const char* argv0, std::span<const Flag> table,
               const Status& error) {
  std::fprintf(stderr, "%s\n%s", error.message().c_str(),
               Usage(argv0, table).c_str());
  return 2;
}

bool WriteOutput(const std::string& path, std::string_view text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace flags
}  // namespace nearpm
