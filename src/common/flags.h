// Table-driven command-line flags for the tools/nearpm_* CLIs (DESIGN.md
// section 2, "src/common/flags"). A tool declares one row per flag; Parse()
// fills the fields from argv and Usage() renders the help from the same
// table. Arguments are "--name" or "--name=value". The field's type picks the
// value kind:
//
//   std::string*                  non-empty text
//   int*, uint32_t*, uint64_t*    exact decimal in [row.min, max of the type]
//   double*                       finite number >= row.min
//   std::vector<std::string|int|double>*
//                                 comma list of the above; replaces the field
//   Repeated / Switch / Bool01 / OptionalUint  as documented below
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/common/status.h"

namespace nearpm {
namespace flags {

struct Repeated {  // non-empty text, appended per occurrence
  std::vector<std::string>* values;
};
struct Switch {  // bare "--name" only; sets the bool
  bool* on;
};
struct Bool01 {  // exactly "0" or "1"
  bool* value;
};
struct OptionalUint {  // "--name" stores `bare`; "--name=N" stores N
  std::uint64_t* value;
  std::uint64_t bare;
};

using Target =
    std::variant<std::string*, int*, std::uint32_t*, std::uint64_t*, double*,
                 std::vector<std::string>*, std::vector<int>*,
                 std::vector<double>*, Repeated, Switch, Bool01, OptionalUint>;

struct Flag {
  const char* name;  // "--seeds"
  Target target;
  const char* value;  // usage placeholder ("N", "FILE"); unused by Switch
  const char* help;
  std::uint64_t min = 0;  // lower bound of numbers and list elements
};

// Reads argv[1..argc) into the table's fields. The first bad argument stops
// the parse with an InvalidArgument that names it.
Status Parse(int argc, const char* const* argv, std::span<const Flag> table);

std::string Usage(const char* argv0, std::span<const Flag> table);

// Prints `error`'s message and Usage() to stderr; returns 2, the CLIs' exit
// code for a bad command line.
int UsageError(const char* argv0, std::span<const Flag> table,
               const Status& error);

}  // namespace flags
}  // namespace nearpm

#endif  // SRC_COMMON_FLAGS_H_
