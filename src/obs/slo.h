// Declarative SLO specification (schema v1).
//
// An SLO is the contract the watchdog enforces live: bounds over the
// sliding-window view of the service (src/obs/window.h), checked at batch
// boundaries. The spec is a small versioned JSON file so a load run can be
// pointed at configs/slo-default.json (or a deliberately tight variant in
// CI) without recompiling, in the same spirit as the hwmodel geometry
// configs: unknown keys, duplicate keys, malformed values and out-of-range
// bounds are hard errors, and WriteSloSpec(ParseSloSpec(text)) round-trips
// exactly.
#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/sim/cost_model.h"

namespace nearpm {
namespace obs {

inline constexpr int kSloSchemaVersion = 1;

struct SloSpec {
  int schema_version = kSloSchemaVersion;
  std::string name = "default";

  // Bounds. A bound <= 0 disables that rule.
  double p99_ns = 0.0;              // window p99 request latency, sim ns
  double max_error_rate = 0.0;      // failed / completed, in [0, 1]
  double max_stall_fraction = 0.0;  // rejected / submitted since last check

  // Window shape and arming thresholds.
  double window_ns = 1e9;           // sliding-window width, sim ns
  std::uint64_t min_requests = 32;  // window population before the latency
                                    // and error rules arm (noise floor)
  int slow_k = 4;                   // slowest request ids tagged per alert

  Status Validate() const;
};

// Parses a spec from its JSON text, read by src/common/json (grammar and
// strictness rules: DESIGN.md section 2). Schema:
//
//   {
//     "schema_version": 1,          // optional, must equal 1 when present
//     "name": "default",            // optional label
//     "p99_ns": 2000000,
//     "max_error_rate": 0.01,
//     "max_stall_fraction": 0.05,
//     "window_ns": 1000000000,
//     "min_requests": 32,
//     "slow_k": 4
//   }
StatusOr<SloSpec> ParseSloSpec(std::string_view text);

// Reads and parses `path`. Errors are prefixed with the file name.
StatusOr<SloSpec> LoadSloSpecFile(const std::string& path);

// Canonical serialization: every field explicit, key order fixed,
// Parse(Write(s)) == s.
std::string WriteSloSpec(const SloSpec& spec);

}  // namespace obs
}  // namespace nearpm

#endif  // SRC_OBS_SLO_H_
