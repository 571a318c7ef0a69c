#include "src/obs/slo.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "src/common/json.h"

namespace nearpm {
namespace obs {

Status SloSpec::Validate() const {
  if (schema_version != kSloSchemaVersion) {
    return InvalidArgument("slo schema_version must be " +
                           std::to_string(kSloSchemaVersion) + ", got " +
                           std::to_string(schema_version));
  }
  if (!(window_ns >= 1.0 && window_ns <= 1e15)) {
    return InvalidArgument("slo window_ns must be in [1, 1e15]");
  }
  if (p99_ns < 0 || !std::isfinite(p99_ns)) {
    return InvalidArgument("slo p99_ns must be finite and >= 0");
  }
  if (max_error_rate < 0 || max_error_rate > 1) {
    return InvalidArgument("slo max_error_rate must be in [0, 1]");
  }
  if (max_stall_fraction < 0 || max_stall_fraction > 1) {
    return InvalidArgument("slo max_stall_fraction must be in [0, 1]");
  }
  if (slow_k < 0 || slow_k > 64) {
    return InvalidArgument("slo slow_k must be in [0, 64]");
  }
  return Status::Ok();
}

StatusOr<SloSpec> ParseSloSpec(std::string_view text) {
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return InvalidArgument("slo parse error: " + doc.status().message());
  }
  SloSpec spec;
  json::Reader r(*doc, "slo: ");
  NEARPM_RETURN_IF_ERROR(r.Get("schema_version", &spec.schema_version));
  NEARPM_RETURN_IF_ERROR(r.Get("name", &spec.name));
  NEARPM_RETURN_IF_ERROR(r.Get("p99_ns", &spec.p99_ns));
  NEARPM_RETURN_IF_ERROR(r.Get("max_error_rate", &spec.max_error_rate));
  NEARPM_RETURN_IF_ERROR(
      r.Get("max_stall_fraction", &spec.max_stall_fraction));
  NEARPM_RETURN_IF_ERROR(r.Get("window_ns", &spec.window_ns));
  NEARPM_RETURN_IF_ERROR(r.Get("min_requests", &spec.min_requests));
  NEARPM_RETURN_IF_ERROR(r.Get("slow_k", &spec.slow_k));
  NEARPM_RETURN_IF_ERROR(r.Done());
  NEARPM_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

StatusOr<SloSpec> LoadSloSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return InvalidArgument("cannot open slo spec file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto spec = ParseSloSpec(text.str());
  if (!spec.ok()) {
    return InvalidArgument(path + ": " + spec.status().message());
  }
  return spec;
}

std::string WriteSloSpec(const SloSpec& spec) {
  json::Value out;
  out.Add("schema_version", json::Value::Number(spec.schema_version))
      .Add("name", json::Value::String(spec.name))
      .Add("p99_ns", json::Value::Number(spec.p99_ns))
      .Add("max_error_rate", json::Value::Number(spec.max_error_rate))
      .Add("max_stall_fraction", json::Value::Number(spec.max_stall_fraction))
      .Add("window_ns", json::Value::Number(spec.window_ns))
      .Add("min_requests", json::Value::Uint(spec.min_requests))
      .Add("slow_k", json::Value::Number(spec.slow_k));
  return json::Write(out);
}

}  // namespace obs
}  // namespace nearpm
