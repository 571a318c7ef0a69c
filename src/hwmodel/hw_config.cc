#include "src/hwmodel/hw_config.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/json.h"

namespace nearpm {
namespace hwmodel {

namespace {

// ---- CostModel field table ---------------------------------------------------

constexpr CostField kCostFields[] = {
    {"cpu_copy_base_ns", &CostModel::cpu_copy_base_ns},
    {"cpu_copy_per_line_ns", &CostModel::cpu_copy_per_line_ns},
    {"cpu_flush_line_ns", &CostModel::cpu_flush_line_ns},
    {"cpu_drain_ns", &CostModel::cpu_drain_ns},
    {"cpu_fence_ns", &CostModel::cpu_fence_ns},
    {"cpu_cached_read_ns", &CostModel::cpu_cached_read_ns},
    {"cpu_pm_read_ns", &CostModel::cpu_pm_read_ns},
    {"cpu_store_line_ns", &CostModel::cpu_store_line_ns},
    {"cpu_metadata_ns", &CostModel::cpu_metadata_ns},
    {"cpu_log_delete_ns", &CostModel::cpu_log_delete_ns},
    {"cpu_alloc_ns", &CostModel::cpu_alloc_ns},
    {"cpu_page_switch_ns", &CostModel::cpu_page_switch_ns},
    {"cmd_post_ns", &CostModel::cmd_post_ns},
    {"cmd_device_pipeline_ns", &CostModel::cmd_device_pipeline_ns},
    {"cpu_poll_round_ns", &CostModel::cpu_poll_round_ns},
    {"ndp_setup_ns", &CostModel::ndp_setup_ns},
    {"ndp_dma_ns_per_byte", &CostModel::ndp_dma_ns_per_byte},
    {"ndp_ls_per_line_ns", &CostModel::ndp_ls_per_line_ns},
    {"ndp_metadata_ns", &CostModel::ndp_metadata_ns},
    {"ndp_log_delete_ns", &CostModel::ndp_log_delete_ns},
    {"ndp_remote_status_ns", &CostModel::ndp_remote_status_ns},
    {"net_link_latency_ns", &CostModel::net_link_latency_ns},
    {"net_link_ns_per_byte", &CostModel::net_link_ns_per_byte},
    {"net_frame_bytes", &CostModel::net_frame_bytes},
    {"net_doorbell_ns", &CostModel::net_doorbell_ns},
};
constexpr std::size_t kNumCostFields =
    sizeof(kCostFields) / sizeof(kCostFields[0]);
// Every CostModel constant must have a row: the struct is doubles only, so
// its size pins the count.
static_assert(sizeof(CostModel) == kNumCostFields * sizeof(double),
              "CostModel gained a field; add it to kCostFields");

// A positive GB/s alias for a per-byte rate constant.
Status ApplyRate(json::Reader* section, const char* key,
                 double* ns_per_byte) {
  if (!section->Has(key)) {
    return Status::Ok();
  }
  double gbps = 0.0;
  NEARPM_RETURN_IF_ERROR(section->Get(key, &gbps));
  if (!(gbps > 0.0)) {
    return InvalidArgument(std::string("hwconfig: 'bandwidth.") + key +
                           "' must be > 0 GB/s");
  }
  *ns_per_byte = 1.0 / gbps;
  return Status::Ok();
}

}  // namespace

const CostField* CostFields(std::size_t* count) {
  *count = kNumCostFields;
  return kCostFields;
}

double CostModel::* FindCostField(std::string_view name) {
  for (const CostField& field : kCostFields) {
    if (name == field.name) {
      return field.member;
    }
  }
  return nullptr;
}

Status HwConfig::Validate() const {
  if (schema_version != kHwSchemaVersion) {
    return InvalidArgument(
        "hwconfig: schema_version " + std::to_string(schema_version) +
        " is not supported (this build understands version " +
        std::to_string(kHwSchemaVersion) + ")");
  }
  if (units_per_device < 1 || units_per_device > 64) {
    return InvalidArgument("hwconfig: units_per_device must be in [1, 64]");
  }
  if (fifo_depth < 1 || fifo_depth > 4096) {
    return InvalidArgument("hwconfig: fifo_depth must be in [1, 4096]");
  }
  if (pipeline.lsq_depth < 0 || pipeline.lsq_depth > 1024) {
    return InvalidArgument("hwconfig: pipeline.lsq_depth must be in [0, 1024]");
  }
  if (!(pipeline.dispatch_ns >= 0.0) || pipeline.dispatch_ns > 1e6 ||
      !(pipeline.writeback_ns >= 0.0) || pipeline.writeback_ns > 1e6) {
    return InvalidArgument(
        "hwconfig: pipeline stage widths must be in [0, 1e6] ns");
  }
  for (const CostField& field : kCostFields) {
    const double v = cost.*field.member;
    if (!std::isfinite(v) || v < 0.0) {
      return InvalidArgument(std::string("hwconfig: cost.") + field.name +
                             " must be finite and >= 0");
    }
  }
  if (cost.ndp_dma_ns_per_byte <= 0.0 || cost.net_link_ns_per_byte <= 0.0) {
    return InvalidArgument(
        "hwconfig: per-byte rates must be > 0 (infinite bandwidth is not a "
        "geometry)");
  }
  return Status::Ok();
}

StatusOr<HwConfig> ParseHwConfig(std::string_view text) {
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return InvalidArgument("hwconfig: " + doc.status().message());
  }
  HwConfig config;
  json::Reader top(*doc, "hwconfig: ");
  NEARPM_RETURN_IF_ERROR(top.Get("schema_version", &config.schema_version));
  NEARPM_RETURN_IF_ERROR(top.Get("name", &config.name));
  NEARPM_RETURN_IF_ERROR(top.Get("units_per_device", &config.units_per_device));
  NEARPM_RETURN_IF_ERROR(top.Get("fifo_depth", &config.fifo_depth));

  NEARPM_ASSIGN_OR_RETURN(pipeline, top.Section("pipeline"));
  NEARPM_RETURN_IF_ERROR(
      pipeline.Get("dispatch_ns", &config.pipeline.dispatch_ns));
  NEARPM_RETURN_IF_ERROR(
      pipeline.Get("writeback_ns", &config.pipeline.writeback_ns));
  NEARPM_RETURN_IF_ERROR(pipeline.Get("lsq_depth", &config.pipeline.lsq_depth));
  NEARPM_RETURN_IF_ERROR(pipeline.Done());

  // Sections apply in schema order -- bandwidth, latency, then cost -- so a
  // "cost" entry wins over an alias no matter where the author placed it.
  CostModel& cost = config.cost;
  NEARPM_ASSIGN_OR_RETURN(bandwidth, top.Section("bandwidth"));
  NEARPM_RETURN_IF_ERROR(
      ApplyRate(&bandwidth, "axi_gbps", &cost.ndp_dma_ns_per_byte));
  NEARPM_RETURN_IF_ERROR(
      ApplyRate(&bandwidth, "net_gbps", &cost.net_link_ns_per_byte));
  NEARPM_RETURN_IF_ERROR(bandwidth.Done());

  NEARPM_ASSIGN_OR_RETURN(latency, top.Section("latency"));
  NEARPM_RETURN_IF_ERROR(latency.Get("pm_read_ns", &cost.cpu_pm_read_ns));
  NEARPM_RETURN_IF_ERROR(latency.Get("cmd_post_ns", &cost.cmd_post_ns));
  NEARPM_RETURN_IF_ERROR(
      latency.Get("cmd_pipeline_ns", &cost.cmd_device_pipeline_ns));
  NEARPM_RETURN_IF_ERROR(latency.Get("ndp_setup_ns", &cost.ndp_setup_ns));
  NEARPM_RETURN_IF_ERROR(
      latency.Get("net_link_ns", &cost.net_link_latency_ns));
  NEARPM_RETURN_IF_ERROR(latency.Done());

  NEARPM_ASSIGN_OR_RETURN(exact, top.Section("cost"));
  for (const CostField& field : kCostFields) {
    NEARPM_RETURN_IF_ERROR(exact.Get(field.name, &(cost.*field.member)));
  }
  NEARPM_RETURN_IF_ERROR(exact.Done());

  NEARPM_RETURN_IF_ERROR(top.Done());
  NEARPM_RETURN_IF_ERROR(config.Validate());
  return config;
}

StatusOr<HwConfig> LoadHwConfigFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("hwconfig: cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  StatusOr<HwConfig> config = ParseHwConfig(text.str());
  if (!config.ok()) {
    return Status(config.status().code(),
                  path + ": " + config.status().message());
  }
  return config;
}

std::string WriteHwConfig(const HwConfig& config) {
  json::Value pipeline;
  pipeline.Add("dispatch_ns", json::Value::Number(config.pipeline.dispatch_ns))
      .Add("writeback_ns", json::Value::Number(config.pipeline.writeback_ns))
      .Add("lsq_depth", json::Value::Number(config.pipeline.lsq_depth));
  json::Value cost;
  for (const CostField& field : kCostFields) {
    cost.Add(field.name, json::Value::Number(config.cost.*field.member));
  }
  json::Value out;
  out.Add("schema_version", json::Value::Number(config.schema_version))
      .Add("name", json::Value::String(config.name))
      .Add("units_per_device", json::Value::Number(config.units_per_device))
      .Add("fifo_depth", json::Value::Uint(config.fifo_depth))
      .Add("pipeline", std::move(pipeline))
      .Add("cost", std::move(cost));
  return json::Write(out);
}

}  // namespace hwmodel
}  // namespace nearpm
