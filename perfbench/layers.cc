#include "perfbench/layers.h"

#include <algorithm>

namespace nearpm {
namespace perfbench {

const char* const SimCounters::kCategoryNames[kCategories] = {
    "data_movement", "metadata", "ordering", "allocation", "overlap"};
const char* const SimCounters::kCommandNames[kCommands] = {
    "undolog_create", "applylog",   "commit_log",    "ckpoint_create",
    "shadowcpy",      "duplicated", "delayed_syncs", "sw_sync_polls"};
const char* const SimCounters::kDeviceNames[kDevice] = {
    "requests", "conflict_stalls", "host_access_stalls",
    "fifo_backpressure_stalls", "lsq_stalls"};

SimCounters SimCounters::Of(Runtime& rt) {
  SimCounters c;
  const RuntimeStats& s = rt.stats();
  c.sim_ns = static_cast<double>(s.MaxThreadTime());
  c.cc_region_ns = s.CcRegionNs();
  c.category_ns[0] = s.CategoryNs(CcCategory::kDataMovement);
  c.category_ns[1] = s.CategoryNs(CcCategory::kMetadata);
  c.category_ns[2] = s.CategoryNs(CcCategory::kOrdering);
  c.category_ns[3] = s.CategoryNs(CcCategory::kAllocation);
  c.category_ns[4] = s.OverlapNs();
  const PrimitiveCounters& p = rt.counters();
  const std::uint64_t cmds[kCommands] = {
      p.undolog_create, p.applylog,            p.commit_log,
      p.ckpoint_create, p.shadowcpy,           p.duplicated_commands,
      p.delayed_syncs,  p.sw_sync_polls};
  for (int i = 0; i < kCommands; ++i) {
    c.commands[i] = static_cast<double>(cmds[i]);
  }
  for (int d = 0; d < rt.num_devices(); ++d) {
    const DeviceStats& ds = rt.device(static_cast<DeviceId>(d)).stats();
    c.device[0] += static_cast<double>(ds.requests);
    c.device[1] += static_cast<double>(ds.dispatcher_conflict_stalls);
    c.device[2] += static_cast<double>(ds.host_access_stalls);
    c.device[3] += static_cast<double>(ds.fifo_backpressure_stalls);
    c.device[4] += static_cast<double>(ds.lsq_stalls);
  }
  return c;
}

SimCounters& SimCounters::operator+=(const SimCounters& o) {
  sim_ns += o.sim_ns;
  cc_region_ns += o.cc_region_ns;
  for (int i = 0; i < kCategories; ++i) category_ns[i] += o.category_ns[i];
  for (int i = 0; i < kCommands; ++i) commands[i] += o.commands[i];
  for (int i = 0; i < kDevice; ++i) device[i] += o.device[i];
  return *this;
}

SimCounters SimCounters::operator-(const SimCounters& o) const {
  SimCounters d = *this;
  d.sim_ns -= o.sim_ns;
  d.cc_region_ns -= o.cc_region_ns;
  for (int i = 0; i < kCategories; ++i) d.category_ns[i] -= o.category_ns[i];
  for (int i = 0; i < kCommands; ++i) d.commands[i] -= o.commands[i];
  for (int i = 0; i < kDevice; ++i) d.device[i] -= o.device[i];
  return d;
}

void CrashCounters::Add(const CrashReport& r) {
  crashes += 1;
  lines_dropped += static_cast<double>(r.cpu_lines_dropped);
  requests_dropped += static_cast<double>(r.requests_dropped);
  requests_truncated += static_cast<double>(r.requests_truncated);
  forced_by_sync += static_cast<double>(r.forced_by_sync);
}

void CrashCounters::Publish(Result& result) const {
  if (crashes == 0) {
    return;
  }
  result.metrics["pmem.lines_dropped"] = lines_dropped / crashes;
  result.metrics["pmem.requests_dropped"] = requests_dropped / crashes;
  result.metrics["pmem.requests_truncated"] = requests_truncated / crashes;
  result.metrics["pmem.forced_by_sync"] = forced_by_sync / crashes;
}

void ProfileTotals::Add(const Profile& profile, Result& result) {
  SimTime phase_sum = 0;
  for (int p = 0; p < kNumAttrPhases; ++p) {
    phase_ns_[p] += static_cast<double>(profile.phase_total_ns[p]);
    phase_sum += profile.phase_total_ns[p];
  }
  span_ns_ += static_cast<double>(profile.total_span_ns);
  ++result.attempted;
  if (profile.attribution_violations != 0 ||
      phase_sum != profile.total_span_ns) {
    result.Fail("prof attribution invariant: " +
                std::to_string(profile.attribution_violations) +
                " slices do not tile their span");
  }
  for (const ResourceUsage& r : profile.resources) {
    if (r.name.find("/ unit") != std::string::npos) {
      unit_busy_ns_ += static_cast<double>(r.busy_ns);
      unit_window_ns_ += static_cast<double>(r.window_ns);
    }
  }
}

void ProfileTotals::Publish(Result& result) const {
  if (span_ns_ <= 0) {
    return;
  }
  for (int p = 0; p < kNumAttrPhases; ++p) {
    result.metrics[std::string("prof.") +
                   AttrPhaseName(static_cast<AttrPhase>(p))] =
        phase_ns_[p] / span_ns_;
  }
  if (unit_window_ns_ > 0) {
    result.metrics["prof.unit_duty"] = unit_busy_ns_ / unit_window_ns_;
  }
}

std::string CellSuffix(Mechanism mech, ExecMode mode) {
  return std::string(MechanismName(mech)) +
         (mode == ExecMode::kCpuBaseline ? ".baseline" : ".md");
}

void PublishPerOp(const SimCounters& c, double ops, Result& result) {
  if (ops <= 0) {
    return;
  }
  for (int i = 0; i < SimCounters::kCommands; ++i) {
    result.metrics[std::string("core.cmd.") + SimCounters::kCommandNames[i]] =
        c.commands[i] / ops;
  }
  for (int i = 0; i < SimCounters::kDevice; ++i) {
    result.metrics[std::string("ndp.") + SimCounters::kDeviceNames[i]] =
        c.device[i] / ops;
  }
}

void PublishCategories(const SimCounters& c, double ops,
                       const std::string& suffix, Result& result) {
  if (ops <= 0) {
    return;
  }
  for (int i = 0; i < SimCounters::kCategories; ++i) {
    result.metrics[std::string("core.sim_") + SimCounters::kCategoryNames[i] +
                   "_ns." + suffix] = c.category_ns[i] / ops;
  }
}

void PublishSelfShares(Result& result) {
  // Self times partition the root spans' durations, so the shares of all
  // layers sum to one on every thread mix.
  double total_ns = 0;
  std::map<std::string, double> self_ns;
  for (const auto& [name, agg] : SpanTotals()) {
    self_ns[name.substr(0, name.find('.'))] += static_cast<double>(agg.self_ns);
    total_ns += static_cast<double>(agg.self_ns);
  }
  if (total_ns <= 0) {
    return;
  }
  for (const auto& [layer, ns] : self_ns) {
    result.metrics["self." + layer] = ns / total_ns;
  }
}

}  // namespace perfbench
}  // namespace nearpm
