// Sim-time counters read from the simulator's public stats surfaces
// (RuntimeStats, PrimitiveCounters, DeviceStats, CrashReport, the sim-time
// profiler), summed over one or more runtimes and turned into the per-layer
// metrics of README.md.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "perfbench/bench_util.h"
#include "src/core/runtime.h"
#include "src/pmlib/provider.h"
#include "src/prof/profile.h"

namespace nearpm {
namespace perfbench {

// Everything the core/ndp layers count, as plain numbers so snapshots can
// be subtracted and summed across runtimes.
struct SimCounters {
  static constexpr int kCategories = 5;  // 4 cc categories + overlap
  static constexpr int kCommands = 8;
  static constexpr int kDevice = 5;
  static const char* const kCategoryNames[kCategories];
  static const char* const kCommandNames[kCommands];
  static const char* const kDeviceNames[kDevice];

  double sim_ns = 0;        // CPU makespan (MaxThreadTime)
  double cc_region_ns = 0;  // crash-consistency region time, all threads
  double category_ns[kCategories] = {};
  double commands[kCommands] = {};
  double device[kDevice] = {};

  static SimCounters Of(Runtime& rt);
  SimCounters& operator+=(const SimCounters& o);
  SimCounters operator-(const SimCounters& o) const;
};

// Per-crash counters from the PM space's crash reports.
struct CrashCounters {
  double crashes = 0;
  double lines_dropped = 0;
  double requests_dropped = 0;
  double requests_truncated = 0;
  double forced_by_sync = 0;
  void Add(const CrashReport& r);
  void Publish(Result& result) const;
};

// Folds sim-time profiles (prof::BuildProfile) and checks the attribution
// invariant: every request slice's phases tile its span exactly.
class ProfileTotals {
 public:
  void Add(const Profile& profile, Result& result);
  void Publish(Result& result) const;

 private:
  double phase_ns_[kNumAttrPhases] = {};
  double span_ns_ = 0;
  double unit_busy_ns_ = 0;
  double unit_window_ns_ = 0;
};

// "logging.md" style suffix for per-mechanism x mode metrics.
std::string CellSuffix(Mechanism mech, ExecMode mode);

// Publishes core.cmd.* and ndp.* per op from `c` over `ops` operations.
void PublishPerOp(const SimCounters& c, double ops, Result& result);

// Publishes core.sim_<category>_ns.<suffix> per op.
void PublishCategories(const SimCounters& c, double ops,
                       const std::string& suffix, Result& result);

// Publishes self.<layer> shares from the span aggregates: each layer's self
// time over the self time of all spans (the name prefix before the first
// '.' is the layer).
void PublishSelfShares(Result& result);

}  // namespace perfbench
}  // namespace nearpm

#endif  // PERFBENCH_LAYERS_H_
