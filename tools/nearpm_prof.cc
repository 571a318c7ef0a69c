// nearpm_prof: sim-time profiler front end.
//
// Runs one workload configuration in the simulated platform (or reads a raw
// trace captured earlier) and folds the trace through src/prof: per-request
// critical-path attribution, per-resource duty cycles and sampled occupancy.
// Exit code is nonzero when any request slice violates the attribution
// invariant (phase sum != end-to-end span) -- CI runs this as the profiler
// smoke gate.
//
// The flag table in ProfMain() documents every flag and its default; a bad
// flag prints it.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/core/runtime.h"
#include "src/fuzz/corpus.h"
#include "src/prof/profile.h"
#include "src/prof/raw_trace.h"
#include "src/prof/report.h"
#include "src/trace/chrome_exporter.h"
#include "src/workloads/workload.h"

namespace nearpm {
namespace {

struct CliOptions {
  std::string workload = "btree";
  std::string mechanism = "logging";
  std::string mode = "nearpm_md";
  std::uint64_t ops = 400;
  int threads = 1;
  int units = 0;  // 0 = keep the geometry's; then holds the effective value
  std::string hw_config;
  std::uint64_t initial_keys = 500;
  std::uint64_t seed = 7;
  std::string trace_in;
  std::string report_out;
  std::string folded_out;
  std::string profile_out;
  std::string raw_out;
  std::string trace_out;
};

// Writes `text` to `path`, with "-" (or stdout default) meaning stdout.
bool WriteOutput(const std::string& path, const std::string& text) {
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

std::string ConfigJson(const CliOptions& cli) {
  if (!cli.trace_in.empty()) {
    return "{\"source\": \"trace\"}";
  }
  // The hw_config key only appears when a geometry file was loaded, so the
  // default config line stays byte-identical to the committed baselines.
  const std::string hw = cli.hw_config.empty()
                             ? ""
                             : ", \"hw_config\": \"" + cli.hw_config + "\"";
  return "{\"workload\": \"" + cli.workload + "\", \"mechanism\": \"" +
         cli.mechanism + "\", \"mode\": \"" + cli.mode +
         "\", \"ops\": " + std::to_string(cli.ops) +
         ", \"threads\": " + std::to_string(cli.threads) +
         ", \"units_per_device\": " + std::to_string(cli.units) + hw +
         ", \"initial_keys\": " + std::to_string(cli.initial_keys) +
         ", \"seed\": " + std::to_string(cli.seed) + "}";
}

// Runs the configured workload with a trace attached; mirrors the bench
// harness's measurement loop (setup excluded from nothing here: the profile
// wants the whole run, setup included, since attribution is per-request).
int RunWorkloadTraced(CliOptions& cli, std::vector<TraceEvent>* events) {
  const auto mechanism = fuzz::MechanismFromName(cli.mechanism);
  if (!mechanism.ok()) {
    std::fprintf(stderr, "unknown mechanism %s\n", cli.mechanism.c_str());
    return 2;
  }
  const auto mode = fuzz::ExecModeFromName(cli.mode);
  if (!mode.ok()) {
    std::fprintf(stderr, "unknown mode %s\n", cli.mode.c_str());
    return 2;
  }
  auto workload = CreateWorkload(cli.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", cli.workload.c_str());
    return 2;
  }

  TraceRecorder recorder;
  RuntimeOptions opts;
  opts.mode = *mode;
  if (!cli.hw_config.empty()) {
    auto hw = hwmodel::LoadHwConfigFile(cli.hw_config);
    if (!hw.ok()) {
      std::fprintf(stderr, "--hw-config: %s\n", hw.status().ToString().c_str());
      return 2;
    }
    opts.hw = *hw;
  }
  if (cli.units != 0) {
    opts.hw.units_per_device = cli.units;
  }
  cli.units = opts.hw.units_per_device;  // report the effective geometry
  opts.max_threads = cli.threads;
  opts.pm_size = 512ull << 20;
  opts.retain_crash_state = false;
  Runtime rt(opts);
  rt.AttachTrace(&recorder);
  PoolArena arena(0);

  WorkloadConfig wc;
  wc.mechanism = *mechanism;
  wc.threads = cli.threads;
  wc.initial_keys = cli.initial_keys;
  wc.seed = cli.seed;
  Status st = workload->Setup(rt, arena, wc);
  if (!st.ok()) {
    std::fprintf(stderr, "setup(%s) failed: %s\n", cli.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  rt.DrainDevices(0);

  Rng rng(cli.seed * 31 + 1);
  for (std::uint64_t i = 0; i < cli.ops; ++i) {
    const ThreadId t = static_cast<ThreadId>(i % cli.threads);
    st = workload->RunOp(t, rng);
    if (!st.ok()) {
      std::fprintf(stderr, "op %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   st.ToString().c_str());
      return 1;
    }
  }
  for (int t = 0; t < cli.threads; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }

  *events = recorder.Snapshot();
  return 0;
}

int ProfMain(int argc, char** argv) {
  CliOptions cli;
  const flags::Flag table[] = {
      {"--workload", &cli.workload, "NAME", "workload to run (default btree)"},
      {"--mechanism", &cli.mechanism, "NAME", "mechanism (default logging)"},
      {"--mode", &cli.mode, "NAME", "execution mode (default nearpm_md)"},
      {"--ops", &cli.ops, "N", "operations after setup (default 400)"},
      {"--threads", &cli.threads, "N", "application threads (default 1)", 1},
      {"--units", &cli.units, "N",
       "units per device, overriding the geometry (default 4)", 1},
      {"--hw-config", &cli.hw_config, "FILE",
       "device geometry, hwmodel schema (default calibrated)"},
      {"--initial-keys", &cli.initial_keys, "N", "setup keys (default 500)"},
      {"--seed", &cli.seed, "N", "workload RNG seed (default 7)"},
      {"--trace-in", &cli.trace_in, "FILE", "profile this raw trace instead"},
      {"--report-out", &cli.report_out, "FILE",
       "human attribution report (default stdout)"},
      {"--folded-out", &cli.folded_out, "FILE",
       "folded stacks for flamegraph.pl / inferno"},
      {"--profile-out", &cli.profile_out, "FILE",
       "deterministic profile JSON (nearpm-profile-v1)"},
      {"--raw-out", &cli.raw_out, "FILE", "raw trace JSONL, for --trace-in"},
      {"--trace-out", &cli.trace_out, "FILE", "Chrome trace JSON (Perfetto)"},
  };
  if (const Status st = flags::Parse(argc, argv, table); !st.ok()) {
    return flags::UsageError(argv[0], table, st);
  }

  std::vector<TraceEvent> events;
  if (!cli.trace_in.empty()) {
    std::ifstream in(cli.trace_in);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", cli.trace_in.c_str());
      return 1;
    }
    std::string error;
    if (!ReadRawTrace(in, &events, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  } else {
    const int rc = RunWorkloadTraced(cli, &events);
    if (rc != 0) {
      return rc;
    }
  }

  const Profile profile = BuildProfile(events);

  if (!WriteOutput(cli.report_out.empty() ? "-" : cli.report_out,
                   RenderReport(profile))) {
    return 1;
  }
  if (!cli.folded_out.empty() &&
      !WriteOutput(cli.folded_out, RenderFolded(profile))) {
    return 1;
  }
  if (!cli.profile_out.empty() &&
      !WriteOutput(cli.profile_out,
                   RenderProfileJson(profile, ConfigJson(cli)))) {
    return 1;
  }
  if (!cli.raw_out.empty()) {
    std::ofstream out(cli.raw_out, std::ios::trunc);
    WriteRawTrace(events, out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.raw_out.c_str());
      return 1;
    }
  }
  if (!cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out, std::ios::trunc);
    WriteChromeTrace(events, out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.trace_out.c_str());
      return 1;
    }
  }

  if (profile.attribution_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu request slice(s) violate the attribution "
                 "invariant (phase sum != end-to-end span)\n",
                 static_cast<unsigned long long>(
                     profile.attribution_violations));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::ProfMain(argc, argv); }
