// nearpm_sweep: design-space exploration over device geometries.
//
// Fans a config grid -- NearPM units per device x Request-FIFO depth x AXI
// bandwidth -- across a set of workloads, runs every cell in the simulated
// platform, folds each run's trace through the profiler (the
// attribution-sum invariant must hold in every cell or the sweep fails),
// and reports throughput against the geometry's silicon-area proxy with the
// Pareto-optimal cells marked. Every reported number except wall_ms is
// virtual-time deterministic: the same grid on the same sources reproduces
// bit-for-bit, which the CI sweep-smoke job gates with --tolerance 0.
//
// The flag table in SweepMain() documents every flag and its default; a bad
// flag prints it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/core/runtime.h"
#include "src/fuzz/corpus.h"
#include "src/hwmodel/hw_config.h"
#include "src/prof/profile.h"
#include "src/workloads/workload.h"

namespace nearpm {
namespace {

struct CliOptions {
  std::vector<std::string> workloads = {"btree", "hashmap"};
  std::string mechanism = "logging";
  std::string mode = "nearpm_md";
  std::uint64_t ops = 300;
  int threads = 1;
  std::vector<int> units = {2, 4, 8};
  std::vector<int> fifo = {8, 32, 64};
  std::vector<double> axi_gbps = {2.0, 4.0, 8.0};
  std::string base_config;
  std::string json_out;
  std::string csv_out;
  std::uint64_t initial_keys = 200;
  std::uint64_t seed = 7;
  bool quiet = false;
};

// One evaluated grid cell.
struct Cell {
  hwmodel::HwConfig hw;
  double area = 0.0;
  double throughput_mops = 0.0;
  double makespan_ns = 0.0;       // summed across workloads
  double conflict_stall_ns = 0.0; // profiler attribution, summed
  std::uint64_t lsq_stalls = 0;   // device stats, summed
  std::uint64_t slices = 0;
  bool pareto = false;
  double wall_ms = 0.0;

  std::string Name() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "sweep/u%d/f%zu/axi%g",
                  hw.units_per_device, hw.fifo_depth, hw.AxiGbps());
    return buf;
  }
};

// Runs one workload under `hw` and folds the trace into the cell. Returns
// false (after printing) on setup/op failure or an attribution violation.
bool RunCellWorkload(const CliOptions& cli, const std::string& name,
                     Mechanism mechanism, ExecMode mode, Cell* cell) {
  auto workload = CreateWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return false;
  }
  TraceRecorder recorder;
  RuntimeOptions opts;
  opts.mode = mode;
  opts.hw = cell->hw;
  opts.max_threads = cli.threads;
  opts.pm_size = 512ull << 20;
  opts.retain_crash_state = false;
  Runtime rt(opts);
  rt.AttachTrace(&recorder);
  PoolArena arena(0);

  WorkloadConfig wc;
  wc.mechanism = mechanism;
  wc.threads = cli.threads;
  wc.initial_keys = cli.initial_keys;
  wc.seed = cli.seed;
  Status st = workload->Setup(rt, arena, wc);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: setup(%s) failed: %s\n", cell->Name().c_str(),
                 name.c_str(), st.ToString().c_str());
    return false;
  }
  rt.DrainDevices(0);

  const SimTime measure_begin = rt.stats().MaxThreadTime();
  Rng rng(cli.seed * 31 + 1);
  for (std::uint64_t i = 0; i < cli.ops; ++i) {
    const ThreadId t = static_cast<ThreadId>(i % cli.threads);
    st = workload->RunOp(t, rng);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: op %llu (%s) failed: %s\n",
                   cell->Name().c_str(), static_cast<unsigned long long>(i),
                   name.c_str(), st.ToString().c_str());
      return false;
    }
  }
  for (int t = 0; t < cli.threads; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }
  cell->makespan_ns +=
      static_cast<double>(rt.stats().MaxThreadTime() - measure_begin);
  for (int d = 0; d < rt.num_devices(); ++d) {
    cell->lsq_stalls += rt.device(d).stats().lsq_stalls;
  }

  // Every cell's trace must satisfy the profiler's attribution-sum
  // invariant: the seven phases tile each request's end-to-end span exactly
  // even under the pipelined geometry. A violation is a model bug, not a
  // data point.
  const Profile profile = BuildProfile(recorder.Snapshot());
  if (profile.attribution_violations > 0 || profile.incomplete_slices > 0) {
    std::fprintf(stderr,
                 "%s: %s violates the attribution invariant "
                 "(%llu violations, %llu incomplete slices)\n",
                 cell->Name().c_str(), name.c_str(),
                 static_cast<unsigned long long>(
                     profile.attribution_violations),
                 static_cast<unsigned long long>(profile.incomplete_slices));
    return false;
  }
  cell->slices += profile.slices.size();
  cell->conflict_stall_ns +=
      profile.phase_total_ns[static_cast<int>(AttrPhase::kConflictStall)];
  return true;
}

void MarkParetoFront(std::vector<Cell>* cells) {
  // A cell is on the front unless some other cell dominates it: at least as
  // fast AND at most as expensive, strictly better on one axis.
  for (Cell& c : *cells) {
    c.pareto = true;
    for (const Cell& other : *cells) {
      const bool no_worse = other.throughput_mops >= c.throughput_mops &&
                            other.area <= c.area;
      const bool strictly_better = other.throughput_mops > c.throughput_mops ||
                                   other.area < c.area;
      if (no_worse && strictly_better) {
        c.pareto = false;
        break;
      }
    }
  }
}

std::string Json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RenderJson(const CliOptions& cli,
                       const std::vector<Cell>& cells) {
  std::string out = "{\n";
  out += "  \"context\": {\"tool\": \"nearpm_sweep\", \"mechanism\": \"" +
         cli.mechanism + "\", \"mode\": \"" + cli.mode +
         "\", \"ops\": " + std::to_string(cli.ops) +
         ", \"threads\": " + std::to_string(cli.threads) +
         ", \"seed\": " + std::to_string(cli.seed) + "},\n";
  // Wall time is the only nondeterministic counter; the override rides the
  // baseline so `check_bench.py --tolerance 0` still gates every simulated
  // counter bit-for-bit after a baseline regeneration.
  out += "  \"tolerance_overrides\": {\"wall_ms\": 1e12},\n";
  out += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out += "    {\"name\": \"" + c.Name() + "\", \"iterations\": 1";
    out += ", \"units\": " + std::to_string(c.hw.units_per_device);
    out += ", \"fifo_depth\": " + std::to_string(c.hw.fifo_depth);
    out += ", \"axi_gbps\": " + Json(c.hw.AxiGbps());
    out += ", \"lsq_depth\": " + std::to_string(c.hw.pipeline.lsq_depth);
    out += ", \"area_proxy\": " + Json(c.area);
    out += ", \"throughput_mops\": " + Json(c.throughput_mops);
    out += ", \"makespan_ns\": " + Json(c.makespan_ns);
    out += ", \"conflict_stall_ns\": " + Json(c.conflict_stall_ns);
    out += ", \"lsq_stalls\": " + std::to_string(c.lsq_stalls);
    out += ", \"slices\": " + std::to_string(c.slices);
    out += ", \"pareto\": " + std::string(c.pareto ? "1" : "0");
    out += ", \"wall_ms\": " + Json(c.wall_ms);
    out += i + 1 < cells.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string RenderCsv(const std::vector<Cell>& cells) {
  std::string out =
      "name,units,fifo_depth,axi_gbps,lsq_depth,area_proxy,"
      "throughput_mops,makespan_ns,conflict_stall_ns,lsq_stalls,pareto\n";
  for (const Cell& c : cells) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s,%d,%zu,%g,%d,%g,%g,%g,%g,%llu,%d\n",
                  c.Name().c_str(), c.hw.units_per_device, c.hw.fifo_depth,
                  c.hw.AxiGbps(), c.hw.pipeline.lsq_depth, c.area,
                  c.throughput_mops, c.makespan_ns, c.conflict_stall_ns,
                  static_cast<unsigned long long>(c.lsq_stalls),
                  c.pareto ? 1 : 0);
    out += buf;
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int SweepMain(int argc, char** argv) {
  CliOptions cli;
  const flags::Flag table[] = {
      {"--workloads", &cli.workloads, "A,B", "default btree,hashmap"},
      {"--mechanism", &cli.mechanism, "NAME", "mechanism (default logging)"},
      {"--mode", &cli.mode, "NAME", "execution mode (default nearpm_md)"},
      {"--ops", &cli.ops, "N", "operations per workload (default 300)", 1},
      {"--threads", &cli.threads, "N", "application threads (default 1)", 1},
      {"--units", &cli.units, "LIST", "unit-count axis (default 2,4,8)", 1},
      {"--fifo", &cli.fifo, "LIST", "FIFO depth axis (default 8,32,64)", 1},
      {"--axi-gbps", &cli.axi_gbps, "LIST", "AXI GB/s axis (default 2,4,8)"},
      {"--base-config", &cli.base_config, "FILE",
       "geometry every cell starts from (default calibrated)"},
      {"--json-out", &cli.json_out, "FILE", "check_bench JSON, one per cell"},
      {"--csv-out", &cli.csv_out, "FILE", "one CSV row per cell"},
      {"--initial-keys", &cli.initial_keys, "N", "setup keys (default 200)"},
      {"--seed", &cli.seed, "N", "workload RNG seed (default 7)"},
      {"--quiet", flags::Switch{&cli.quiet}, "", "no per-cell progress table"},
  };
  if (const Status st = flags::Parse(argc, argv, table); !st.ok()) {
    return flags::UsageError(argv[0], table, st);
  }

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

  hwmodel::HwConfig base;
  if (!cli.base_config.empty()) {
    auto hw = hwmodel::LoadHwConfigFile(cli.base_config);
    if (!hw.ok()) {
      std::fprintf(stderr, "--base-config: %s\n",
                   hw.status().ToString().c_str());
      return 2;
    }
    base = *hw;
  }

  std::vector<Cell> cells;
  for (int units : cli.units) {
    for (int fifo : cli.fifo) {
      for (double gbps : cli.axi_gbps) {
        Cell cell;
        cell.hw = base;
        cell.hw.units_per_device = units;
        cell.hw.fifo_depth = static_cast<std::size_t>(fifo);
        cell.hw.cost.ndp_dma_ns_per_byte = 1.0 / gbps;
        const Status valid = cell.hw.Validate();
        if (!valid.ok()) {
          std::fprintf(stderr, "%s: invalid geometry: %s\n",
                       cell.Name().c_str(), valid.ToString().c_str());
          return 2;
        }
        cell.area = cell.hw.AreaProxy();

        const auto wall_begin = std::chrono::steady_clock::now();
        double ops_total = 0.0;
        for (const std::string& name : cli.workloads) {
          if (!RunCellWorkload(cli, name, *mechanism, *mode, &cell)) {
            return 1;
          }
          ops_total += static_cast<double>(cli.ops);
        }
        cell.throughput_mops =
            cell.makespan_ns > 0 ? ops_total * 1e3 / cell.makespan_ns : 0.0;
        cell.wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall_begin)
                .count();
        cells.push_back(cell);
      }
    }
  }

  MarkParetoFront(&cells);

  if (!cli.quiet) {
    std::printf("%-24s %8s %10s %14s %12s %7s\n", "cell", "area",
                "mops", "conflict_ns", "lsq_stalls", "pareto");
    for (const Cell& c : cells) {
      std::printf("%-24s %8.2f %10.4f %14.0f %12llu %7s\n",
                  c.Name().c_str(), c.area, c.throughput_mops,
                  c.conflict_stall_ns,
                  static_cast<unsigned long long>(c.lsq_stalls),
                  c.pareto ? "*" : "");
    }
    std::size_t front = 0;
    for (const Cell& c : cells) {
      front += c.pareto ? 1 : 0;
    }
    std::printf("%zu cells, %zu on the Pareto front\n", cells.size(), front);
  }

  if (!cli.json_out.empty() &&
      !WriteFile(cli.json_out, RenderJson(cli, cells))) {
    return 1;
  }
  if (!cli.csv_out.empty() && !WriteFile(cli.csv_out, RenderCsv(cells))) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::SweepMain(argc, argv); }
