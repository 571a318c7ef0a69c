// offload-mix and crash-recover: the Table 4 workloads on bare runtimes.
//
// Both run the same set of cells -- 9 workloads x 3 mechanisms x {CPU
// baseline, NearPM MD}, each on a fresh single-threaded Runtime -- and
// repeat the whole set until the time is up. They differ in what a cell
// does after Setup:
//   offload-mix:   `ops` ops with crash bookkeeping off, with `restarts`
//                  clean-shutdown restarts (DropVolatile, Recover, Verify)
//                  after the first `restart-after` of them;
//   crash-recover: `cycles` cycles of a few ops, a seeded power failure
//                  (InjectCrashAt), DropVolatile, Recover and Verify.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/runners.h"
#include "perfbench/layers.h"
#include "src/workloads/workload.h"

namespace nearpm {
namespace perfbench {
namespace {

constexpr Mechanism kMechanisms[] = {Mechanism::kLogging,
                                     Mechanism::kCheckpointing,
                                     Mechanism::kShadowPaging};
constexpr ExecMode kModes[] = {ExecMode::kCpuBaseline,
                               ExecMode::kNdpMultiDelayed};

// One (workload, mechanism) pair; both modes of a pair run the same seeded
// inputs so their sim times compare op for op.
struct Pair {
  std::string workload;
  Mechanism mechanism;
  std::uint64_t seed;
};

struct CellParams {
  bool crash = false;  // crash-recover (else offload-mix)
  std::uint64_t pm_size = 0;
  std::uint64_t pool_size = 0;
  std::uint64_t initial_keys = 0;
  std::uint64_t ops = 0;       // offload-mix: ops per cell
  std::uint64_t restarts = 0;  // offload-mix: restarts per cell
  std::uint64_t restart_after = 0;  // offload-mix: ops before the restarts
  std::uint64_t cycles = 0;    // crash-recover: crash cycles per cell
  std::uint64_t warmup_ops = 0;  // crash-recover: extra ops before crash 1
  std::uint64_t cycle_ops_min = 0;
  std::uint64_t cycle_ops_max = 0;
  std::uint64_t crash_window_ns = 0;
  std::uint64_t min_sets = 0;
  bool plant_verify_fail = false;  // self-test: corrupt before one Verify
};

CellParams ReadCellParams(const Flags& f, bool crash) {
  CellParams p;
  p.crash = crash;
  p.pm_size = f.U64("pm-mb", 64) << 20;
  p.pool_size = f.U64("pool-mb", 4) << 20;
  p.initial_keys = f.U64("initial-keys", 500);
  p.min_sets = f.U64("min-sets", 2);
  if (crash) {
    p.cycles = f.U64("cycles", 40);
    p.warmup_ops = f.U64("warmup-ops", 8);
    p.cycle_ops_min = f.U64("cycle-ops-min", 4);
    p.cycle_ops_max = f.U64("cycle-ops-max", 16);
    p.crash_window_ns = f.U64("crash-window-ns", 2000);
    p.plant_verify_fail = f.U64("plant-verify-fail", 0) != 0;
  } else {
    p.ops = f.U64("ops", 4000);
    p.restarts = f.U64("restarts", 8);
    p.restart_after = f.U64("restart-after", 400);
  }
  return p;
}

// A freshly built and populated cell: Runtime + workload after Setup.
struct Cell {
  std::string name;  // "btree/logging.md"
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TraceRecorder> recorder;
  PoolArena arena{0};
};

// Host-time samples of one set; pooled over the run they give the host
// metrics. Pooling averages over the run, which on a shared host tracks its
// slow and fast spells better than a median of per-set values.
struct HostSamples {
  Samples setup_ns;  // construct + Setup, per cell
  Samples ctor_ns;
  Samples wl_setup_ns;
  Samples op_ns;  // one RunOp
  double op_total_ns = 0;
  Samples recover_ns;  // crash (or shutdown) call -> verified recovery
  Samples crash_ns;
  Samples pm_recover_ns;
  Samples verify_ns;
  std::map<std::string, Samples> op_ns_by_cell;  // "<mech>.<mode>"

  void Append(const HostSamples& o) {
    setup_ns.Append(o.setup_ns);
    ctor_ns.Append(o.ctor_ns);
    wl_setup_ns.Append(o.wl_setup_ns);
    op_ns.Append(o.op_ns);
    op_total_ns += o.op_total_ns;
    recover_ns.Append(o.recover_ns);
    crash_ns.Append(o.crash_ns);
    pm_recover_ns.Append(o.pm_recover_ns);
    verify_ns.Append(o.verify_ns);
    for (const auto& [k, v] : o.op_ns_by_cell) {
      op_ns_by_cell[k].Append(v);
    }
  }
};

// Per-set sim totals of one mode, summed over every cell.
struct ModeTotals {
  SimCounters ops;  // counters over the measured ops only
  double op_count = 0;
  double recover_sim_ns = 0;
  double recoveries = 0;
};

// Everything one pass over the cells produces.
struct SetOutput {
  HostSamples host;
  ModeTotals modes[2];
  std::map<std::string, std::pair<SimCounters, double>> by_cell;
  std::vector<double> e2e_ratios;     // per pair: baseline / MD sim time
  std::vector<double> region_ratios;  // same over cc-region time
  CrashCounters crashes;              // MD
  std::map<std::string, double> sim_recover_by_mech;  // MD, summed
  std::map<std::string, double> crashes_by_mech;
  ProfileTotals prof;
};

// Builds one cell; false (after counting the failure) if Setup fails.
bool BuildCell(const Pair& pair, ExecMode mode, const CellParams& p,
               bool record, Cell& cell, HostSamples& host, Result& result) {
  RuntimeOptions opts;
  opts.mode = mode;
  opts.max_threads = 1;
  opts.pm_size = p.pm_size;
  opts.retain_crash_state = p.crash;
  cell.name = pair.workload + "/" + CellSuffix(pair.mechanism, mode);
  const std::uint64_t t0 = NowNs();
  {
    Span span("core.Runtime");
    cell.rt = std::make_unique<Runtime>(opts);
  }
  const std::uint64_t t1 = NowNs();
  if (record) {
    cell.recorder = std::make_unique<TraceRecorder>();
    cell.rt->AttachTrace(cell.recorder.get());
  }
  cell.workload = CreateWorkload(pair.workload);
  WorkloadConfig wc;
  wc.mechanism = pair.mechanism;
  wc.threads = 1;
  wc.data_size = p.pool_size;
  wc.initial_keys = p.initial_keys;
  wc.seed = pair.seed;
  Status st;
  {
    Span span("workloads.Setup");
    st = cell.workload->Setup(*cell.rt, cell.arena, wc);
    cell.rt->DrainDevices(0);
  }
  const std::uint64_t t2 = NowNs();
  host.ctor_ns.Add(static_cast<double>(t1 - t0));
  host.wl_setup_ns.Add(static_cast<double>(t2 - t1));
  host.setup_ns.Add(static_cast<double>(t2 - t0));
  ++result.attempted;
  if (!st.ok()) {
    result.Fail("setup " + cell.name + ": " + st.ToString());
    return false;
  }
  return true;
}

// Runs `n` ops; false after the first failing one.
bool RunOps(Cell& cell, Rng& rng, std::uint64_t n, Samples* by_cell,
            HostSamples& host, Result& result) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t t0 = NowNs();
    Status st;
    {
      Span span("workloads.RunOp");
      st = cell.workload->RunOp(0, rng);
    }
    const double dt = static_cast<double>(NowNs() - t0);
    host.op_ns.Add(dt);
    host.op_total_ns += dt;
    if (by_cell != nullptr) {
      by_cell->Add(dt);
    }
    ++result.attempted;
    if (!st.ok()) {
      result.Fail(cell.name + " op: " + st.ToString());
      return false;
    }
  }
  return true;
}

// DropVolatile + Recover + Verify, timed from `t0` (the crash or shutdown
// call). Returns the sim time Recover took on thread 0.
double RecoverAndVerify(Cell& cell, std::uint64_t t0, bool plant_fail,
                        HostSamples& host, Result& result) {
  Runtime& rt = *cell.rt;
  cell.workload->DropVolatile();
  const SimTime sim0 = rt.Now(0);
  const std::uint64_t t1 = NowNs();
  Status st;
  {
    Span span("pmlib.Recover");
    st = cell.workload->Recover();
  }
  const std::uint64_t t2 = NowNs();
  const double sim_ns = static_cast<double>(rt.Now(0) - sim0);
  ++result.attempted;
  if (!st.ok()) {
    result.Fail(cell.name + " recover: " + st.ToString());
  }
  if (plant_fail) {
    // Planted corruption (benchmark self-test): garbage over the heap's
    // root page, which every workload's Verify walks from.
    const std::vector<std::uint8_t> junk(256, 0xA5);
    const PmAddr root = cell.workload->heap().root();
    rt.Write(0, root, junk);
    rt.Persist(0, root, junk.size());
  }
  {
    Span span("workloads.Verify");
    st = cell.workload->Verify();
  }
  const std::uint64_t t3 = NowNs();
  host.pm_recover_ns.Add(static_cast<double>(t2 - t1));
  host.verify_ns.Add(static_cast<double>(t3 - t2));
  host.recover_ns.Add(static_cast<double>(t3 - t0));
  ++result.attempted;
  if (!st.ok()) {
    result.Fail(cell.name + " verify: " + st.ToString());
  }
  return sim_ns;
}

// Runs `n` ops of an offload-mix cell and adds their sim counters.
void OffloadOps(Cell& cell, Rng& rng, std::uint64_t n, int m,
                const std::string& suffix, bool traced, SetOutput& out,
                Result& r) {
  Runtime& rt = *cell.rt;
  const SimCounters before = SimCounters::Of(rt);
  const std::size_t n0 = out.host.op_ns.count();
  RunOps(cell, rng, n, traced ? &out.host.op_ns_by_cell[suffix] : nullptr,
         out.host, r);
  rt.DrainDevices(0);
  const SimCounters delta = SimCounters::Of(rt) - before;
  const double ops = static_cast<double>(out.host.op_ns.count() - n0);
  out.modes[m].ops += delta;
  out.modes[m].op_count += ops;
  out.by_cell[suffix].first += delta;
  out.by_cell[suffix].second += ops;
}

// offload-mix cell body: `ops` ops with `restarts` clean-shutdown restarts
// after the first `restart-after` of them. Everything is durable here (no
// crash bookkeeping), so a restart times the software recovery scan and
// Verify. Restarting on the structure after all the ops made a restart
// memory-bound enough that its host time swung by up to 1.6x with the load
// on a shared host; restarting right after Setup instead meets the
// checkpointing defect README.md describes.
void OffloadCell(Cell& cell, const Pair& pair, int m, const CellParams& p,
                 bool traced, SetOutput& out, Result& r) {
  Rng rng(pair.seed * 31 + 1);
  const std::string suffix = CellSuffix(pair.mechanism, kModes[m]);
  const std::uint64_t first = std::min(p.restart_after, p.ops);
  OffloadOps(cell, rng, first, m, suffix, traced, out, r);
  for (std::uint64_t i = 0; i < p.restarts; ++i) {
    const double sim_ns = RecoverAndVerify(cell, NowNs(), false, out.host, r);
    out.modes[m].recover_sim_ns += sim_ns;
    out.modes[m].recoveries += 1;
  }
  OffloadOps(cell, rng, p.ops - first, m, suffix, traced, out, r);
}

// crash-recover cell body: cycles of ops, seeded crash, recovery, Verify.
void CrashCell(Cell& cell, const Pair& pair, int m, const CellParams& p,
               bool traced, bool& plant_verify_fail, SetOutput& out,
               Result& r) {
  Runtime& rt = *cell.rt;
  const std::string suffix = CellSuffix(pair.mechanism, kModes[m]);
  const std::string mech = MechanismName(pair.mechanism);
  const bool md = kModes[m] == ExecMode::kNdpMultiDelayed;
  Rng rng(pair.seed * 31 + 1);
  Rng crash_rng(MixSeed(pair.seed, 0xC7A5));
  for (std::uint64_t c = 0; c < p.cycles; ++c) {
    // The first crash waits `warmup_ops` more ops: under checkpointing a
    // workload's Setup is durable only once its last epoch closes (README).
    const std::uint64_t k =
        crash_rng.NextInRange(p.cycle_ops_min, p.cycle_ops_max) +
        (c == 0 ? p.warmup_ops : 0);
    const SimCounters before = SimCounters::Of(rt);
    const std::size_t n0 = out.host.op_ns.count();
    const bool ok = RunOps(
        cell, rng, k, traced ? &out.host.op_ns_by_cell["retained"] : nullptr,
        out.host, r);
    // Clocks restart at every crash, so count each cycle's ops separately.
    const SimCounters delta = SimCounters::Of(rt) - before;
    const double n = static_cast<double>(out.host.op_ns.count() - n0);
    out.modes[m].ops += delta;
    out.modes[m].op_count += n;
    out.by_cell[suffix].first += delta;
    out.by_cell[suffix].second += n;
    if (!ok) {
      return;
    }

    CrashPlan plan;
    plan.crash_time = rt.stats().MaxThreadTime() +
                      crash_rng.NextBounded(p.crash_window_ns + 1);
    plan.line_survival.resize(rt.space().PendingLineAddrs().size());
    for (std::size_t i = 0; i < plan.line_survival.size(); ++i) {
      plan.line_survival[i] = crash_rng.NextBool(0.5);
    }
    const std::uint64_t t0 = NowNs();
    CrashReport report;
    {
      Span span("pmem.InjectCrashAt");
      report = rt.InjectCrashAt(plan);
    }
    out.host.crash_ns.Add(static_cast<double>(NowNs() - t0));
    const std::uint64_t failed_before = r.failed;
    const double sim_ns =
        RecoverAndVerify(cell, t0, plant_verify_fail, out.host, r);
    out.modes[m].recover_sim_ns += sim_ns;
    out.modes[m].recoveries += 1;
    if (md) {
      out.crashes.Add(report);
      out.sim_recover_by_mech[mech] += sim_ns;
      out.crashes_by_mech[mech] += 1;
    }
    if (r.failed != failed_before) {
      plant_verify_fail = false;
      return;  // the cell's state is unusable now
    }
  }
}

void AddFingerprint(const char* prefix, const ModeTotals& t,
                    std::map<std::string, double>& sim) {
  const std::string p = prefix;
  sim[p + ".sim_ns"] = t.ops.sim_ns;
  sim[p + ".cc_region_ns"] = t.ops.cc_region_ns;
  sim[p + ".recover_sim_ns"] = t.recover_sim_ns;
  for (int i = 0; i < SimCounters::kCategories; ++i) {
    sim[p + "." + SimCounters::kCategoryNames[i]] = t.ops.category_ns[i];
  }
  for (int i = 0; i < SimCounters::kCommands; ++i) {
    sim[p + "." + SimCounters::kCommandNames[i]] = t.ops.commands[i];
  }
  for (int i = 0; i < SimCounters::kDevice; ++i) {
    sim[p + "." + SimCounters::kDeviceNames[i]] = t.ops.device[i];
  }
}

// The set's sim-time results: the end-to-end sim metrics (per-pair ratios
// folded into geomeans, Figs. 15 and 16) plus every counter, all of which
// must repeat bit-exactly in every set of a run.
std::map<std::string, double> Fingerprint(const SetOutput& s) {
  std::map<std::string, double> sim;
  const ModeTotals& md = s.modes[1];
  sim["sim_speedup_e2e"] = GeoMean(s.e2e_ratios);
  sim["sim_speedup_region"] = GeoMean(s.region_ratios);
  sim["sim_ops_per_s"] =
      md.ops.sim_ns > 0 ? md.op_count * 1e9 / md.ops.sim_ns : 0;
  sim["sim_recover_us"] =
      md.recoveries > 0 ? md.recover_sim_ns / md.recoveries * 1e-3 : 0;
  AddFingerprint("baseline", s.modes[0], sim);
  AddFingerprint("md", s.modes[1], sim);
  return sim;
}

// One pass over every cell.
SetOutput RunSet(const std::vector<Pair>& pairs, const CellParams& p,
                 bool traced, bool& plant_verify_fail, Result& r) {
  SetOutput out;
  for (const Pair& pair : pairs) {
    double pair_ns[2][2] = {};  // [mode][total, cc region]
    for (int m = 0; m < 2; ++m) {
      Span cell_span("bench.cell");
      Cell cell;
      if (!BuildCell(pair, kModes[m], p, traced, cell, out.host, r)) {
        continue;
      }
      const SimCounters before = out.modes[m].ops;
      if (p.crash) {
        CrashCell(cell, pair, m, p, traced, plant_verify_fail, out, r);
      } else {
        OffloadCell(cell, pair, m, p, traced, out, r);
      }
      const SimCounters delta = out.modes[m].ops - before;
      pair_ns[m][0] = delta.sim_ns;
      pair_ns[m][1] = delta.cc_region_ns;
      if (cell.recorder != nullptr) {
        Span span("prof.BuildProfile");
        out.prof.Add(BuildProfile(*cell.recorder), r);
      }
    }
    if (pair_ns[1][0] > 0 && pair_ns[1][1] > 0) {
      out.e2e_ratios.push_back(pair_ns[0][0] / pair_ns[1][0]);
      out.region_ratios.push_back(pair_ns[0][1] / pair_ns[1][1]);
    }
  }
  return out;
}

void RunCells(const RunContext& ctx, bool crash) {
  Result& r = ctx.result;
  const CellParams p = ReadCellParams(ctx.flags, crash);
  bool plant_verify_fail = p.plant_verify_fail;
  const char* name = crash ? "crash-recover" : "offload-mix";
  std::vector<Pair> pairs;
  for (const std::string& workload : EvaluatedWorkloads()) {
    for (Mechanism mech : kMechanisms) {
      pairs.push_back(Pair{workload, mech, MixSeed(ctx.seed, pairs.size())});
    }
  }

  SetOutput first;
  std::map<std::string, double> first_sim;
  HostSamples pooled;
  double traced_ns = 0;
  double traced_ops = 0;
  double peak_rss_mb = 0;
  double untraced_ns_per_op = 0;
  const std::uint64_t start = NowNs();
  for (std::uint64_t set = 0;; ++set) {
    // A traced run keeps set 0 untraced: the reference for the tracing
    // overhead, and for "tracing changes no sim number".
    const bool traced = ctx.trace && set > 0;
    if (traced && !SpansEnabled()) {
      EnableSpans(200000);
    }
    SetOutput out = RunSet(pairs, p, traced, plant_verify_fail, r);
    const std::map<std::string, double> sim = Fingerprint(out);
    const double ops = static_cast<double>(out.host.op_ns.count());
    if (set == 0) {
      first_sim = sim;
    } else {
      CheckRepeat(first_sim, sim, name, r);
    }
    if (traced) {
      traced_ns += out.host.op_total_ns;
      traced_ops += ops;
    }
    if (set == 0 && ops > 0) {
      untraced_ns_per_op = out.host.op_total_ns / ops;
    }
    pooled.Append(out.host);
    if (set == 0) {
      // Read here, before the run's own sample buffers grow with the number
      // of sets the host manages: later sets allocate the same program state.
      peak_rss_mb = PeakRssMb();
      first = std::move(out);
    } else if (traced) {
      first.prof = out.prof;  // set 0 has no profile
    }
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (set + 1 >= p.min_sets && elapsed >= ctx.seconds) {
      std::fprintf(stderr, "%s: %llu sets of %zu cells in %.2f s\n", name,
                   static_cast<unsigned long long>(set + 1), pairs.size() * 2,
                   elapsed);
      break;
    }
  }

  r.metrics["setup_s"] = pooled.setup_ns.Percentile(0.5) * 1e-9;
  r.metrics["ops_per_s"] =
      static_cast<double>(pooled.op_ns.count()) * 1e9 / pooled.op_total_ns;
  r.Percentiles("lat_p50_us", "lat_p99_us", pooled.op_ns, 1e-3);
  r.Percentiles("recover_p50_us", "recover_p99_us", pooled.recover_ns, 1e-3);
  for (const char* key : {"sim_speedup_e2e", "sim_speedup_region",
                          "sim_ops_per_s", "sim_recover_us"}) {
    r.metrics[key] = first_sim.at(key);
  }
  r.metrics["peak_rss_mb"] = peak_rss_mb;
  r.sim = first_sim;
  if (!ctx.trace) {
    return;
  }
  const ModeTotals& md = first.modes[1];
  PublishPerOp(md.ops, md.op_count, r);
  for (const auto& [suffix, totals] : first.by_cell) {
    PublishCategories(totals.first, totals.second, suffix, r);
  }
  first.prof.Publish(r);
  first.crashes.Publish(r);
  for (const auto& [mech, ns] : first.sim_recover_by_mech) {
    r.metrics["pmlib.sim_recover_ns." + mech] =
        ns / first.crashes_by_mech.at(mech);
  }
  r.metrics["core.runtime_ctor_s"] = pooled.ctor_ns.Percentile(0.5) * 1e-9;
  r.metrics["workloads.setup_s"] = pooled.wl_setup_ns.Percentile(0.5) * 1e-9;
  r.metrics["pmlib.recover_ns.p50"] = pooled.pm_recover_ns.Percentile(0.5);
  r.metrics["workloads.verify_ns.p50"] = pooled.verify_ns.Percentile(0.5);
  if (!pooled.crash_ns.empty()) {
    r.metrics["pmem.crash_ns.p50"] = pooled.crash_ns.Percentile(0.5);
  }
  for (const auto& [suffix, s] : pooled.op_ns_by_cell) {
    const std::string key = suffix == "retained"
                                ? "workloads.runop_retained_ns.p50"
                                : "workloads.runop_ns." + suffix + ".p50";
    r.metrics[key] = s.Percentile(0.5);
  }
  if (untraced_ns_per_op > 0 && traced_ops > 0) {
    r.metrics["trace.overhead_ratio"] =
        traced_ns / traced_ops / untraced_ns_per_op;
  }
}

}  // namespace

void RunOffloadMix(const RunContext& ctx) { RunCells(ctx, false); }

void RunCrashRecover(const RunContext& ctx) { RunCells(ctx, true); }

}  // namespace perfbench
}  // namespace nearpm
