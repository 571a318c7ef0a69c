// nearpm_analyze: PM-Sanitizer front end.
//
// Runs one workload configuration in the simulated platform with the eager
// persistency-bug analyzer attached (or replays a raw trace / a crash-repro
// corpus through the same rule engine) and reports NPM001-NPM006 findings as
// human text, machine JSON, or SARIF 2.1.0. Exit code is nonzero when
// unsuppressed findings remain -- unless --expect-findings inverts the
// contract (then a *clean* run is the failure; CI uses this to prove the
// analyzer still has teeth against the enforce_ppo=false ablation).
//
// The flag table in AnalyzeMain() documents every flag and its default; a bad
// flag prints it.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/analyze/sanitizer.h"
#include "src/analyze/trace_analyzer.h"
#include "src/common/flags.h"
#include "src/core/runtime.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_fuzzer.h"
#include "src/prof/raw_trace.h"
#include "src/repl/repl_fuzzer.h"
#include "src/serve/serve_fuzzer.h"
#include "src/workloads/workload.h"

namespace nearpm {
namespace {

struct CliOptions {
  std::string workload = "btree";
  std::string mechanism = "logging";
  std::string mode = "nearpm_md";
  std::uint64_t ops = 200;
  int threads = 1;
  int units = 4;
  std::uint64_t initial_keys = 200;
  std::uint64_t seed = 7;
  bool enforce_ppo = true;
  std::string trace_in;
  std::string corpus;
  std::vector<std::string> suppressions;
  bool expect_findings = false;
  std::string sarif_out;
  std::string json_out;
  std::string bench_json;
  bool quiet = false;
};

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

// Deterministic hook counters in the google-benchmark JSON shape that
// tools/check_bench.py consumes: any accidental hook-count explosion (a hot
// path instrumented twice, a shadow map that stops being bounded) drifts a
// counter past the gate's tolerance.
std::string BenchJson(const CliOptions& cli, const analyze::PmSanitizer& san,
                      SimTime sim_ns) {
  const analyze::PmSanitizer::Stats& s = san.stats();
  std::string name = "analyze/" + cli.workload + "_" + cli.mechanism + "_" +
                     cli.mode;
  std::string out = "{\n  \"benchmarks\": [\n    {\n";
  out += "      \"name\": \"" + name + "\",\n";
  auto counter = [&out](const char* key, std::uint64_t v, bool last = false) {
    out += "      \"";
    out += key;
    out += "\": " + std::to_string(v) + (last ? "\n" : ",\n");
  };
  counter("san_writes", s.writes);
  counter("san_reads", s.reads);
  counter("san_flushes", s.flushes);
  counter("san_fences", s.fences);
  counter("san_ndp_commands", s.ndp_commands);
  counter("san_retires", s.retires);
  counter("shadow_lines_peak", s.shadow_lines_peak);
  counter("findings", san.sink().total_unsuppressed());
  counter("sim_ns", sim_ns, /*last=*/true);
  out += "    }\n  ]\n}\n";
  return out;
}

// Runs the configured workload with the sanitizer attached. Returns 0/1/2
// like main; `sim_ns` receives the final simulated time.
int RunWorkloadAnalyzed(const CliOptions& cli, analyze::PmSanitizer* san,
                        SimTime* sim_ns) {
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

  RuntimeOptions opts;
  opts.mode = *mode;
  opts.hw.units_per_device = cli.units;
  opts.max_threads = cli.threads;
  opts.pm_size = 512ull << 20;
  opts.retain_crash_state = true;  // the sanitizer needs retire bookkeeping
  opts.enforce_ppo = cli.enforce_ppo;
  Runtime rt(opts);
  rt.AttachSanitizer(san);
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
                   static_cast<unsigned long long>(i), st.ToString().c_str());
      return 1;
    }
  }
  for (int t = 0; t < cli.threads; ++t) {
    rt.DrainDevices(static_cast<ThreadId>(t));
  }
  *sim_ns = rt.Now(0);
  san->Finish(*sim_ns);
  return 0;
}

// Replays every repro in the corpus through the rule engine.
//
// Bank-kind repros attach the sanitizer to the single simulated machine
// directly. Serve- and repl-kind repros run one runtime per shard/node, so
// the single-address-space sanitizer cannot span them live; instead the
// fuzzer deposits each machine's trace snapshot (trace_sink) and one fresh
// sanitizer replays each snapshot offline -- the same trace path as
// --trace-in.
//
// Policy: the replay verdict must match the recorded expectation; sound
// repros (PPO enforced, recovery/redo intact, persists intact) must be
// analyzer-clean; enforce_ppo=false repros must fire at least one finding;
// repl repros with repl_skip_redo_persist must fire NPM007 (teeth).
int RunCorpus(const CliOptions& cli) {
  const std::vector<std::string> files = fuzz::ListCorpus(cli.corpus);
  if (files.empty()) {
    std::fprintf(stderr, "no corpus files under %s\n", cli.corpus.c_str());
    return 1;
  }
  int failures = 0;
  std::size_t replayed = 0;
  for (const std::string& path : files) {
    auto repro = fuzz::LoadRepro(path);
    if (!repro.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   repro.status().ToString().c_str());
      ++failures;
      continue;
    }

    analyze::PmSanitizer san;
    for (const std::string& spec : cli.suppressions) {
      san.sink().Suppress(spec);
    }
    bool run_ok = false;
    std::string verdict_name;
    // Soundness beyond the shared enforce_ppo/break_recovery fields: the
    // kind-specific ablations that legitimately make traces hazardous.
    bool redo_persist_broken = false;
    if (repro->kind == "serve") {
      std::vector<std::vector<TraceEvent>> traces;
      serve::ServeFuzzConfig config =
          serve::ServeFuzzer::ConfigFromRepro(*repro);
      config.trace_sink = &traces;
      const serve::ServeFuzzer fuzzer(config);
      auto c = serve::ServeFuzzer::CaseFromRepro(*repro);
      if (!c.ok()) {
        std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                     c.status().ToString().c_str());
        ++failures;
        continue;
      }
      const serve::ServeCaseResult result = fuzzer.Run(*c);
      run_ok = result.ok();
      verdict_name = serve::ServeFailureKindName(result.failure);
      // One shard = one address space = one rule-engine replay; findings
      // accumulate in the shared sink.
      for (const std::vector<TraceEvent>& trace : traces) {
        analyze::AnalyzeTrace(trace, &san);
      }
    } else if (repro->kind == "repl") {
      std::vector<std::vector<TraceEvent>> traces;
      repl::ReplFuzzConfig config = repl::ReplFuzzer::ConfigFromRepro(*repro);
      config.trace_sink = &traces;
      redo_persist_broken = config.skip_redo_persist;
      const repl::ReplFuzzer fuzzer(config);
      auto c = repl::ReplFuzzer::CaseFromRepro(*repro);
      if (!c.ok()) {
        std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                     c.status().ToString().c_str());
        ++failures;
        continue;
      }
      const repl::ReplCaseResult result = fuzzer.Run(*c);
      run_ok = result.ok();
      verdict_name = repl::ReplFailureKindName(result.failure);
      for (const std::vector<TraceEvent>& trace : traces) {
        analyze::AnalyzeTrace(trace, &san);
      }
    } else {
      fuzz::FuzzConfig config = fuzz::CrashFuzzer::ConfigFromRepro(*repro);
      config.sanitizer = &san;
      const fuzz::CrashFuzzer fuzzer(config);
      const fuzz::CaseResult result =
          fuzzer.Run(fuzz::CrashFuzzer::CaseFromRepro(*repro));
      run_ok = result.ok();
      verdict_name = fuzz::FailureKindName(result.failure);
    }
    ++replayed;

    const bool expects_violation = repro->expect == "violation";
    if (run_ok == expects_violation) {
      std::fprintf(stderr, "FAIL %s: replay verdict %s does not match "
                   "expect=%s\n", path.c_str(),
                   run_ok ? "ok" : verdict_name.c_str(),
                   repro->expect.c_str());
      ++failures;
      continue;
    }

    const std::uint64_t findings = san.sink().total_unsuppressed();
    const bool sound =
        repro->enforce_ppo && !repro->break_recovery && !redo_persist_broken;
    const char* verdict = "ok";
    if (sound && findings > 0) {
      verdict = "FAIL (findings on a sound repro)";
      ++failures;
    } else if (!repro->enforce_ppo && findings == 0) {
      verdict = "FAIL (no finding on an enforce_ppo=false repro)";
      ++failures;
    } else if (redo_persist_broken &&
               san.sink().count(analyze::RuleId::kNpm007) == 0) {
      verdict = "FAIL (no NPM007 on a skip_redo_persist repro)";
      ++failures;
    }
    if (!cli.quiet || std::strcmp(verdict, "ok") != 0) {
      std::printf("%-6s %s: %llu finding(s)\n", verdict, path.c_str(),
                  static_cast<unsigned long long>(findings));
      if (findings > 0 && !cli.quiet) {
        std::fputs(san.sink().RenderText().c_str(), stdout);
      }
    }
  }
  std::printf("corpus: %zu replayed, %d failure(s)\n", replayed, failures);
  return failures == 0 ? 0 : 1;
}

int AnalyzeMain(int argc, char** argv) {
  CliOptions cli;
  const flags::Flag table[] = {
      {"--workload", &cli.workload, "NAME", "workload to run (default btree)"},
      {"--mechanism", &cli.mechanism, "NAME", "mechanism (default logging)"},
      {"--mode", &cli.mode, "NAME", "execution mode (default nearpm_md)"},
      {"--ops", &cli.ops, "N", "operations after setup (default 200)"},
      {"--threads", &cli.threads, "N", "application threads (default 1)", 1},
      {"--units", &cli.units, "N", "NearPM units per device (default 4)", 1},
      {"--initial-keys", &cli.initial_keys, "N", "setup keys (default 200)"},
      {"--seed", &cli.seed, "N", "workload RNG seed (default 7)"},
      {"--enforce-ppo", flags::Bool01{&cli.enforce_ppo}, "0|1",
       "PPO ordering (default 1; 0 is the Section 2.3 ablation)"},
      {"--trace-in", &cli.trace_in, "FILE", "analyze this raw trace instead"},
      {"--corpus", &cli.corpus, "DIR",
       "replay every crash repro under DIR through the rule engine"},
      {"--suppress", flags::Repeated{&cli.suppressions}, "SPEC",
       "NPM005 or NPM005:file (repeatable)"},
      {"--expect-findings", flags::Switch{&cli.expect_findings}, "",
       "exit 0 iff an unsuppressed finding fired"},
      {"--sarif", &cli.sarif_out, "FILE", "SARIF 2.1.0 document (- = stdout)"},
      {"--json-out", &cli.json_out, "FILE", "nearpm-analyze-v1 JSON report"},
      {"--bench-json", &cli.bench_json, "FILE",
       "hook counters in google-benchmark JSON (check_bench.py)"},
      {"--quiet", flags::Switch{&cli.quiet}, "", "no human text report"},
  };
  if (const Status st = flags::Parse(argc, argv, table); !st.ok()) {
    return flags::UsageError(argv[0], table, st);
  }

  if (!cli.corpus.empty()) {
    return RunCorpus(cli);
  }

  analyze::PmSanitizer san;
  for (const std::string& spec : cli.suppressions) {
    if (!san.sink().Suppress(spec)) {
      std::fprintf(stderr, "bad suppression spec: %s\n", spec.c_str());
      return 2;
    }
  }

  SimTime sim_ns = 0;
  if (!cli.trace_in.empty()) {
    std::ifstream in(cli.trace_in);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", cli.trace_in.c_str());
      return 1;
    }
    std::vector<TraceEvent> events;
    std::string error;
    if (!ReadRawTrace(in, &events, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (const TraceEvent& e : events) {
      sim_ns = std::max(sim_ns, e.ts + e.dur);
    }
    const analyze::TraceAnalysisStats ts = analyze::AnalyzeTrace(events, &san);
    if (!cli.quiet) {
      std::printf("trace: %llu event(s) replayed, %llu ignored\n",
                  static_cast<unsigned long long>(ts.events),
                  static_cast<unsigned long long>(ts.ignored));
    }
  } else {
    const int rc = RunWorkloadAnalyzed(cli, &san, &sim_ns);
    if (rc != 0) {
      return rc;
    }
  }

  if (!cli.quiet) {
    std::fputs(san.sink().RenderText().c_str(), stdout);
  }
  if (!cli.sarif_out.empty() &&
      !WriteOutput(cli.sarif_out, san.sink().RenderSarif())) {
    return 1;
  }
  if (!cli.json_out.empty() &&
      !WriteOutput(cli.json_out, san.sink().RenderJson())) {
    return 1;
  }
  if (!cli.bench_json.empty() &&
      !WriteOutput(cli.bench_json, BenchJson(cli, san, sim_ns))) {
    return 1;
  }

  const std::uint64_t findings = san.sink().total_unsuppressed();
  if (cli.expect_findings) {
    if (findings == 0) {
      std::fprintf(stderr,
                   "FAIL: --expect-findings but the analyzer reported "
                   "nothing\n");
      return 1;
    }
    return 0;
  }
  return findings == 0 ? 0 : 1;
}

}  // namespace
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::AnalyzeMain(argc, argv); }
