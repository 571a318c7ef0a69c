// nearpm_fuzz: command-line driver for the crash-state fuzzer.
//
// Modes (combinable flags, one run = one mode):
//
//   --seeds=N            randomized deep sweep over N seeds (default 20)
//   --systematic=OPS     exhaustive crash-point sweep of one OPS-long
//                        schedule per configuration
//   --replay=SEED:CASE   re-run exactly one sweep case (the fuzzer's output
//                        names failures this way)
//   --corpus=DIR         replay every minimized repro under DIR and check
//                        its recorded expectation
//   --repl               systematic replicated-cluster sweep instead of the
//                        single-machine fuzzer: every stop phase of the
//                        replicated commit x every non-empty node subset
//                        power-failed, for --protocol=pb|redo|all;
//                        --break-intent-redo / --skip-redo-persist seed the
//                        recovery/persist ablations (combine with
//                        --expect-failures for the CI teeth check)
//
// Configuration selection: --mechanism / --mode accept one canonical name
// or "all" (default), --enforce-ppo=0 runs the Section 2.3 ablation,
// --break-recovery fault-injects the hardware recovery. Failing schedules
// are shrunk to a minimal repro; --out=DIR persists them as corpus JSON.
// --expect-failures inverts the exit code: the run succeeds only if the
// fuzzer caught at least one violation in every configuration (CI uses this
// to prove the oracle has teeth).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_fuzzer.h"
#include "src/repl/repl_fuzzer.h"
#include "src/serve/serve_fuzzer.h"

namespace nearpm {
namespace fuzz {
namespace {

struct CliOptions {
  std::uint64_t seeds = 20;
  std::uint64_t first_seed = 1;
  int cases_per_seed = 3;
  std::uint64_t systematic_ops = 0;  // 0 = off
  std::size_t max_candidates = 24;
  std::string mechanism = "all";
  std::string mode = "all";
  bool enforce_ppo = true;
  bool break_recovery = false;
  bool expect_failures = false;
  std::string replay;  // SEED:CASE
  std::uint64_t replay_seed = 0;
  std::uint64_t replay_case = 0;
  std::string corpus_dir;
  std::string out_dir;
  int max_shrinks = 3;  // shrunk + reported failures per configuration
  bool repl = false;
  std::string protocol = "all";
  int repl_groups = 2;
  int repl_replicas = 2;
  bool break_intent_redo = false;
  bool skip_redo_persist = false;
};

std::string MaskToString(const std::vector<bool>& mask) {
  std::string s;
  s.reserve(mask.size());
  for (const bool b : mask) {
    s.push_back(b ? '1' : '0');
  }
  return s.empty() ? "-" : s;
}

void PrintCase(const char* tag, const FuzzCase& c, const CaseResult& r) {
  std::printf("  %s seed=%" PRIu64 " ops=%" PRIu64 " crash_step=%" PRIu64
              "%s time=%" PRIu64 " mask=%s: %s%s%s\n",
              tag, c.seed, c.total_ops, c.crash_step, c.mid_op ? "m" : "c",
              c.crash_time, MaskToString(c.line_survival).c_str(),
              FailureKindName(r.failure), r.detail.empty() ? "" : ": ",
              r.detail.c_str());
}

struct Combo {
  Mechanism mechanism;
  ExecMode mode;
};

int ReplayCorpus(const CliOptions& cli) {
  const std::vector<std::string> files = ListCorpus(cli.corpus_dir);
  if (files.empty()) {
    std::fprintf(stderr, "no corpus files under %s\n", cli.corpus_dir.c_str());
    return 1;
  }
  int bad = 0;
  for (const std::string& path : files) {
    auto repro = LoadRepro(path);
    if (!repro.ok()) {
      std::printf("ERROR %s: %s\n", path.c_str(),
                  repro.status().ToString().c_str());
      ++bad;
      continue;
    }
    bool run_ok = false;
    const char* got = "";
    std::string detail;
    if (repro->kind == "serve") {
      serve::ServeFuzzer fuzzer(serve::ServeFuzzer::ConfigFromRepro(*repro));
      auto c = serve::ServeFuzzer::CaseFromRepro(*repro);
      if (!c.ok()) {
        std::printf("ERROR %s: %s\n", path.c_str(),
                    c.status().ToString().c_str());
        ++bad;
        continue;
      }
      const serve::ServeCaseResult r = fuzzer.Run(*c);
      run_ok = r.ok();
      got = serve::ServeFailureKindName(r.failure);
      detail = r.detail;
    } else if (repro->kind == "repl") {
      repl::ReplFuzzer fuzzer(repl::ReplFuzzer::ConfigFromRepro(*repro));
      auto c = repl::ReplFuzzer::CaseFromRepro(*repro);
      if (!c.ok()) {
        std::printf("ERROR %s: %s\n", path.c_str(),
                    c.status().ToString().c_str());
        ++bad;
        continue;
      }
      const repl::ReplCaseResult r = fuzzer.Run(*c);
      run_ok = r.ok();
      got = repl::ReplFailureKindName(r.failure);
      detail = r.detail;
    } else {
      CrashFuzzer fuzzer(CrashFuzzer::ConfigFromRepro(*repro));
      const FuzzCase c = CrashFuzzer::CaseFromRepro(*repro);
      const CaseResult r = fuzzer.Run(c);
      run_ok = r.ok();
      got = FailureKindName(r.failure);
      detail = r.detail;
    }
    const bool want_failure = repro->expect == "violation";
    const bool pass = want_failure ? !run_ok : run_ok;
    std::printf("%s %s (%s/%s expect=%s got=%s)\n", pass ? "OK  " : "FAIL",
                path.c_str(), MechanismName(repro->mechanism),
                ExecModeName(repro->mode), repro->expect.c_str(), got);
    if (!pass) {
      if (!detail.empty()) {
        std::printf("  %s\n", detail.c_str());
      }
      ++bad;
    }
  }
  std::printf("corpus: %zu repros, %d failures\n", files.size(), bad);
  return bad == 0 ? 0 : 1;
}

// Systematic replicated-cluster sweep: every stop phase of the replicated
// commit x every targetable ordinal x every non-empty crashed-node subset,
// for each selected protocol. Failures are already minimal schedules (one
// txn, one stop point, one subset), so they are saved to --out directly.
int RunReplSweep(const CliOptions& cli) {
  std::vector<repl::ReplProtocol> protocols;
  if (cli.protocol == "all") {
    protocols = {repl::ReplProtocol::kPrimaryBackup,
                 repl::ReplProtocol::kOneSidedRedo};
  } else {
    auto p = repl::ReplProtocolFromName(cli.protocol);
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      return 2;
    }
    protocols = {*p};
  }

  SweepStats total;
  int configs_with_failures = 0;
  for (const repl::ReplProtocol protocol : protocols) {
    repl::ReplFuzzConfig config;
    config.groups = cli.repl_groups;
    config.replicas = cli.repl_replicas;
    config.protocol = protocol;
    config.enforce_ppo = cli.enforce_ppo;
    config.skip_recovery_replay = cli.break_recovery;
    config.break_intent_redo = cli.break_intent_redo;
    config.skip_redo_persist = cli.skip_redo_persist;
    repl::ReplFuzzer fuzzer(config);

    std::vector<repl::ReplFuzzFailure> failures;
    const SweepStats stats = fuzzer.Systematic(cli.first_seed, &failures);
    total.cases += stats.cases;
    total.failures += stats.failures;
    if (stats.failures > 0) {
      ++configs_with_failures;
    }
    std::printf("[repl/%s %dx%d] %" PRIu64 " cases, %" PRIu64 " failures\n",
                repl::ReplProtocolName(protocol), cli.repl_groups,
                cli.repl_replicas, stats.cases, stats.failures);
    int shown = 0;
    for (const repl::ReplFuzzFailure& f : failures) {
      if (shown >= cli.max_shrinks) {
        std::printf("  (%zu more failures not shown)\n",
                    failures.size() - static_cast<std::size_t>(shown));
        break;
      }
      ++shown;
      std::printf("  FAIL seed=%" PRIu64 " phase=%s ordinal=%d mask=%" PRIu64
                  " %s: %s: %s\n",
                  f.fuzz_case.seed,
                  repl::ReplFuzzer::PhaseName(f.fuzz_case.phase),
                  f.fuzz_case.ordinal, f.fuzz_case.crash_mask,
                  f.fuzz_case.lines_survive ? "surv" : "drop",
                  repl::ReplFailureKindName(f.result.failure),
                  f.result.detail.c_str());
      if (!cli.out_dir.empty()) {
        const CrashRepro repro =
            fuzzer.ToRepro(f.fuzz_case, "violation", f.result.detail);
        const std::string path = cli.out_dir + "/" + ReproFileName(repro);
        const Status saved = SaveRepro(repro, path);
        if (saved.ok()) {
          std::printf("  repro: %s\n", path.c_str());
        } else {
          std::fprintf(stderr, "  cannot save repro: %s\n",
                       saved.ToString().c_str());
        }
      }
    }
  }

  std::printf("total: %" PRIu64 " cases, %" PRIu64
              " failures across %zu protocol(s)\n",
              total.cases, total.failures, protocols.size());
  if (cli.expect_failures) {
    if (configs_with_failures == static_cast<int>(protocols.size())) {
      return 0;
    }
    std::fprintf(stderr,
                 "expected violations in every protocol, but %zu stayed "
                 "green\n",
                 protocols.size() - static_cast<std::size_t>(
                                        configs_with_failures));
    return 1;
  }
  return total.failures == 0 ? 0 : 1;
}

}  // namespace

int FuzzMain(int argc, char** argv) {
  CliOptions cli;
  const flags::Flag table[] = {
      {"--seeds", &cli.seeds, "N", "random sweep over N seeds (default 20)"},
      {"--first-seed", &cli.first_seed, "S", "first seed (default 1)"},
      {"--cases-per-seed", &cli.cases_per_seed, "K",
       "cases per seed (default 3)", 1},
      {"--systematic", flags::OptionalUint{&cli.systematic_ops, 6}, "OPS",
       "crash-point sweep of one OPS-long schedule (bare: 6)"},
      {"--max-candidates", &cli.max_candidates, "N",
       "crash candidates per systematic step (default 24)"},
      {"--mechanism", &cli.mechanism, "NAME",
       "logging|redo_logging|checkpointing|shadow_paging|all"},
      {"--mode", &cli.mode, "NAME",
       "baseline|nearpm_sd|nearpm_md_swsync|nearpm_md|all"},
      {"--enforce-ppo", flags::Bool01{&cli.enforce_ppo}, "0|1",
       "PPO ordering (default 1; 0 is the Section 2.3 ablation)"},
      {"--break-recovery", flags::Switch{&cli.break_recovery}, "",
       "fault-inject the hardware recovery"},
      {"--replay", &cli.replay, "SEED:CASE", "re-run exactly one sweep case"},
      {"--corpus", &cli.corpus_dir, "DIR", "replay every repro under DIR"},
      {"--out", &cli.out_dir, "DIR", "persist shrunk failures as corpus JSON"},
      {"--expect-failures", flags::Switch{&cli.expect_failures}, "",
       "succeed only if every configuration fails"},
      {"--repl", flags::Switch{&cli.repl}, "", "replicated-cluster sweep"},
      {"--protocol", &cli.protocol, "NAME", "pb|redo|all (default all)"},
      {"--repl-groups", &cli.repl_groups, "G", "replica groups (default 2)", 1},
      {"--repl-replicas", &cli.repl_replicas, "K",
       "replicas per group (default 2)", 1},
      {"--break-intent-redo", flags::Switch{&cli.break_intent_redo}, "",
       "--repl recovery ablation"},
      {"--skip-redo-persist", flags::Switch{&cli.skip_redo_persist}, "",
       "--repl persist ablation"},
  };
  if (const Status st = flags::Parse(argc, argv, table); !st.ok()) {
    return flags::UsageError(argv[0], table, st);
  }
  if (!cli.replay.empty()) {
    const std::string_view replay = cli.replay;
    const std::size_t colon = replay.find(':');
    if (colon == std::string_view::npos ||
        !ParseUint(replay.substr(0, colon), &cli.replay_seed) ||
        !ParseUint(replay.substr(colon + 1), &cli.replay_case)) {
      return flags::UsageError(argv[0], table,
                               InvalidArgument("--replay wants SEED:CASE"));
    }
  }

  if (!cli.corpus_dir.empty()) {
    return ReplayCorpus(cli);
  }
  if (cli.repl) {
    return RunReplSweep(cli);
  }

  std::vector<Mechanism> mechanisms;
  if (cli.mechanism == "all") {
    mechanisms = {Mechanism::kLogging, Mechanism::kRedoLogging,
                  Mechanism::kCheckpointing, Mechanism::kShadowPaging};
  } else {
    auto m = MechanismFromName(cli.mechanism);
    if (!m.ok()) {
      return flags::UsageError(argv[0], table, m.status());
    }
    mechanisms = {*m};
  }
  std::vector<ExecMode> modes;
  if (cli.mode == "all") {
    modes = {ExecMode::kCpuBaseline, ExecMode::kNdpSingleDevice,
             ExecMode::kNdpMultiSwSync, ExecMode::kNdpMultiDelayed};
  } else {
    auto m = ExecModeFromName(cli.mode);
    if (!m.ok()) {
      return flags::UsageError(argv[0], table, m.status());
    }
    modes = {*m};
  }

  SweepStats total;
  int configs_with_failures = 0;
  int configs = 0;
  for (const Mechanism mech : mechanisms) {
    for (const ExecMode mode : modes) {
      ++configs;
      FuzzConfig config;
      config.mechanism = mech;
      config.mode = mode;
      config.enforce_ppo = cli.enforce_ppo;
      config.break_recovery = cli.break_recovery;
      CrashFuzzer fuzzer(config);

      std::vector<FuzzFailure> failures;
      SweepStats stats;
      if (!cli.replay.empty()) {
        const FuzzCase c =
            fuzzer.BuildSweepCase(cli.replay_seed, cli.replay_case);
        const CaseResult r = fuzzer.Run(c);
        ++stats.cases;
        if (!r.ok()) {
          ++stats.failures;
          failures.push_back(FuzzFailure{c, r});
        }
        PrintCase(r.ok() ? "ok" : "FAIL", c, r);
        if (!cli.out_dir.empty() && r.ok()) {
          // A green replayed case saved explicitly becomes a regression
          // anchor: the corpus test keeps proving it recovers cleanly.
          const CrashRepro repro = fuzzer.ToRepro(c, "recoverable",
                                                  "sweep regression anchor");
          const std::string path = cli.out_dir + "/" + ReproFileName(repro);
          const Status saved = SaveRepro(repro, path);
          if (saved.ok()) {
            std::printf("  repro: %s\n", path.c_str());
          } else {
            std::fprintf(stderr, "  cannot save repro: %s\n",
                         saved.ToString().c_str());
          }
        }
      } else {
        if (cli.systematic_ops > 0) {
          const SweepStats s = fuzzer.Systematic(
              cli.first_seed, cli.systematic_ops, cli.max_candidates,
              &failures);
          stats.cases += s.cases;
          stats.failures += s.failures;
        }
        if (cli.seeds > 0) {
          const SweepStats s = fuzzer.RandomSweep(
              cli.first_seed, cli.seeds, cli.cases_per_seed, &failures);
          stats.cases += s.cases;
          stats.failures += s.failures;
        }
      }
      total.cases += stats.cases;
      total.failures += stats.failures;
      if (stats.failures > 0) {
        ++configs_with_failures;
      }

      std::printf("[%s/%s] %" PRIu64 " cases, %" PRIu64 " failures\n",
                  MechanismName(mech), ExecModeName(mode), stats.cases,
                  stats.failures);
      int shrunk = 0;
      for (const FuzzFailure& f : failures) {
        if (shrunk >= cli.max_shrinks) {
          std::printf("  (%zu more failures not shown)\n",
                      failures.size() - static_cast<std::size_t>(shrunk));
          break;
        }
        ++shrunk;
        PrintCase("FAIL", f.fuzz_case, f.result);
        CaseResult min_result;
        const FuzzCase minimal = fuzzer.Shrink(f.fuzz_case, &min_result);
        PrintCase("  min", minimal, min_result);
        if (!cli.out_dir.empty() && !min_result.ok()) {
          const CrashRepro repro =
              fuzzer.ToRepro(minimal, "violation", min_result.detail);
          const std::string path = cli.out_dir + "/" + ReproFileName(repro);
          const Status saved = SaveRepro(repro, path);
          if (saved.ok()) {
            std::printf("  repro: %s\n", path.c_str());
          } else {
            std::fprintf(stderr, "  cannot save repro: %s\n",
                         saved.ToString().c_str());
          }
        }
      }
    }
  }

  std::printf("total: %" PRIu64 " cases, %" PRIu64
              " failures across %d configurations\n",
              total.cases, total.failures, configs);
  if (cli.expect_failures) {
    // Teeth check: every configuration must have tripped the oracle.
    if (configs_with_failures == configs) {
      return 0;
    }
    std::fprintf(stderr,
                 "expected violations in every configuration, but %d of %d "
                 "stayed green\n",
                 configs - configs_with_failures, configs);
    return 1;
  }
  return total.failures == 0 ? 0 : 1;
}

}  // namespace fuzz
}  // namespace nearpm

int main(int argc, char** argv) {
  return nearpm::fuzz::FuzzMain(argc, argv);
}
