// nearpm_litmus: litmus-test conformance driver for the executable PPO
// specification (src/spec).
//
// Modes (one per run):
//
//   --generate           print the deterministic litmus batch and exit
//   --corpus=DIR         replay every litmus repro JSON under DIR and check
//                        that it still reproduces its recorded disagreement
//                        (and that the healthy configuration stays clean)
//   --replay=FILE        replay exactly one repro file
//   (default)            conformance run: every program of the batch, every
//                        prefix, crash-point sweep x survival masks, checker
//                        and sanitizer differentials
//
// Batch selection: --seed (default 1) and --count (default 64) feed the
// deterministic generator; --systematic raises the batch to at least 500
// programs (the CI gate). --enforce=both|on|off picks the runtime legs.
//
// Teeth: --mutate-spec=NAME breaks the spec (atomic-requests,
// writes-durable, no-races), --weaken-checker=MASK disables PpoChecker
// invariants (bit i-1 = invariant i; only bits 1..3 have teeth on a healthy
// machine). --expect-disagreements inverts the exit code: the run succeeds
// only if at least one disagreement was found, shrunk and (with --out=DIR)
// persisted -- CI uses this to prove the differential oracle can actually
// catch a divergent implementation.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/spec/conformance.h"
#include "src/spec/litmus.h"
#include "src/spec/model.h"

namespace nearpm {
namespace spec {
namespace {

struct CliOptions {
  bool generate = false;
  std::string corpus_dir;
  std::string replay_file;
  std::uint64_t seed = 1;
  std::uint64_t count = 64;
  bool systematic = false;
  std::string enforce = "both";
  std::string mutate_spec = "none";
  std::uint32_t weaken_checker = 0;
  bool expect_disagreements = false;
  std::string out_dir;
  std::uint64_t max_candidates = 64;
  std::uint64_t max_masks = 6;
  bool no_recovery = false;
  std::uint64_t max_shrinks = 2;
};

std::string SanitizeFileName(std::string name) {
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) {
      c = '_';
    }
  }
  return name;
}

bool WriteRepro(const std::string& dir, const LitmusRepro& repro) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + SanitizeFileName(repro.name) + "-" +
                           DisagreementKindName(repro.kind) + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << repro.Write();
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

int ReplayOne(const std::filesystem::path& path, std::uint64_t* failures) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.string().c_str());
    ++*failures;
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const StatusOr<LitmusRepro> repro = LitmusRepro::Parse(buffer.str());
  if (!repro.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.string().c_str(),
                 repro.status().ToString().c_str());
    ++*failures;
    return 1;
  }
  const Status status = ReplayLitmusRepro(*repro);
  if (!status.ok()) {
    std::printf("FAIL  %s: %s\n", path.string().c_str(),
                status.ToString().c_str());
    ++*failures;
    return 1;
  }
  std::printf("ok    %s (%s, %s)\n", path.string().c_str(),
              repro->name.c_str(), DisagreementKindName(repro->kind));
  return 0;
}

int RunCorpus(const CliOptions& cli) {
  std::uint64_t failures = 0;
  std::uint64_t replayed = 0;
  if (!cli.replay_file.empty()) {
    ++replayed;
    ReplayOne(cli.replay_file, &failures);
  } else {
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(cli.corpus_dir, ec)) {
      if (entry.path().extension() == ".json") {
        files.push_back(entry.path());
      }
    }
    if (ec) {
      std::fprintf(stderr, "cannot list %s: %s\n", cli.corpus_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      ++replayed;
      ReplayOne(path, &failures);
    }
  }
  std::printf("litmus corpus: %llu replayed, %llu failed\n",
              static_cast<unsigned long long>(replayed),
              static_cast<unsigned long long>(failures));
  if (replayed == 0) {
    std::fprintf(stderr, "no repro files found\n");
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

int RunConformance(const CliOptions& cli) {
  SpecMutation mutation = SpecMutation::kNone;
  if (!SpecMutationFromString(cli.mutate_spec, &mutation)) {
    std::fprintf(stderr, "unknown --mutate-spec=%s\n", cli.mutate_spec.c_str());
    return 2;
  }
  std::vector<bool> legs;
  if (cli.enforce == "both") {
    legs = {true, false};
  } else if (cli.enforce == "on") {
    legs = {true};
  } else if (cli.enforce == "off") {
    legs = {false};
  } else {
    std::fprintf(stderr, "unknown --enforce=%s\n", cli.enforce.c_str());
    return 2;
  }

  const std::size_t min_programs =
      cli.systematic ? std::max<std::size_t>(cli.count, 500) : cli.count;
  const std::vector<LitmusProgram> batch =
      GenerateGrid(cli.seed, min_programs);
  std::printf(
      "litmus conformance: %zu programs, legs=%s, mutation=%s, "
      "weaken-checker=0x%llx\n",
      batch.size(), cli.enforce.c_str(), SpecMutationName(mutation),
      static_cast<unsigned long long>(cli.weaken_checker));

  ConformanceStats stats;
  std::uint64_t disagreeing_programs = 0;
  std::uint64_t shrunk = 0;
  bool shrink_budget_left = true;
  for (const LitmusProgram& program : batch) {
    for (const bool enforce : legs) {
      ConformanceConfig config;
      config.enforce = enforce;
      config.mutation = mutation;
      config.weaken_checker = cli.weaken_checker;
      config.max_crash_candidates = cli.max_candidates;
      config.max_masks = cli.max_masks;
      config.check_recovery = !cli.no_recovery;
      const std::vector<Disagreement> found =
          CheckProgram(program, config, &stats);
      if (found.empty()) {
        continue;
      }
      ++disagreeing_programs;
      const Disagreement& first = found.front();
      std::printf("%s %s [enforce=%d prefix=%zu] %s: %s\n",
                  cli.expect_disagreements ? "teeth" : "DISAGREE",
                  program.name.c_str(), enforce ? 1 : 0, first.prefix_len,
                  DisagreementKindName(first.kind), first.detail.c_str());
      if (shrink_budget_left && shrunk < cli.max_shrinks) {
        const LitmusProgram small =
            ShrinkDisagreement(program, config, first.kind);
        ++shrunk;
        std::printf("  shrunk to: %s\n", small.Text().c_str());
        Disagreement kept = first;
        for (const Disagreement& d : CheckProgram(small, config, nullptr)) {
          if (d.kind == first.kind) {
            kept = d;
            break;
          }
        }
        if (!cli.out_dir.empty()) {
          WriteRepro(cli.out_dir, MakeRepro(small, config, kept));
        }
      }
      break;  // one disagreeing leg per program is enough signal
    }
    // Teeth mode only needs enough repros to prove the oracle bites.
    if (cli.expect_disagreements && shrunk >= cli.max_shrinks) {
      shrink_budget_left = false;
      break;
    }
  }

  std::printf(
      "litmus conformance: %llu programs, %llu prefixes, %llu crash states, "
      "%llu candidates truncated, %llu recovery runs, %llu checker "
      "violations, %llu sanitizer findings, %llu disagreeing programs\n",
      static_cast<unsigned long long>(stats.programs),
      static_cast<unsigned long long>(stats.prefixes),
      static_cast<unsigned long long>(stats.crash_states_checked),
      static_cast<unsigned long long>(stats.crash_candidates_truncated),
      static_cast<unsigned long long>(stats.recovery_runs),
      static_cast<unsigned long long>(stats.checker_violations),
      static_cast<unsigned long long>(stats.sanitizer_findings),
      static_cast<unsigned long long>(disagreeing_programs));
  if (cli.expect_disagreements) {
    if (disagreeing_programs == 0) {
      std::fprintf(stderr,
                   "expected disagreements but the differential found none: "
                   "the oracle has no teeth\n");
      return 1;
    }
    std::printf("teeth confirmed: the differential catches the fault\n");
    return 0;
  }
  return disagreeing_programs == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  const flags::Flag table[] = {
      {"--generate", flags::Switch{&cli.generate}, "",
       "print the litmus batch and exit"},
      {"--corpus", &cli.corpus_dir, "DIR", "replay every repro JSON under DIR"},
      {"--replay", &cli.replay_file, "FILE", "replay one repro file"},
      {"--seed", &cli.seed, "N", "generator seed (default 1)"},
      {"--count", &cli.count, "N", "programs in the batch (default 64)"},
      {"--systematic", flags::Switch{&cli.systematic}, "",
       "at least 500 programs (the CI gate)"},
      {"--enforce", &cli.enforce, "both|on|off", "runtime legs (default both)"},
      {"--mutate-spec", &cli.mutate_spec, "NAME",
       "atomic-requests|writes-durable|no-races (default none)"},
      {"--weaken-checker", &cli.weaken_checker, "MASK",
       "bit i-1 disables PpoChecker invariant i (default 0)"},
      {"--expect-disagreements", flags::Switch{&cli.expect_disagreements}, "",
       "succeed only if a disagreement is found"},
      {"--out", &cli.out_dir, "DIR", "persist shrunk disagreements"},
      {"--max-candidates", &cli.max_candidates, "N",
       "crash candidates per prefix (default 64)"},
      {"--max-masks", &cli.max_masks, "N", "masks per crash point (default 6)"},
      {"--no-recovery", flags::Switch{&cli.no_recovery}, "",
       "skip the recovery differential"},
      {"--max-shrinks", &cli.max_shrinks, "N", "shrunk repros (default 2)"},
  };
  if (const Status st = flags::Parse(argc, argv, table); !st.ok()) {
    return flags::UsageError(argv[0], table, st);
  }
  if (cli.generate) {
    const std::size_t min_programs =
        cli.systematic ? std::max<std::size_t>(cli.count, 500) : cli.count;
    for (const LitmusProgram& p : GenerateGrid(cli.seed, min_programs)) {
      std::printf("%-24s %s\n", p.name.c_str(), p.Text().c_str());
    }
    return 0;
  }
  if (!cli.corpus_dir.empty() || !cli.replay_file.empty()) {
    return RunCorpus(cli);
  }
  return RunConformance(cli);
}

}  // namespace
}  // namespace spec
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::spec::Main(argc, argv); }
