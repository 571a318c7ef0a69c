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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
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
  std::uint64_t weaken_checker = 0;
  bool expect_disagreements = false;
  std::string out_dir;
  std::uint64_t max_candidates = 64;
  std::uint64_t max_masks = 6;
  bool recovery = true;
  std::uint64_t max_shrinks = 2;
};

bool MatchFlag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--generate] [--corpus=DIR] [--replay=FILE]\n"
               "          [--seed=N] [--count=N] [--systematic]\n"
               "          [--enforce=both|on|off] [--mutate-spec=NAME]\n"
               "          [--weaken-checker=MASK] [--expect-disagreements]\n"
               "          [--out=DIR] [--max-candidates=N] [--max-masks=N]\n"
               "          [--no-recovery] [--max-shrinks=N]\n",
               argv0);
  return 2;
}

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
      config.weaken_checker = static_cast<std::uint32_t>(cli.weaken_checker);
      config.max_crash_candidates = cli.max_candidates;
      config.max_masks = cli.max_masks;
      config.check_recovery = cli.recovery;
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
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (MatchFlag(argv[i], "--generate", &value)) {
      cli.generate = true;
    } else if (MatchFlag(argv[i], "--corpus", &value) && value != nullptr) {
      cli.corpus_dir = value;
    } else if (MatchFlag(argv[i], "--replay", &value) && value != nullptr) {
      cli.replay_file = value;
    } else if (MatchFlag(argv[i], "--seed", &value) && value != nullptr) {
      if (!ParseUint(value, &cli.seed)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--count", &value) && value != nullptr) {
      if (!ParseUint(value, &cli.count)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--systematic", &value)) {
      cli.systematic = true;
    } else if (MatchFlag(argv[i], "--enforce", &value) && value != nullptr) {
      cli.enforce = value;
    } else if (MatchFlag(argv[i], "--mutate-spec", &value) &&
               value != nullptr) {
      cli.mutate_spec = value;
    } else if (MatchFlag(argv[i], "--weaken-checker", &value) &&
               value != nullptr) {
      if (!ParseUint(value, &cli.weaken_checker)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--expect-disagreements", &value)) {
      cli.expect_disagreements = true;
    } else if (MatchFlag(argv[i], "--out", &value) && value != nullptr) {
      cli.out_dir = value;
    } else if (MatchFlag(argv[i], "--max-candidates", &value) &&
               value != nullptr) {
      if (!ParseUint(value, &cli.max_candidates)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--max-masks", &value) && value != nullptr) {
      if (!ParseUint(value, &cli.max_masks)) return Usage(argv[0]);
    } else if (MatchFlag(argv[i], "--no-recovery", &value)) {
      cli.recovery = false;
    } else if (MatchFlag(argv[i], "--max-shrinks", &value) &&
               value != nullptr) {
      if (!ParseUint(value, &cli.max_shrinks)) return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    }
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
