// Conformance-suite tests: litmus grammar round-trips, the differential
// harness stays clean on the generator grid, both teeth modes (mutated spec,
// weakened checker) produce shrinkable disagreements, and every checked-in
// corpus repro still replays. The deep sweep (500+ programs, full crash-point
// enumeration) lives in CI (`nearpm_litmus --systematic`); these tests keep
// the same machinery honest at unit-test budget.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/spec/conformance.h"
#include "src/spec/litmus.h"
#include "src/spec/model.h"

namespace nearpm {
namespace spec {
namespace {

TEST(LitmusGrammar, GridRoundTripsThroughText) {
  const std::vector<LitmusProgram> grid = GenerateGrid(1, 200);
  ASSERT_GE(grid.size(), 200u);
  for (const LitmusProgram& p : grid) {
    StatusOr<LitmusProgram> parsed = LitmusProgram::Parse(p.Text());
    ASSERT_TRUE(parsed.ok()) << p.name << ": " << parsed.status().message();
    EXPECT_EQ(parsed.value().Text(), p.Text()) << p.name;
  }
}

TEST(LitmusGrammar, GeneratorIsDeterministic) {
  const std::vector<LitmusProgram> a = GenerateGrid(42, 64);
  const std::vector<LitmusProgram> b = GenerateGrid(42, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].Text(), b[i].Text());
  }
}

TEST(LitmusGrammar, RejectsMalformedPrograms) {
  EXPECT_FALSE(LitmusProgram::Parse("w0 L9 1").ok());   // no such location
  EXPECT_FALSE(LitmusProgram::Parse("w2 L0 1").ok());   // no such thread
  EXPECT_FALSE(LitmusProgram::Parse("log0 S0").ok());   // missing location
  EXPECT_FALSE(LitmusProgram::Parse("q0 L0").ok());     // unknown opcode
  EXPECT_FALSE(LitmusProgram::Parse("w0 L0 0").ok());   // fill must be 1..9
}

TEST(SpecModel, FinalStateOfStraightLineProgramIsAllowed) {
  // After `w0 L0 3; p0 L0; sync0` the fully-persisted image must be among
  // the allowed crash states, and so must the initial (all-dropped) image.
  StatusOr<LitmusProgram> p = LitmusProgram::Parse("w0 L0 3; p0 L0; sync0");
  ASSERT_TRUE(p.ok());
  const SpecExec exec =
      Simulate(p.value(), p.value().instrs.size(), true, SpecMutation::kNone);
  const std::vector<std::string> allowed = AllowedStates(exec);
  EXPECT_FALSE(allowed.empty());
  const std::string persisted = CanonState(exec.vol);
  EXPECT_NE(std::find(allowed.begin(), allowed.end(), persisted),
            allowed.end())
      << "fully persisted state missing from the allowed set";
}

TEST(Conformance, GridPrefixSweepStaysClean) {
  // A slice of the deterministic grid, both enforce legs, full prefix and
  // crash-point sweep per program. CI's litmus-smoke job runs the 500+
  // program systematic version of this.
  const std::vector<LitmusProgram> grid = GenerateGrid(3, 24);
  ConformanceConfig config;
  ConformanceStats stats;
  for (std::size_t i = 0; i < 24; ++i) {
    const std::vector<Disagreement> dis =
        CheckProgramBothLegs(grid[i], config, &stats);
    for (const Disagreement& d : dis) {
      ADD_FAILURE() << grid[i].name << " [" << DisagreementKindName(d.kind)
                    << " prefix=" << d.prefix_len << "] " << d.detail;
    }
  }
  EXPECT_GT(stats.crash_states_checked, 0u);
  EXPECT_GT(stats.prefixes, 0u);
}

TEST(Conformance, MutatedSpecHasTeeth) {
  // An atomic-requests spec forgets torn outcomes; the healthy machine must
  // disagree on some grid program, and the shrunk repro must replay.
  ConformanceConfig config;
  config.mutation = SpecMutation::kAtomicRequests;
  const std::vector<LitmusProgram> grid = GenerateGrid(1, 64);
  for (const LitmusProgram& p : grid) {
    for (const bool enforce : {true, false}) {
      config.enforce = enforce;
      ConformanceStats stats;
      const std::vector<Disagreement> dis = CheckProgram(p, config, &stats);
      if (dis.empty()) continue;
      const LitmusProgram shrunk =
          ShrinkDisagreement(p, config, dis.front().kind);
      EXPECT_LE(shrunk.instrs.size(), p.instrs.size());
      const LitmusRepro repro = MakeRepro(shrunk, config, dis.front());
      const Status replayed = ReplayLitmusRepro(repro);
      EXPECT_TRUE(replayed.ok()) << replayed.message();
      return;
    }
  }
  FAIL() << "no grid program disagreed with the atomic-requests mutation";
}

TEST(Conformance, WeakenedCheckerHasTeeth) {
  // Disabling invariant 2 in the PpoChecker must surface as checker-missed
  // on some program whose trace witnesses the race.
  ConformanceConfig config;
  config.weaken_checker = 0x2;  // bit 1 = invariant 2
  const std::vector<LitmusProgram> grid = GenerateGrid(1, 64);
  for (const LitmusProgram& p : grid) {
    for (const bool enforce : {true, false}) {
      config.enforce = enforce;
      ConformanceStats stats;
      const std::vector<Disagreement> dis = CheckProgram(p, config, &stats);
      for (const Disagreement& d : dis) {
        if (d.kind != DisagreementKind::kCheckerMissed) continue;
        const LitmusProgram shrunk = ShrinkDisagreement(p, config, d.kind);
        const LitmusRepro repro = MakeRepro(shrunk, config, d);
        const Status replayed = ReplayLitmusRepro(repro);
        EXPECT_TRUE(replayed.ok()) << replayed.message();
        return;
      }
    }
  }
  FAIL() << "no grid program surfaced the disabled invariant";
}

TEST(Conformance, ReproJsonRoundTrips) {
  LitmusRepro repro;
  repro.name = "round-trip";
  repro.text = "log1 S0 L0; app1 S1 L0; w1 L0 1";
  repro.enforce = false;
  repro.mutation = SpecMutation::kWritesDurable;
  repro.weaken_checker = 0x5;
  repro.kind = DisagreementKind::kSanitizerMissed;
  repro.detail = "detail with \"quotes\" and \\ backslash";
  StatusOr<LitmusRepro> parsed = LitmusRepro::Parse(repro.Write());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().name, repro.name);
  EXPECT_EQ(parsed.value().text, repro.text);
  EXPECT_EQ(parsed.value().enforce, repro.enforce);
  EXPECT_EQ(parsed.value().mutation, repro.mutation);
  EXPECT_EQ(parsed.value().weaken_checker, repro.weaken_checker);
  EXPECT_EQ(parsed.value().kind, repro.kind);
  EXPECT_EQ(parsed.value().detail, repro.detail);
}

// The reader is strict: a wrong kind, an integer wider than the field and
// an unknown key are errors, never a silently different configuration.
TEST(Conformance, ReproJsonRejectsMalformed) {
  LitmusRepro repro;
  repro.name = "strict";
  repro.text = "w0 L0 1";
  const std::string json = repro.Write();
  ASSERT_TRUE(LitmusRepro::Parse(json).ok());
  const auto replaced = [&json](const std::string& from,
                                const std::string& to) {
    std::string text = json;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  EXPECT_FALSE(LitmusRepro::Parse(
                   replaced("\"enforce\": true", "\"enforce\": \"yes\""))
                   .ok());
  EXPECT_FALSE(LitmusRepro::Parse(replaced("\"weaken_checker\": 0",
                                           "\"weaken_checker\": 4294967297"))
                   .ok());
  EXPECT_FALSE(LitmusRepro::Parse(replaced("\"detail\": \"\"",
                                           "\"detail\": \"\", \"mutaton\": 1"))
                   .ok());
}

TEST(Conformance, CheckedInCorpusReplays) {
  // Every repro under tests/litmus_corpus must still reproduce its recorded
  // disagreement (and the healthy configuration must stay clean).
  const std::filesystem::path dir = NEARPM_LITMUS_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buf;
    buf << in.rdbuf();
    StatusOr<LitmusRepro> repro = LitmusRepro::Parse(buf.str());
    ASSERT_TRUE(repro.ok())
        << entry.path() << ": " << repro.status().message();
    EXPECT_EQ(repro->Write(), buf.str())
        << entry.path() << " does not round-trip byte for byte";
    const Status status = ReplayLitmusRepro(repro.value());
    EXPECT_TRUE(status.ok()) << entry.path() << ": " << status.message();
    ++replayed;
  }
  EXPECT_GE(replayed, 3u) << "litmus corpus should hold the teeth anchors";
}

}  // namespace
}  // namespace spec
}  // namespace nearpm
