// Replays every minimized crash repro committed under tests/fuzz_corpus/ as
// an individual test case. Repros with expect="recoverable" are regression
// anchors (a crash state that must keep recovering cleanly); repros with
// expect="violation" are teeth anchors (states the oracle must keep
// flagging, e.g. the Section 2.3 ablation).
//
// NEARPM_FUZZ_CORPUS_DIR is injected by the build (tests/CMakeLists.txt)
// and points at the source-tree corpus directory.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analyze/sanitizer.h"
#include "src/analyze/trace_analyzer.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_fuzzer.h"
#include "src/repl/repl_fuzzer.h"
#include "src/serve/serve_fuzzer.h"

namespace nearpm {
namespace fuzz {
namespace {

std::vector<std::string> CorpusFiles() {
  return ListCorpus(NEARPM_FUZZ_CORPUS_DIR);
}

TEST(FuzzCorpusTest, CorpusIsPresent) {
  EXPECT_FALSE(CorpusFiles().empty())
      << "no repro files under " << NEARPM_FUZZ_CORPUS_DIR;
}

class FuzzCorpusReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzCorpusReplayTest, ReplayMatchesExpectation) {
  auto repro = LoadRepro(GetParam());
  ASSERT_TRUE(repro.ok()) << repro.status().ToString();

  bool run_ok = false;
  std::string verdict;
  if (repro->kind == "serve") {
    serve::ServeFuzzer fuzzer(serve::ServeFuzzer::ConfigFromRepro(*repro));
    auto c = serve::ServeFuzzer::CaseFromRepro(*repro);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    const serve::ServeCaseResult r = fuzzer.Run(*c);
    run_ok = r.ok();
    verdict = std::string(serve::ServeFailureKindName(r.failure)) + ": " +
              r.detail;
  } else if (repro->kind == "repl") {
    repl::ReplFuzzer fuzzer(repl::ReplFuzzer::ConfigFromRepro(*repro));
    auto c = repl::ReplFuzzer::CaseFromRepro(*repro);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    const repl::ReplCaseResult r = fuzzer.Run(*c);
    run_ok = r.ok();
    verdict = std::string(repl::ReplFailureKindName(r.failure)) + ": " +
              r.detail;
  } else {
    CrashFuzzer fuzzer(CrashFuzzer::ConfigFromRepro(*repro));
    const FuzzCase c = CrashFuzzer::CaseFromRepro(*repro);
    const CaseResult r = fuzzer.Run(c);
    run_ok = r.ok();
    verdict = std::string(FailureKindName(r.failure)) + ": " + r.detail;
  }
  if (repro->expect == "violation") {
    EXPECT_FALSE(run_ok)
        << "a once-flagged crash state passed the oracle; if the machine "
           "became stricter on purpose, refresh this repro ("
        << GetParam() << ")";
  } else {
    EXPECT_TRUE(run_ok) << verdict << " (" << GetParam() << ")";
  }
}

// Write(Parse(file)) reproduces every committed repro byte for byte, which
// pins the corpus file format.
TEST_P(FuzzCorpusReplayTest, FileRoundTripsByteIdentical) {
  std::ifstream in(GetParam());
  ASSERT_TRUE(in.good()) << GetParam();
  std::ostringstream text;
  text << in.rdbuf();
  auto repro = ReproFromJson(text.str());
  ASSERT_TRUE(repro.ok()) << repro.status().ToString();
  EXPECT_EQ(ReproToJson(*repro), text.str());
}

// The rule-engine policy nearpm_analyze --corpus enforces, applied to the
// same committed repros: serve-/repl-kind repros replay their per-machine
// trace snapshots through fresh sanitizers; sound repros must be
// analyzer-clean, and skip_redo_persist repros must fire NPM007 (the
// analyzer's teeth against the one-sided-redo ablation).
class CorpusAnalyzerPolicyTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(CorpusAnalyzerPolicyTest, TraceReplayMatchesPolicy) {
  auto repro = LoadRepro(GetParam());
  ASSERT_TRUE(repro.ok()) << repro.status().ToString();
  if (repro->kind != "serve" && repro->kind != "repl") {
    GTEST_SKIP() << "bank-kind repros attach the sanitizer live";
  }

  analyze::PmSanitizer san;
  std::vector<std::vector<TraceEvent>> traces;
  bool redo_persist_broken = false;
  if (repro->kind == "serve") {
    serve::ServeFuzzConfig config = serve::ServeFuzzer::ConfigFromRepro(*repro);
    config.trace_sink = &traces;
    auto c = serve::ServeFuzzer::CaseFromRepro(*repro);
    ASSERT_TRUE(c.ok());
    serve::ServeFuzzer(config).Run(*c);
  } else {
    repl::ReplFuzzConfig config = repl::ReplFuzzer::ConfigFromRepro(*repro);
    config.trace_sink = &traces;
    redo_persist_broken = config.skip_redo_persist;
    auto c = repl::ReplFuzzer::CaseFromRepro(*repro);
    ASSERT_TRUE(c.ok());
    repl::ReplFuzzer(config).Run(*c);
  }
  ASSERT_FALSE(traces.empty()) << "the fuzzer deposited no trace snapshots";
  for (const std::vector<TraceEvent>& trace : traces) {
    analyze::AnalyzeTrace(trace, &san);
  }

  const bool sound =
      repro->enforce_ppo && !repro->break_recovery && !redo_persist_broken;
  if (sound) {
    EXPECT_EQ(san.sink().total_unsuppressed(), 0u)
        << san.sink().RenderText();
  }
  if (!repro->enforce_ppo) {
    EXPECT_GT(san.sink().total_unsuppressed(), 0u)
        << "the rule engine missed the enforce_ppo=false ablation";
  }
  if (redo_persist_broken) {
    EXPECT_GT(san.sink().count(analyze::RuleId::kNpm007), 0u)
        << "the rule engine missed the skip_redo_persist ablation";
  }
}

std::string TestNameForPath(const std::string& path) {
  // Strip the directory and sanitize for gtest (alphanumerics only).
  std::string name = path.substr(path.find_last_of('/') + 1);
  for (char& ch : name) {
    if ((ch < 'a' || ch > 'z') && (ch < 'A' || ch > 'Z') &&
        (ch < '0' || ch > '9')) {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, FuzzCorpusReplayTest,
                         ::testing::ValuesIn(CorpusFiles()),
                         [](const auto& corpus_info) {
                           return TestNameForPath(corpus_info.param);
                         });

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusAnalyzerPolicyTest,
                         ::testing::ValuesIn(CorpusFiles()),
                         [](const auto& corpus_info) {
                           return TestNameForPath(corpus_info.param);
                         });

}  // namespace
}  // namespace fuzz
}  // namespace nearpm
