// Tests for the crash-state fuzzer itself: the sweep stays green on the
// sound configurations, replay is bit-for-bit deterministic, and -- the
// teeth check -- both known ways to break the machine (the Section 2.3
// no-PPO ablation and a fault-injected hardware recovery) are caught and
// shrink to small repros.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_fuzzer.h"

namespace nearpm {
namespace fuzz {
namespace {

std::string FirstFailureDetail(const std::vector<FuzzFailure>& failures) {
  if (failures.empty()) {
    return "(no failures)";
  }
  const FuzzFailure& f = failures.front();
  return std::string(FailureKindName(f.result.failure)) + " at seed=" +
         std::to_string(f.fuzz_case.seed) + " step=" +
         std::to_string(f.fuzz_case.crash_step) +
         (f.fuzz_case.mid_op ? "m" : "c") + " t=" +
         std::to_string(f.fuzz_case.crash_time) + ": " + f.result.detail;
}

struct SweepCase {
  Mechanism mechanism;
  ExecMode mode;
};

class FuzzGreenSweepTest : public ::testing::TestWithParam<SweepCase> {};

// With PPO enforced every mechanism/mode pair must survive every sampled
// crash state: all oracles green, across random instants and masks.
TEST_P(FuzzGreenSweepTest, RandomSweepStaysGreen) {
  FuzzConfig config;
  config.mechanism = GetParam().mechanism;
  config.mode = GetParam().mode;
  CrashFuzzer fuzzer(config);
  std::vector<FuzzFailure> failures;
  const SweepStats stats = fuzzer.RandomSweep(1, 5, 2, &failures);
  EXPECT_EQ(stats.cases, 10u);
  EXPECT_EQ(stats.failures, 0u) << FirstFailureDetail(failures);
}

std::vector<SweepCase> AllSweepCases() {
  std::vector<SweepCase> cases;
  for (Mechanism mech :
       {Mechanism::kLogging, Mechanism::kRedoLogging,
        Mechanism::kCheckpointing, Mechanism::kShadowPaging}) {
    for (ExecMode mode :
         {ExecMode::kCpuBaseline, ExecMode::kNdpSingleDevice,
          ExecMode::kNdpMultiSwSync, ExecMode::kNdpMultiDelayed}) {
      cases.push_back(SweepCase{mech, mode});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, FuzzGreenSweepTest,
                         ::testing::ValuesIn(AllSweepCases()),
                         [](const auto& sweep_info) {
                           return std::string(
                                      MechanismName(sweep_info.param.mechanism)) +
                                  "_" + ExecModeName(sweep_info.param.mode);
                         });

// Systematic mode enumerates every crash instant the trace exposes; the
// delayed-sync multi-device configuration is the adversarial one.
TEST(FuzzSystematicTest, SystematicSweepStaysGreen) {
  FuzzConfig config;
  config.mechanism = Mechanism::kLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  CrashFuzzer fuzzer(config);
  std::vector<FuzzFailure> failures;
  const SweepStats stats = fuzzer.Systematic(1, 4, 12, &failures);
  EXPECT_GT(stats.cases, 0u);
  EXPECT_EQ(stats.failures, 0u) << FirstFailureDetail(failures);
}

// --replay=seed:case must reproduce a sweep case bit-for-bit.
TEST(FuzzReplayTest, SweepCaseDerivationIsDeterministic) {
  FuzzConfig config;
  config.mechanism = Mechanism::kRedoLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  CrashFuzzer fuzzer(config);
  const FuzzCase a = fuzzer.BuildSweepCase(7, 3);
  const FuzzCase b = fuzzer.BuildSweepCase(7, 3);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.crash_step, b.crash_step);
  EXPECT_EQ(a.mid_op, b.mid_op);
  EXPECT_EQ(a.crash_time, b.crash_time);
  EXPECT_EQ(a.line_survival, b.line_survival);

  const CaseResult ra = fuzzer.Run(a);
  const CaseResult rb = fuzzer.Run(b);
  EXPECT_EQ(ra.failure, rb.failure);
  EXPECT_EQ(ra.matched_prefix, rb.matched_prefix);
  EXPECT_EQ(ra.committed, rb.committed);
}

// The Section 2.3 ablation: without PPO the differential oracle must flag
// at least one crash state (the in-flight undo log is lost while the
// in-place update survives), and the failure must shrink while staying a
// failure.
TEST(FuzzTeethTest, PpoAblationIsCaught) {
  FuzzConfig config;
  config.mechanism = Mechanism::kLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  config.enforce_ppo = false;
  CrashFuzzer fuzzer(config);

  std::vector<FuzzFailure> failures;
  for (std::uint64_t seed = 1; seed <= 6 && failures.empty(); ++seed) {
    fuzzer.Systematic(seed, 6, 16, &failures);
  }
  ASSERT_FALSE(failures.empty())
      << "the no-PPO ablation produced no oracle failure";

  CaseResult min_result;
  const FuzzCase minimal = fuzzer.Shrink(failures.front().fuzz_case,
                                         &min_result);
  EXPECT_FALSE(min_result.ok());
  EXPECT_LE(minimal.crash_step, failures.front().fuzz_case.crash_step);
  EXPECT_LE(minimal.total_ops, failures.front().fuzz_case.total_ops);
}

// Fault injection: with the hardware recovery's journalled replay disabled
// (skip_recovery_replay), a crash between two deferred cross-device log
// invalidations rolls back an already-committed operation while a later one
// stays applied -- a non-prefix state the differential oracle must catch.
// The acceptance bar: the shrunk repro is at most 10 operations long, and
// the very same crash plan passes once the recovery is intact again.
TEST(FuzzTeethTest, BrokenRecoveryIsCaughtAndShrinks) {
  FuzzConfig config;
  config.mechanism = Mechanism::kLogging;
  config.mode = ExecMode::kNdpMultiDelayed;
  config.break_recovery = true;
  CrashFuzzer fuzzer(config);

  std::vector<FuzzFailure> failures;
  for (std::uint64_t seed = 1; seed <= 8 && failures.empty(); ++seed) {
    fuzzer.Systematic(seed, 8, 16, &failures);
  }
  ASSERT_FALSE(failures.empty())
      << "the broken hardware recovery went undetected";

  CaseResult min_result;
  const FuzzCase minimal = fuzzer.Shrink(failures.front().fuzz_case,
                                         &min_result);
  EXPECT_FALSE(min_result.ok());
  EXPECT_LE(minimal.total_ops, 10u) << "shrinking left a large repro";

  // Same schedule, same crash plan, recovery fixed: must pass every oracle.
  FuzzConfig fixed = config;
  fixed.break_recovery = false;
  const CaseResult healthy = CrashFuzzer(fixed).Run(minimal);
  EXPECT_TRUE(healthy.ok())
      << FailureKindName(healthy.failure) << ": " << healthy.detail;
}

// Corpus round trip: case -> repro -> JSON -> repro -> case is lossless.
TEST(FuzzCorpusRoundTripTest, JsonRoundTripIsLossless) {
  FuzzConfig config;
  config.mechanism = Mechanism::kShadowPaging;
  config.mode = ExecMode::kNdpMultiSwSync;
  config.enforce_ppo = false;
  CrashFuzzer fuzzer(config);

  FuzzCase c;
  c.seed = 42;
  c.total_ops = 7;
  c.crash_step = 4;
  c.mid_op = true;
  c.crash_time = 123456;
  c.line_survival = {true, false, true};

  const CrashRepro repro = fuzzer.ToRepro(c, "violation", "round trip");
  auto parsed = ReproFromJson(ReproToJson(repro));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->mechanism, Mechanism::kShadowPaging);
  EXPECT_EQ(parsed->mode, ExecMode::kNdpMultiSwSync);
  EXPECT_FALSE(parsed->enforce_ppo);
  EXPECT_FALSE(parsed->break_recovery);
  EXPECT_EQ(parsed->expect, "violation");
  EXPECT_EQ(parsed->note, "round trip");

  const FuzzCase back = CrashFuzzer::CaseFromRepro(*parsed);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.total_ops, c.total_ops);
  EXPECT_EQ(back.crash_step, c.crash_step);
  EXPECT_EQ(back.mid_op, c.mid_op);
  EXPECT_EQ(back.crash_time, c.crash_time);
  EXPECT_EQ(back.line_survival, c.line_survival);
}

// A repro must replay exactly the crash state that was found, so an edit
// that repeats, overflows or misspells a field is an error, not a guess.
TEST(FuzzCorpusRoundTripTest, RejectsMalformedRepros) {
  const std::string json = ReproToJson(CrashRepro{});
  ASSERT_TRUE(ReproFromJson(json).ok());
  const auto replaced = [&json](const std::string& to) {
    const std::string from = "\"seed\": 1";
    std::string text = json;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos);
    return text.replace(at, from.size(), to);
  };
  EXPECT_FALSE(ReproFromJson(replaced("\"seed\": 1, \"seed\": 2")).ok())
      << "duplicate key";
  EXPECT_FALSE(ReproFromJson(replaced("\"seed\": 18446744073709551617")).ok())
      << "2^64 + 1 must not wrap to 1";
  EXPECT_FALSE(ReproFromJson(replaced("\"seed\": 1, \"knid\": \"serve\"")).ok())
      << "unknown key";
}

}  // namespace
}  // namespace fuzz
}  // namespace nearpm
