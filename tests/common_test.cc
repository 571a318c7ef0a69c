#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace nearpm {
namespace {

TEST(TypesTest, AlignHelpers) {
  EXPECT_EQ(AlignUp(0, 64), 0u);
  EXPECT_EQ(AlignUp(1, 64), 64u);
  EXPECT_EQ(AlignUp(64, 64), 64u);
  EXPECT_EQ(AlignUp(65, 64), 128u);
  EXPECT_EQ(AlignDown(0, 64), 0u);
  EXPECT_EQ(AlignDown(63, 64), 0u);
  EXPECT_EQ(AlignDown(64, 64), 64u);
  EXPECT_EQ(AlignDown(127, 64), 64u);
}

TEST(TypesTest, AddrRangeOverlap) {
  const AddrRange a{100, 200};
  EXPECT_TRUE(a.Overlaps({150, 160}));
  EXPECT_TRUE(a.Overlaps({0, 101}));
  EXPECT_TRUE(a.Overlaps({199, 300}));
  EXPECT_FALSE(a.Overlaps({200, 300}));
  EXPECT_FALSE(a.Overlaps({0, 100}));
  EXPECT_FALSE(a.Overlaps({150, 150}));  // empty range
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(a.Contains(100));
  EXPECT_FALSE(a.Contains(200));
}

TEST(TypesTest, EmptyRangeBehaviour) {
  const AddrRange empty{50, 50};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.Overlaps({0, 100}));
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = NotFound("missing pool");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing pool");
}

TEST(StatusTest, StatusOrValueAndError) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  StatusOr<int> err(InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 10; ++i) {
    differ += a.Next() != b.Next();
  }
  EXPECT_GT(differ, 5);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoolProbability) {
  Rng rng(11);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    trues += rng.NextBool(0.3);
  }
  EXPECT_NEAR(trues / 10000.0, 0.3, 0.03);
}

TEST(RunningStatTest, MeanAndStddev) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, EmptyAndSingle) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(HistogramTest, PercentilesMonotone) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.9));
  EXPECT_LE(h.Percentile(0.9), h.Percentile(0.99));
  EXPECT_GE(h.Percentile(0.99), 512u);
}

TEST(HistogramTest, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
}

TEST(HistogramTest, SingleSampleReturnsBucketUpperBound) {
  Histogram h;
  h.Add(100);  // bucket [64, 127]
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 100u);
  // Every quantile of a one-sample distribution lands in the same bucket
  // and reports its inclusive upper bound 2^7 - 1.
  EXPECT_EQ(h.Percentile(0.0), 127u);
  EXPECT_EQ(h.Percentile(0.5), 127u);
  EXPECT_EQ(h.Percentile(1.0), 127u);
}

TEST(HistogramTest, QuantileExtremesBracketTheSamples) {
  Histogram h;
  h.Add(1);     // bucket upper bound 1
  h.Add(1000);  // bucket [512, 1023], upper bound 1023
  // q=0 resolves to the smallest populated bucket, q=1 to the largest.
  EXPECT_EQ(h.Percentile(0.0), 1u);
  EXPECT_EQ(h.Percentile(1.0), 1023u);
  EXPECT_EQ(h.sum(), 1001u);
}

TEST(HistogramTest, MergeFromAccumulates) {
  Histogram a;
  Histogram b;
  a.Add(10);
  b.Add(1000);
  b.Add(1);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 1011u);
  EXPECT_EQ(a.Percentile(0.0), 1u);
  EXPECT_EQ(a.Percentile(1.0), 1023u);
}

TEST(GeoMeanTest, Basics) {
  EXPECT_DOUBLE_EQ(GeoMean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
  EXPECT_NEAR(GeoMean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(ParseUintTest, ExactDecimalOnly) {
  std::uint64_t n = 7;
  for (const char* bad : {"-1", " 1", "1 ", "+1", "", "0x8", "1.0",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUint(bad, &n)) << '"' << bad << '"';
  }
  EXPECT_EQ(n, 7u) << "a rejected parse leaves the output alone";
  ASSERT_TRUE(ParseUint("0", &n));
  EXPECT_EQ(n, 0u);
  ASSERT_TRUE(ParseUint("18446744073709551615", &n));
  EXPECT_EQ(n, UINT64_MAX);
}

// Every field kind a CLI binds, with the bounds the tools use.
struct FlagFields {
  std::string name = "default";
  std::vector<std::string> traces;
  int threads = 1;
  std::uint32_t slots = 16;
  std::uint64_t seed = 7;
  double zipf = 0.99;
  bool quiet = false;
  bool enforce = true;
  std::uint64_t systematic = 0;
  std::vector<std::string> workloads = {"btree"};
  std::vector<int> units = {2, 4};
  std::vector<double> gbps = {2.0};

  std::vector<flags::Flag> Table() {
    return {
        {"--name", &name, "NAME", "a string"},
        {"--trace-in", flags::Repeated{&traces}, "FILE", "repeatable"},
        {"--threads", &threads, "N", "int, at least 1", 1},
        {"--slots", &slots, "N", "uint32"},
        {"--seed", &seed, "N", "uint64"},
        {"--zipf", &zipf, "T", "finite double"},
        {"--quiet", flags::Switch{&quiet}, "", "switch"},
        {"--enforce-ppo", flags::Bool01{&enforce}, "0|1", "bool"},
        {"--systematic", flags::OptionalUint{&systematic, 6}, "OPS", "opt"},
        {"--workloads", &workloads, "A,B", "name list"},
        {"--units", &units, "LIST", "int list", 1},
        {"--axi-gbps", &gbps, "LIST", "double list"},
    };
  }

  Status Parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return flags::Parse(static_cast<int>(args.size()), args.data(), Table());
  }
};

TEST(FlagsTest, EveryKindReadsItsValue) {
  FlagFields f;
  ASSERT_TRUE(f.Parse({"--name=x", "--trace-in=a", "--threads=3",
                       "--slots=9", "--seed=18446744073709551615",
                       "--zipf=0.5", "--quiet", "--enforce-ppo=0",
                       "--workloads=btree,hashmap", "--units=1,8",
                       "--axi-gbps=2.5,8"})
                  .ok());
  EXPECT_EQ(f.name, "x");
  EXPECT_EQ(f.traces, std::vector<std::string>{"a"});
  EXPECT_EQ(f.threads, 3);
  EXPECT_EQ(f.slots, 9u);
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_EQ(f.zipf, 0.5);
  EXPECT_TRUE(f.quiet);
  EXPECT_FALSE(f.enforce);
  EXPECT_EQ(f.workloads, (std::vector<std::string>{"btree", "hashmap"}));
  EXPECT_EQ(f.units, (std::vector<int>{1, 8}));
  EXPECT_EQ(f.gbps, (std::vector<double>{2.5, 8.0}));
  ASSERT_TRUE(f.Parse({"--enforce-ppo=1", "--name=y"}).ok());
  EXPECT_TRUE(f.enforce);
  EXPECT_EQ(f.name, "y") << "the last occurrence of a scalar flag wins";
}

TEST(FlagsTest, IntegerBoundsAreTheFieldsOwn) {
  FlagFields f;
  EXPECT_TRUE(f.Parse({"--threads=1"}).ok());
  EXPECT_TRUE(f.Parse({"--threads=2147483647"}).ok());
  EXPECT_EQ(f.threads, 2147483647);
  for (const char* bad :
       {"--threads=0", "--threads=2147483648", "--threads=4294967296",
        "--threads=4294967297", "--threads=-1", "--threads=1e1",
        "--threads=+2", "--threads=0x10"}) {
    const Status st = f.Parse({bad});
    EXPECT_FALSE(st.ok()) << bad;
    EXPECT_NE(st.message().find(bad), std::string::npos) << st.message();
  }
  EXPECT_EQ(f.threads, 2147483647) << "a rejected value leaves the field";
  EXPECT_TRUE(f.Parse({"--slots=0"}).ok());
  EXPECT_TRUE(f.Parse({"--slots=4294967295"}).ok());
  EXPECT_EQ(f.slots, 4294967295u);
  EXPECT_FALSE(f.Parse({"--slots=4294967296"}).ok());
  EXPECT_FALSE(f.Parse({"--seed=18446744073709551616"}).ok());
  EXPECT_FALSE(f.Parse({"--units=2,4294967297"}).ok());
  EXPECT_FALSE(f.Parse({"--units=0,4"}).ok()) << "list elements obey min";
  EXPECT_FALSE(f.Parse({"--units=1e1"}).ok());
  EXPECT_EQ(f.units, (std::vector<int>{2, 4})) << "a bad list changes nothing";
}

TEST(FlagsTest, DoublesMustBeFiniteAndNonNegative) {
  FlagFields f;
  EXPECT_TRUE(f.Parse({"--zipf=0"}).ok());
  EXPECT_TRUE(f.Parse({"--zipf=1.5e0"}).ok());
  EXPECT_EQ(f.zipf, 1.5);
  for (const char* bad : {"--zipf=nan", "--zipf=inf", "--zipf=-0.5",
                          "--zipf=1e999", "--zipf=0.5x", "--zipf= 1",
                          "--axi-gbps=nan", "--axi-gbps=2,inf"}) {
    EXPECT_FALSE(f.Parse({bad}).ok()) << bad;
  }
  EXPECT_EQ(f.zipf, 1.5);
  EXPECT_EQ(f.gbps, std::vector<double>{2.0});
}

TEST(FlagsTest, SwitchesAndBoolsTakeOnlyTheirForms) {
  FlagFields f;
  for (const char* bad : {"--quiet=0", "--quiet=1", "--quiet=",
                          "--enforce-ppo", "--enforce-ppo=false",
                          "--enforce-ppo=2", "--enforce-ppo="}) {
    EXPECT_FALSE(f.Parse({bad}).ok()) << bad;
  }
  EXPECT_FALSE(f.quiet);
  EXPECT_TRUE(f.enforce);
}

TEST(FlagsTest, OptionalIntegerTakesBothForms) {
  FlagFields f;
  ASSERT_TRUE(f.Parse({"--systematic"}).ok());
  EXPECT_EQ(f.systematic, 6u);
  ASSERT_TRUE(f.Parse({"--systematic=8"}).ok());
  EXPECT_EQ(f.systematic, 8u);
  EXPECT_FALSE(f.Parse({"--systematic="}).ok());
  EXPECT_FALSE(f.Parse({"--systematic=x"}).ok());
}

TEST(FlagsTest, RejectsMissingValuesUnknownFlagsAndEmptyLists) {
  FlagFields f;
  const Status missing = f.Parse({"--seed"});
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.message().find("--seed=N"), std::string::npos)
      << missing.message();
  for (const char* bad : {"--name=", "--no-such-flag", "--seeds=1", "--see=1",
                          "seed=1", "-seed=1", "--workloads=",
                          "--workloads=btree,", "--workloads=,btree",
                          "--units=", "--units=2,,4", "--axi-gbps=,"}) {
    const Status st = f.Parse({bad});
    EXPECT_FALSE(st.ok()) << bad;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find(bad), std::string::npos) << st.message();
  }
  EXPECT_EQ(f.name, "default");
  EXPECT_EQ(f.workloads, std::vector<std::string>{"btree"});
}

TEST(FlagsTest, RepeatedFlagAppendsEveryOccurrence) {
  FlagFields f;
  ASSERT_TRUE(
      f.Parse({"--trace-in=a:x.jsonl", "--trace-in=b.jsonl", "--trace-in=a"})
          .ok());
  EXPECT_EQ(f.traces,
            (std::vector<std::string>{"a:x.jsonl", "b.jsonl", "a"}));
}

TEST(FlagsTest, UsageNamesEveryRow) {
  FlagFields f;
  const std::vector<flags::Flag> table = f.Table();
  const std::string usage = flags::Usage("tool", table);
  EXPECT_EQ(usage.rfind("usage: tool ", 0), 0u) << usage;
  for (const flags::Flag& row : table) {
    EXPECT_NE(usage.find(std::string("  ") + row.name), std::string::npos)
        << row.name;
    EXPECT_NE(usage.find(row.help), std::string::npos) << row.help;
  }
  EXPECT_NE(usage.find("--threads=N "), std::string::npos);
  EXPECT_NE(usage.find("--systematic[=OPS] "), std::string::npos);
  EXPECT_NE(usage.find("--quiet "), std::string::npos);
  EXPECT_EQ(usage.find("--quiet="), std::string::npos);
}

TEST(JsonTest, ParsesNestedObjectsInOrder) {
  const auto doc = json::Parse(
      " {\"b\": {\"c\": {\"d\": true}}, \"a\": \"x\", \"e\": false}\n");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->members.size(), 3u);
  EXPECT_EQ(doc->members[0].first, "b");
  EXPECT_EQ(doc->members[1].first, "a");
  const json::Value& c = doc->members[0].second.members.at(0).second;
  EXPECT_EQ(c.kind, json::Value::Kind::kObject);
  EXPECT_TRUE(c.members.at(0).second.boolean);
  EXPECT_EQ(doc->members[1].second.str, "x");
  EXPECT_EQ(doc->members[2].second.kind, json::Value::Kind::kBool);
  EXPECT_FALSE(json::Parse("{\"a\": [1]}").ok());
  EXPECT_FALSE(json::Parse("{\"a\": null}").ok());
  EXPECT_FALSE(json::Parse("[]").ok());
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "{\"a\": ";
  EXPECT_FALSE(json::Parse(deep).ok()) << "nesting depth is bounded";
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const auto doc = json::Parse(
      R"({"s": "q\" b\\ s\/ \b\f\n\r\t \u0041\u001f"})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::string s = doc->members.at(0).second.str;
  EXPECT_EQ(s, "q\" b\\ s/ \b\f\n\r\t A\x1f");

  json::Value out;
  out.Add("s", json::Value::String(s));
  const std::string text = json::Write(out);
  EXPECT_EQ(text,
            "{\n  \"s\": \"q\\\" b\\\\ s/ \\b\\f\\n\\r\\t A\\u001f\"\n}\n");
  const auto back = json::Parse(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->members.at(0).second.str, s);

  EXPECT_FALSE(json::Parse(R"({"s": "\x41"})").ok()) << "unknown escape";
  EXPECT_FALSE(json::Parse(R"({"s": "\u00e9"})").ok()) << "non-ASCII \\u";
  EXPECT_FALSE(json::Parse(R"({"s": "\u00"})").ok());
  EXPECT_FALSE(json::Parse("{\"s\": \"a\tb\"}").ok()) << "raw tab";
  EXPECT_FALSE(json::Parse("{\"s\": \"abc").ok()) << "unterminated";
}

TEST(JsonTest, NumbersFollowTheRfcGrammar) {
  const auto doc = json::Parse(
      R"({"max": 18446744073709551615, "zero": 0, "neg": -5, "frac": 1.5e3,
          "small": 1E-2, "negzero": -0})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto& m = doc->members;
  EXPECT_EQ(m[0].second.kind, json::Value::Kind::kUint);
  EXPECT_EQ(m[0].second.integer, UINT64_MAX);
  EXPECT_EQ(m[1].second.kind, json::Value::Kind::kUint);
  EXPECT_EQ(m[2].second.kind, json::Value::Kind::kDouble);
  EXPECT_EQ(m[2].second.number, -5.0);
  EXPECT_EQ(m[3].second.number, 1500.0);
  EXPECT_EQ(m[4].second.number, 0.01);
  EXPECT_TRUE(std::signbit(m[5].second.number));
  for (const char* bad :
       {"18446744073709551616", "0x8", "+1", ".5", "01", "1.", "1e", "-",
        "1e400", "Infinity", "NaN"}) {
    EXPECT_FALSE(json::Parse(std::string("{\"n\": ") + bad + "}").ok())
        << bad;
  }
}

TEST(JsonTest, ErrorsCarryTheByteOffset) {
  const auto expect_offset = [](const char* text, const char* offset) {
    const auto doc = json::Parse(text);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_NE(doc.status().message().find(std::string("at offset ") + offset),
              std::string::npos)
        << doc.status().message();
  };
  expect_offset("{\"a\": 1,}", "8");
  expect_offset("{\"a\": 1, \"a\": 2}", "9");  // the repeated key
  expect_offset("{\"a\": 1} x", "9");            // trailing content
  expect_offset("{\"a\": 99999999999999999999}", "6");
  expect_offset("{\"a\": \"\\q\"}", "7");
}

TEST(JsonTest, WriterIsCanonical) {
  json::Value inner;
  inner.Add("lsq", json::Value::Number(8.0));
  json::Value out;
  out.Add("name", json::Value::String("n"))
      .Add("int", json::Value::Number(-3.0))
      .Add("tenth", json::Value::Number(0.1))
      .Add("big", json::Value::Number(1e300))
      .Add("max", json::Value::Uint(UINT64_MAX))
      .Add("flag", json::Value::Bool(true))
      .Add("empty", json::Value())
      .Add("inner", std::move(inner));
  const std::string text = json::Write(out);
  EXPECT_EQ(text,
            "{\n"
            "  \"name\": \"n\",\n"
            "  \"int\": -3,\n"
            "  \"tenth\": 0.1,\n"
            "  \"big\": 1e+300,\n"
            "  \"max\": 18446744073709551615,\n"
            "  \"flag\": true,\n"
            "  \"empty\": {},\n"
            "  \"inner\": {\n"
            "    \"lsq\": 8\n"
            "  }\n"
            "}\n");
  const auto back = json::Parse(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(json::Write(*back), text);
  EXPECT_EQ(back->members[3].second.number, 1e300);
}

TEST(JsonTest, ReaderChecksKindRangeAndUnknownKeys) {
  const auto doc = json::Parse(
      R"({"s": "x", "n": 300, "d": 2.5, "b": true, "o": {"k": 1}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  json::Reader r(*doc, "t: ");
  std::string s;
  std::uint8_t small = 0;
  int n = 0;
  double d = 0.0;
  bool b = false;
  EXPECT_FALSE(r.Get("n", &s).ok()) << "number read as string";
  EXPECT_FALSE(r.Get("n", &small).ok()) << "300 does not fit in uint8";
  EXPECT_FALSE(r.Get("d", &n).ok()) << "2.5 is not an integer";
  EXPECT_FALSE(r.Get("s", &b).ok()) << "string read as bool";
  ASSERT_TRUE(r.Get("n", &n).ok());
  EXPECT_EQ(n, 300);
  ASSERT_TRUE(r.Get("n", &d).ok()) << "an integer reads as a double";
  EXPECT_EQ(d, 300.0);
  EXPECT_TRUE(r.Get("missing", &n).ok());
  EXPECT_EQ(n, 300) << "an absent key leaves the output alone";
  EXPECT_FALSE(r.Require("missing", &n).ok());
  EXPECT_FALSE(r.Done().ok()) << "b and o were never read";
  ASSERT_TRUE(r.Get("s", &s).ok());
  ASSERT_TRUE(r.Get("d", &d).ok());
  ASSERT_TRUE(r.Get("b", &b).ok());
  EXPECT_FALSE(r.Section("s").ok()) << "string read as an object";
  auto o = r.Section("o");
  ASSERT_TRUE(o.ok());
  EXPECT_FALSE(o->Done().ok()) << "o.k was never read";
  EXPECT_TRUE(r.Done().ok());
  auto absent = r.Section("none");
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent->Done().ok());
}

}  // namespace
}  // namespace nearpm
