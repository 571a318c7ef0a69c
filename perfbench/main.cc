// perfbench: runs one benchmark workload and prints one JSON line with
// every metric it measured, its sim-time fingerprint and its correctness
// tally. perfbench/run.py builds this binary, passes the workload's
// parameters from perfbench/workloads.json and turns the line into the
// benchmark's result.
//
//   perfbench --workload=offload-mix|crash-recover|kv-burst
//             --seed=N --seconds=S --trace=0|1 [--spans-out=FILE]
//             [workload parameters, see README.md]
#include <cstdio>
#include <string>

#include "perfbench/runners.h"
#include "perfbench/layers.h"

namespace nearpm {
namespace perfbench {

std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void CheckRepeat(const std::map<std::string, double>& first,
                 const std::map<std::string, double>& now, const char* what,
                 Result& result) {
  ++result.attempted;
  for (const auto& [name, value] : first) {
    const auto it = now.find(name);
    if (it == now.end() || it->second != value) {
      result.Fail(std::string(what) + " not sim-deterministic: " + name + " " +
                  JsonNumber(value) + " then " +
                  (it == now.end() ? "missing" : JsonNumber(it->second)));
      return;
    }
  }
}

namespace {

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [name, value] : m) {
    if (out.size() > 1) {
      out += ",";
    }
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const std::string workload = flags.Str("workload", "");
  const std::string spans_out = flags.Str("spans-out", "");
  Result result;
  const RunContext ctx{flags, flags.U64("seed", 1),
                       flags.F64("seconds", 10.0), flags.U64("trace", 0) != 0,
                       result};
  void (*run)(const RunContext&) = nullptr;
  if (workload == "offload-mix") {
    run = RunOffloadMix;
  } else if (workload == "crash-recover") {
    run = RunCrashRecover;
  } else if (workload == "kv-burst") {
    run = RunKvBurst;
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  // The runners read every parameter they use before doing any work; a
  // flag none of them read, or one that does not parse, voids the run.
  run(ctx);
  if (!flags.ok()) {
    std::fprintf(stderr, "perfbench: bad value %s\n", flags.bad().c_str());
    return 2;
  }
  if (const auto unused = flags.Unused(); !unused.empty()) {
    std::fprintf(stderr, "perfbench: unknown parameter --%s\n",
                 unused.front().c_str());
    return 2;
  }
  if (ctx.trace) {
    std::fprintf(stderr, "  %-24s %10s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms");
    for (const auto& [name, agg] : SpanTotals()) {
      std::fprintf(stderr, "  %-24s %10llu %12.3f %12.3f\n", name.c_str(),
                   static_cast<unsigned long long>(agg.count),
                   static_cast<double>(agg.total_ns) * 1e-6,
                   static_cast<double>(agg.self_ns) * 1e-6);
    }
    PublishSelfShares(result);
    if (!spans_out.empty() && !WriteSpans(spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
      return 2;
    }
  }
  std::string errors = "[";
  for (const std::string& e : result.errors) {
    errors += (errors.size() > 1 ? "," : "") + JsonString(e);
  }
  errors += "]";
  std::printf("{\"attempted\":%llu,\"failed\":%llu,\"errors\":%s,"
              "\"metrics\":%s,\"sim\":%s}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), errors.c_str(),
              JsonMap(result.metrics).c_str(), JsonMap(result.sim).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace nearpm

int main(int argc, char** argv) { return nearpm::perfbench::Main(argc, argv); }
