// The benchmark workloads. Each runner reads its parameters from the
// flags (README.md lists them), measures for about `seconds` of host time
// -- repeating a fixed, seeded unit of work (a "set" of cells or a
// "round" of requests) so every repetition is sim-time identical -- and
// fills `result` with every metric it can measure plus its correctness
// tally. Host-time per-layer numbers are only gathered when `trace` is set.
#ifndef PERFBENCH_RUNNERS_H_
#define PERFBENCH_RUNNERS_H_

#include <cstdint>

#include "perfbench/bench_util.h"

namespace nearpm {
namespace perfbench {

struct RunContext {
  const Flags& flags;
  std::uint64_t seed;
  double seconds;
  bool trace;
  Result& result;
};

// Nine Table 4 workloads x three mechanisms x {CPU baseline, NearPM MD},
// one fresh Runtime per cell, crash bookkeeping off.
void RunOffloadMix(const RunContext& ctx);
// The same 27 pairs with crash bookkeeping on: cycles of ops, a seeded
// power failure, recovery and Verify on one Runtime per cell.
void RunCrashRecover(const RunContext& ctx);
// Deterministic KvService: fill every shard ring, drain with Pump(), repeat;
// traced runs add a threaded closed-loop probe of the same service.
void RunKvBurst(const RunContext& ctx);

// SplitMix64 combination of two seeds.
std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b);

// Compares one repetition's sim fingerprint against the first one's and
// counts a failure on any difference (the simulator is deterministic, so
// a repeated unit of work must reproduce every sim number bit-exactly).
void CheckRepeat(const std::map<std::string, double>& first,
                 const std::map<std::string, double>& now, const char* what,
                 Result& result);

}  // namespace perfbench
}  // namespace nearpm

#endif  // PERFBENCH_RUNNERS_H_
