#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "src/common/rng.h"
#include "src/pmem/interleave.h"
#include "src/pmem/pm_space.h"

namespace nearpm {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (int v : vals) {
    out.push_back(static_cast<std::uint8_t>(v));
  }
  return out;
}

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i);
  }
  return out;
}

// ---- InterleaveMap ----------------------------------------------------------

TEST(InterleaveTest, RoundRobinStripes) {
  InterleaveMap il(2, 4096);
  EXPECT_EQ(il.DeviceOf(0), 0u);
  EXPECT_EQ(il.DeviceOf(4095), 0u);
  EXPECT_EQ(il.DeviceOf(4096), 1u);
  EXPECT_EQ(il.DeviceOf(8192), 0u);
}

TEST(InterleaveTest, LocalOffsets) {
  InterleaveMap il(2, 4096);
  EXPECT_EQ(il.LocalOffsetOf(0), 0u);
  EXPECT_EQ(il.LocalOffsetOf(100), 100u);
  EXPECT_EQ(il.LocalOffsetOf(4096), 0u);     // first stripe on device 1
  EXPECT_EQ(il.LocalOffsetOf(8192), 4096u);  // second stripe on device 0
  EXPECT_EQ(il.LocalOffsetOf(8200), 4104u);
}

TEST(InterleaveTest, SplitWithinOneStripe) {
  InterleaveMap il(2, 4096);
  const auto slices = il.Split({100, 200});
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].device, 0u);
  EXPECT_EQ(slices[0].global, (AddrRange{100, 200}));
}

TEST(InterleaveTest, SplitAcrossStripes) {
  InterleaveMap il(2, 4096);
  const auto slices = il.Split({4000, 8300});
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].device, 0u);
  EXPECT_EQ(slices[0].global, (AddrRange{4000, 4096}));
  EXPECT_EQ(slices[1].device, 1u);
  EXPECT_EQ(slices[1].global, (AddrRange{4096, 8192}));
  EXPECT_EQ(slices[2].device, 0u);
  EXPECT_EQ(slices[2].global, (AddrRange{8192, 8300}));
}

TEST(InterleaveTest, SpansDetection) {
  InterleaveMap il(2, 4096);
  EXPECT_FALSE(il.Spans({0, 4096}));
  EXPECT_TRUE(il.Spans({0, 4097}));
  EXPECT_TRUE(il.Spans({4000, 4200}));
  InterleaveMap single(1, 4096);
  EXPECT_FALSE(single.Spans({0, 1 << 20}));
}

TEST(InterleaveTest, SplitCoversRangeExactly) {
  InterleaveMap il(3, 256);
  const AddrRange range{100, 5000};
  std::uint64_t covered = 0;
  PmAddr expect_next = range.begin;
  for (const auto& s : il.Split(range)) {
    EXPECT_EQ(s.global.begin, expect_next);
    expect_next = s.global.end;
    covered += s.global.size();
    EXPECT_EQ(s.device, il.DeviceOf(s.global.begin));
  }
  EXPECT_EQ(covered, range.size());
  EXPECT_EQ(expect_next, range.end);
}

// ---- PmSpace: CPU store-buffer semantics ------------------------------------

PmSpaceOptions SmallSpace() {
  PmSpaceOptions o;
  o.size = 1 << 20;
  o.num_devices = 2;
  return o;
}

TEST(PmSpaceTest, ReadsSeeWrites) {
  PmSpace space(SmallSpace());
  const auto data = Bytes({1, 2, 3, 4});
  space.CpuWrite(100, data);
  std::vector<std::uint8_t> out(4);
  space.CpuRead(100, out);
  EXPECT_EQ(out, data);
}

TEST(PmSpaceTest, UnpersistedWriteCanBeLost) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;  // pending lines always lost
  PmSpace space(o);
  space.CpuWrite(128, Bytes({42}));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.cpu_lines_dropped, 1u);
  std::vector<std::uint8_t> out(1);
  space.CpuRead(128, out);
  EXPECT_EQ(out[0], 0);
}

TEST(PmSpaceTest, PersistedWriteSurvives) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;
  PmSpace space(o);
  space.CpuWrite(128, Bytes({42}));
  space.CpuPersist(128, 1);
  Rng rng(1);
  space.Crash(rng, 0);
  std::vector<std::uint8_t> out(1);
  space.CpuRead(128, out);
  EXPECT_EQ(out[0], 42);
}

TEST(PmSpaceTest, PendingLineSurvivalIsPerLine) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.5;
  PmSpace space(o);
  for (int i = 0; i < 64; ++i) {
    space.CpuWrite(static_cast<PmAddr>(i) * 64, Bytes({7}));
  }
  Rng rng(3);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.cpu_lines_dropped + report.cpu_lines_survived, 64u);
  EXPECT_GT(report.cpu_lines_dropped, 10u);
  EXPECT_GT(report.cpu_lines_survived, 10u);
}

TEST(PmSpaceTest, RepeatedWriteKeepsOldestPreImage) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;
  PmSpace space(o);
  space.CpuWrite(0, Bytes({1}));
  space.CpuPersist(0, 1);
  space.CpuWrite(0, Bytes({2}));
  space.CpuWrite(0, Bytes({3}));  // second write to same pending line
  Rng rng(1);
  space.Crash(rng, 0);
  std::vector<std::uint8_t> out(1);
  space.CpuRead(0, out);
  EXPECT_EQ(out[0], 1);  // rolls back to the persisted value, not 2
}

TEST(PmSpaceTest, PendingLinesInCountsLines) {
  PmSpace space(SmallSpace());
  space.CpuWrite(0, Pattern(200, 0));  // touches lines 0..3
  EXPECT_EQ(space.PendingLinesIn({0, 200}), 4u);
  space.CpuPersist(0, 64);
  EXPECT_EQ(space.PendingLinesIn({0, 200}), 3u);
  EXPECT_EQ(space.PendingLinesIn({0, 64}), 0u);
}

// ---- PmSpace: NDP requests --------------------------------------------------

TEST(PmSpaceTest, NdpWriteIsVisibleAndDurableWhenCompleted) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 100, 200);
  space.NdpWrite(0, 1, 0, Pattern(128, 5));
  std::vector<std::uint8_t> out(128);
  space.NdpRead(0, out);
  EXPECT_EQ(out, Pattern(128, 5));
  Rng rng(1);
  // Crash after completion: everything stays.
  const CrashReport report = space.Crash(rng, 500);
  EXPECT_EQ(report.requests_durable, 1u);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(128, 5));
}

TEST(PmSpaceTest, NdpRequestNotStartedIsDropped) {
  PmSpace space(SmallSpace());
  space.CpuWrite(0, Pattern(128, 9));
  space.CpuPersist(0, 128);
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(128, 5));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);  // before start
  EXPECT_EQ(report.requests_dropped, 1u);
  std::vector<std::uint8_t> out(128);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(128, 9));  // pre-image restored
}

TEST(PmSpaceTest, NdpRequestMidFlightIsTruncatedToPrefix) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 0, 1000);
  space.NdpWrite(0, 1, 0, Pattern(640, 1));  // 10 lines
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);  // half way
  EXPECT_EQ(report.requests_truncated, 1u);
  std::vector<std::uint8_t> out(640);
  space.CpuRead(0, out);
  // Roughly the first half of the lines survived, and it is a strict prefix.
  std::size_t persisted_lines = 0;
  for (std::size_t line = 0; line < 10; ++line) {
    if (out[line * 64] != 0) {
      EXPECT_EQ(persisted_lines, line) << "non-prefix truncation";
      ++persisted_lines;
    }
  }
  EXPECT_EQ(persisted_lines, 5u);
}

TEST(PmSpaceTest, RetiredRequestAlwaysDurable) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  space.RetireRequest(0, 1);
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);  // "before" it even started
  EXPECT_EQ(report.requests_dropped, 0u);
  EXPECT_EQ(report.requests_truncated, 0u);
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 5));
}

TEST(PmSpaceTest, CpuObservationRetiresRequest) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  // CPU reads the line the request wrote: architecturally ordered after.
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.requests_dropped, 0u);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 5));  // the write survived the crash
}

TEST(PmSpaceTest, ObservationDisabledInAblationMode) {
  PmSpaceOptions o = SmallSpace();
  o.enforce_observation = false;
  PmSpace space(o);
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 5));  // value visible...
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.requests_dropped, 1u);  // ...but lost at the crash
}

TEST(PmSpaceTest, DependentRequestForcesPredecessorDurable) {
  PmSpace space(SmallSpace());
  // Request 1 writes a line; request 2 overwrites it later. If 2 executed,
  // 1 must have executed first (dispatcher serialization).
  space.BeginNdpRequest(0, 1, 0, 400);
  space.NdpWrite(0, 1, 0, Pattern(64, 5));
  space.BeginNdpRequest(0, 2, 400, 450);
  space.NdpWrite(0, 2, 0, Pattern(64, 9));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);
  EXPECT_EQ(report.requests_durable, 2u);
  std::vector<std::uint8_t> out(64);
  space.CpuRead(0, out);
  EXPECT_EQ(out, Pattern(64, 9));
}

TEST(PmSpaceTest, SyncMarkerForcesPreSyncDurability) {
  PmSpace space(SmallSpace());
  // Device 0 finishes its half early; device 1 is slow. A sync separates the
  // slow request from a later fast one on device 0. The late request
  // completed, so everything before the sync must be durable everywhere.
  space.BeginNdpRequest(0, 1, 0, 100);
  space.NdpWrite(0, 1, 0, Pattern(64, 1));
  space.BeginNdpRequest(1, 2, 0, 10000);  // slow: would not finish by crash
  space.NdpWrite(1, 2, 4096, Pattern(64, 2));
  space.SyncMarker(1);
  space.BeginNdpRequest(0, 3, 150, 200);
  space.NdpWrite(0, 3, 64, Pattern(64, 3));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);
  EXPECT_EQ(report.forced_by_sync, 1u);  // the slow request on device 1
  EXPECT_EQ(report.frontier_sync, 1u);
  std::vector<std::uint8_t> out(64);
  space.CpuRead(4096, out);
  EXPECT_EQ(out, Pattern(64, 2));
}

TEST(PmSpaceTest, RetireThroughSyncReleasesRecords) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 1, 0, 100);
  space.NdpWrite(0, 1, 0, Pattern(64, 1));
  space.BeginNdpRequest(1, 2, 0, 100);
  space.NdpWrite(1, 2, 4096, Pattern(64, 2));
  space.SyncMarker(1);
  EXPECT_EQ(space.live_request_count(0), 1u);
  EXPECT_EQ(space.live_request_count(1), 1u);
  space.RetireThroughSync(1);
  EXPECT_EQ(space.live_request_count(0), 0u);
  EXPECT_EQ(space.live_request_count(1), 0u);
}

TEST(PmSpaceTest, QuiesceMakesEverythingDurable) {
  PmSpaceOptions o = SmallSpace();
  o.pending_line_survival = 0.0;
  PmSpace space(o);
  space.CpuWrite(0, Bytes({1}));
  space.BeginNdpRequest(0, 1, 1000, 2000);
  space.NdpWrite(0, 1, 64, Bytes({2}));
  space.Quiesce();
  Rng rng(1);
  space.Crash(rng, 0);
  std::vector<std::uint8_t> out(2);
  space.CpuRead(0, {out.data(), 1});
  space.CpuRead(64, {out.data() + 1, 1});
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(PmSpaceTest, CrashReportsOutcomes) {
  PmSpace space(SmallSpace());
  space.BeginNdpRequest(0, 7, 0, 100);
  space.NdpWrite(0, 7, 0, Pattern(64, 1));
  space.BeginNdpRequest(0, 8, 1000, 1100);
  space.NdpWrite(0, 8, 64, Pattern(64, 2));
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 500);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].at(7), CrashOutcome::kDurable);
  EXPECT_EQ(report.outcomes[0].at(8), CrashOutcome::kDropped);
}

TEST(PmSpaceTest, FastPathWithoutCrashState) {
  PmSpaceOptions o = SmallSpace();
  o.retain_crash_state = false;
  PmSpace space(o);
  space.CpuWrite(0, Bytes({1, 2}));
  space.NdpWrite(0, 1, 64, Bytes({3}));
  std::vector<std::uint8_t> out(1);
  space.CpuRead(64, out);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(space.pending_line_count(), 0u);
}

// ---- PmSpace: lazily zero-filled image --------------------------------------

constexpr std::uint64_t kFourGb = 4ull << 30;

TEST(PmSpaceTest, MultiGbSpaceReadsZeroUntouched) {
  PmSpaceOptions o;
  o.size = kFourGb;
  PmSpace space(o);
  EXPECT_EQ(space.size(), kFourGb);
  const std::vector<std::uint8_t> zeros(kCacheLineSize, 0);
  const PmAddr probes[] = {0, kFourGb / 2, kFourGb - kCacheLineSize};
  for (PmAddr addr : probes) {
    std::vector<std::uint8_t> out(kCacheLineSize, 0xff);
    space.CpuRead(addr, out);
    EXPECT_EQ(out, zeros) << "at " << addr;
  }
}

TEST(PmSpaceTest, TopLineCrashRestoresPreImage) {
  PmSpaceOptions o;
  o.size = kFourGb;
  o.pending_line_survival = 0.0;
  PmSpace space(o);
  const PmAddr top = kFourGb - kCacheLineSize;
  const auto persisted = Pattern(kCacheLineSize, 1);
  space.CpuWrite(top, persisted);
  space.CpuPersist(top, kCacheLineSize);
  space.CpuWrite(top, Pattern(kCacheLineSize, 100));
  EXPECT_EQ(space.PendingLinesIn({top, kFourGb}), 1u);
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.cpu_lines_dropped, 1u);
  std::vector<std::uint8_t> out(kCacheLineSize);
  space.CpuRead(top, out);
  EXPECT_EQ(out, persisted);
}

TEST(PmSpaceTest, ZeroSizeSpaceConstructs) {
  PmSpaceOptions o;
  o.size = 0;
  PmSpace space(o);
  EXPECT_EQ(space.size(), 0u);
  EXPECT_EQ(space.PendingLinesIn({0, 0}), 0u);
  Rng rng(1);
  const CrashReport report = space.Crash(rng, 0);
  EXPECT_EQ(report.cpu_lines_dropped + report.cpu_lines_survived, 0u);
}

// Resident set size in bytes from /proc/self/statm, or -1 without /proc.
std::int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t total_pages = 0;
  std::int64_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) {
    return -1;
  }
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(PmSpaceTest, ResidentMemoryFollowsTouchedPm) {
  const std::int64_t before = ResidentBytes();
  if (before < 0) {
    GTEST_SKIP() << "/proc/self/statm not available";
  }
  PmSpaceOptions o;
  o.size = kFourGb;
  PmSpace space(o);
  space.CpuWrite(0, Pattern(kCacheLineSize, 1));
  space.CpuWrite(kFourGb - kCacheLineSize, Pattern(kCacheLineSize, 2));
  const std::int64_t after = ResidentBytes();
  EXPECT_LT(after - before, std::int64_t{8} << 20);
}

}  // namespace
}  // namespace nearpm
