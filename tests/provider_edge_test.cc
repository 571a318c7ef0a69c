// Edge-case behaviour of the crash-consistency providers: resource
// exhaustion, epoch boundaries, redirect corner cases, switch-record
// atomicity, pool layout arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/pmlib/heap.h"

namespace nearpm {
namespace {

RuntimeOptions Opts(ExecMode mode = ExecMode::kNdpMultiDelayed) {
  RuntimeOptions o;
  o.mode = mode;
  o.pm_size = 128ull << 20;
  return o;
}

std::unique_ptr<PersistentHeap> MakeHeap(Runtime& rt, PoolArena& arena,
                                         Mechanism mech, int epoch_ops = 4) {
  HeapOptions ho;
  ho.mechanism = mech;
  ho.data_size = 2ull << 20;
  ho.ckpt_epoch_ops = epoch_ops;
  auto h = PersistentHeap::Create(rt, arena, ho);
  EXPECT_TRUE(h.ok());
  return std::move(*h);
}

// ---- Pool layout --------------------------------------------------------------

TEST(PoolLayoutTest, FootprintCoversAllRegions) {
  PoolLayoutOptions opts;
  opts.data_size = 1ull << 20;
  opts.threads = 4;
  const std::uint64_t plain = PmPool::Footprint(opts);
  opts.shadow_physical_area = true;
  const std::uint64_t shadowed = PmPool::Footprint(opts);
  EXPECT_EQ(shadowed - plain, 2 * opts.data_size);
  EXPECT_EQ(plain % kPmPageSize, 0u);
}

TEST(PoolLayoutTest, RegionsDoNotOverlap) {
  Runtime rt(Opts());
  PoolLayoutOptions opts;
  opts.data_size = 1ull << 20;
  opts.threads = 2;
  opts.shadow_physical_area = true;
  auto pool = PmPool::Create(rt, 0, opts);
  ASSERT_TRUE(pool.ok());
  EXPECT_LT(pool->chunk_headers(), pool->page_table());
  EXPECT_LT(pool->page_table(), pool->data_base());
  EXPECT_LE(pool->data_base() + pool->data_size(), pool->phys_base());
  EXPECT_LE(pool->phys_base() + 2 * pool->data_size(),
            pool->cc_area(0).base());
  EXPECT_EQ(pool->cc_area(1).base() - pool->cc_area(0).base(), CcArea::kSize);
  EXPECT_LE(pool->cc_area(1).base() + CcArea::kSize,
            pool->base() + PmPool::Footprint(opts));
}

TEST(PoolLayoutTest, RejectsBadParameters) {
  Runtime rt(Opts());
  PoolLayoutOptions opts;
  opts.data_size = 100;  // not page aligned
  EXPECT_FALSE(PmPool::Create(rt, 0, opts).ok());
  opts.data_size = 1ull << 20;
  EXPECT_FALSE(PmPool::Create(rt, 100, opts).ok());  // base unaligned
  opts.threads = 10000;
  EXPECT_FALSE(PmPool::Create(rt, 0, opts).ok());
}

TEST(CcAreaTest, SlotAddressingDisjoint) {
  const CcArea area(1 << 20);
  EXPECT_EQ(area.TxRecordAddr(), area.base());
  // Undo, redo and checkpoint slot arrays tile without gaps or overlap.
  EXPECT_EQ(area.UndoSlotAddr(1) - area.UndoSlotAddr(0), kSlotSize);
  EXPECT_EQ(area.RedoSlotAddr(0), area.UndoSlotAddr(kLogSlots));
  EXPECT_EQ(area.CkptSlotAddr(0), area.RedoSlotAddr(kLogSlots));
  EXPECT_LE(area.CkptSlotAddr(kCkptSlots - 1) + kSlotSize,
            area.base() + CcArea::kSize);
  EXPECT_EQ(CcArea::SlotData(area.UndoSlotAddr(0)),
            area.UndoSlotAddr(0) + kSlotHeaderSize);
}

TEST(ChecksumTest, NeverZeroAndSensitive) {
  std::vector<std::uint8_t> empty;
  EXPECT_NE(Checksum64(empty), 0u);
  std::vector<std::uint8_t> a{1, 2, 3};
  std::vector<std::uint8_t> b{1, 2, 4};
  EXPECT_NE(Checksum64(a), Checksum64(b));
  EXPECT_EQ(Checksum64(a), Checksum64(a));
}

// Payload sizes the properties below are checked at: every size through nine
// words (each tail length, each lane position) and a full page.
std::vector<std::size_t> ChecksumSizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 72; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(kMaxLogData);
  return sizes;
}

// Seeded bytes, none of them zero (so zeroing any byte changes the data).
std::vector<std::uint8_t> NonZeroBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (std::uint8_t& b : data) {
    b = static_cast<std::uint8_t>(1 + rng.NextBounded(255));
  }
  return data;
}

TEST(ChecksumTest, EveryBitFlipChangesValue) {
  for (std::size_t n : ChecksumSizes()) {
    std::vector<std::uint8_t> data = NonZeroBytes(n, n);
    const std::uint64_t base = Checksum64(data);
    EXPECT_NE(base, 0u);
    std::size_t missed = 0;
    for (std::size_t bit = 0; bit < n * 8; ++bit) {
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const std::uint64_t flipped = Checksum64(data);
      missed += flipped == base || flipped == 0 ? 1 : 0;
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(missed, 0u) << "size " << n;
  }
}

TEST(ChecksumTest, TornTailChangesValue) {
  for (std::size_t n : ChecksumSizes()) {
    const std::vector<std::uint8_t> data = NonZeroBytes(n, 100 + n);
    const std::uint64_t base = Checksum64(data);
    std::size_t missed = 0;
    for (std::size_t cut = 0; cut < n; ++cut) {
      std::vector<std::uint8_t> torn = data;
      for (std::size_t i = cut; i < n; ++i) {
        torn[i] = 0;
      }
      const std::uint64_t value = Checksum64(torn);
      missed += value == base || value == 0 ? 1 : 0;
    }
    EXPECT_EQ(missed, 0u) << "size " << n;
  }
}

// Zero padding of the tail word would let runs of zeros collide; the folded
// length keeps every length apart, including n and n + 8 (one whole word).
TEST(ChecksumTest, ZeroRunsOfDifferentLengthDiffer) {
  const std::vector<std::uint8_t> zeros(kMaxLogData + 8, 0);
  const std::span<const std::uint8_t> all(zeros);
  std::vector<std::size_t> lengths;
  for (std::size_t n : ChecksumSizes()) {
    lengths.push_back(n);
    lengths.push_back(n + 8);
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  std::vector<std::uint64_t> values;
  for (std::size_t n : lengths) {
    values.push_back(Checksum64(all.first(n)));
    EXPECT_NE(values.back(), 0u) << "size " << n;
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(std::unique(values.begin(), values.end()), values.end());
}

TEST(ChecksumTest, EmptySpanWithNullData) {
  const std::span<const std::uint8_t> null_empty;
  ASSERT_EQ(null_empty.data(), nullptr);
  const std::uint8_t byte = 7;
  EXPECT_NE(Checksum64(null_empty), 0u);
  EXPECT_EQ(Checksum64(null_empty),
            Checksum64(std::span<const std::uint8_t>(&byte, 0)));
}

// ---- Undo provider -------------------------------------------------------------

TEST(UndoEdgeTest, SlotExhaustionReported) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  Status st;
  for (std::size_t i = 0; i <= kLogSlots; ++i) {
    st = heap->Store<std::uint64_t>(0, heap->root() + i * 64, i);
    if (!st.ok()) {
      break;
    }
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(UndoEdgeTest, RepeatedRangeUsesOneSlot) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  for (int i = 0; i < 200; ++i) {  // far more writes than slots
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), i).ok());
  }
  ASSERT_TRUE(heap->CommitOp(0).ok());
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 199u);
}

TEST(UndoEdgeTest, OverlappingRangesRollBackToOldest) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kLogging);
  const PmAddr a = heap->root();
  // Committed: 8 bytes of 0x11.
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, a, 0x1111111111111111ull).ok());
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  // Torn op: snapshot [a, a+8), write, then snapshot the wider [a, a+16)
  // (not contained, so a second slot), write again.
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, a, 0x22u).ok());
  std::uint64_t wide[2] = {0x33u, 0x33u};
  ASSERT_TRUE(heap->Write(0, a, AsBytes(wide)).ok());
  rt.DrainDevices(0);
  Rng rng(3);
  rt.InjectCrash(rng);
  heap->DropVolatile();
  ASSERT_TRUE(heap->Recover().ok());
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, a), 0x1111111111111111ull);
}

// ---- Redo provider -------------------------------------------------------------

TEST(RedoEdgeTest, LoadSeesOwnUncommittedWrite) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kRedoLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), 777).ok());
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 777u);
  // The in-place location is untouched until commit applies the log.
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 777u);
}

TEST(RedoEdgeTest, PartialOverlapLoadRejected) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kRedoLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  std::uint64_t pair[2] = {1, 2};
  ASSERT_TRUE(heap->Write(0, heap->root(), AsBytes(pair)).ok());
  // A load straddling the redirected range's boundary cannot be served.
  std::uint8_t out[16];
  EXPECT_EQ(heap->Read(0, heap->root() + 8, out).code(),
            StatusCode::kFailedPrecondition);
  // Fully inside and fully outside both work.
  EXPECT_TRUE(heap->Read(0, heap->root() + 8, {out, 8}).ok());
  EXPECT_TRUE(heap->Read(0, heap->root() + 64, {out, 8}).ok());
}

TEST(RedoEdgeTest, RewriteSameRangeReusesSlot) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kRedoLogging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), i).ok());
  }
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  EXPECT_EQ(*heap->Load<std::uint64_t>(0, heap->root()), 199u);
}

// ---- Checkpoint provider --------------------------------------------------------

TEST(CkptEdgeTest, EpochClosesAtInterval) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/3);
  auto& provider = static_cast<CheckpointProvider&>(heap->provider());
  for (int op = 0; op < 9; ++op) {
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), op).ok());
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  EXPECT_EQ(provider.epochs_closed(), 3u);
}

TEST(CkptEdgeTest, EpochClosesEarlyUnderSlotPressure) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap =
      MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/1000);
  auto& provider = static_cast<CheckpointProvider&>(heap->provider());
  // Touch many distinct pages; the epoch must close before slots run out.
  for (int op = 0; op < 30; ++op) {
    ASSERT_TRUE(heap->BeginOp(0).ok());
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(heap->Store<std::uint64_t>(
                          0,
                          heap->root() +
                              static_cast<PmAddr>(op * 4 + p) * kPmPageSize,
                          op)
                      .ok());
    }
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  EXPECT_GT(provider.epochs_closed(), 0u);
}

TEST(CkptEdgeTest, PageCheckpointedOncePerEpoch) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/8);
  const std::uint64_t before = rt.counters().ckpoint_create;
  for (int op = 0; op < 8; ++op) {  // one epoch, same page every op
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), op).ok());
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  EXPECT_EQ(rt.counters().ckpoint_create - before, 1u);
}

// ---- Shadow provider -------------------------------------------------------------

TEST(ShadowEdgeTest, MultiPageOperationIsAtomic) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kShadowPaging);
  // Committed: two pages with known values.
  ASSERT_TRUE(heap->BeginOp(0).ok());
  ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), 1).ok());
  ASSERT_TRUE(
      heap->Store<std::uint64_t>(0, heap->root() + kPmPageSize, 1).ok());
  ASSERT_TRUE(heap->CommitOp(0).ok());
  rt.DrainDevices(0);
  // Repeatedly update both pages in one op, crash at arbitrary points: the
  // two pages must always agree (both old or both new).
  Rng rng(11);
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t next =
        *heap->Load<std::uint64_t>(0, heap->root()) + 1;
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), next).ok());
    ASSERT_TRUE(
        heap->Store<std::uint64_t>(0, heap->root() + kPmPageSize, next).ok());
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE(heap->CommitOp(0).ok());
    }
    rt.InjectCrash(rng);
    heap->DropVolatile();
    ASSERT_TRUE(heap->Recover().ok());
    const std::uint64_t a = *heap->Load<std::uint64_t>(0, heap->root());
    const std::uint64_t b =
        *heap->Load<std::uint64_t>(0, heap->root() + kPmPageSize);
    ASSERT_EQ(a, b) << "round " << round;
  }
}

TEST(ShadowEdgeTest, TooManyPagesInOneOpRejected) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kShadowPaging);
  ASSERT_TRUE(heap->BeginOp(0).ok());
  Status st;
  for (std::size_t p = 0; p <= kMaxSwitchEntries; ++p) {
    st = heap->Store<std::uint64_t>(
        0, heap->root() + static_cast<PmAddr>(p) * kPmPageSize, p);
    if (!st.ok()) {
      break;
    }
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// The physical page a shadow lands on picks the device serving the copy, so
// allocation order is part of the simulated timing: each new shadow page must
// be the lowest page no committed PTE maps and no open shadow holds, also
// after commits free pages out of order and after a restart rebuilds the
// free map.
TEST(ShadowEdgeTest, NewShadowPageIsLowestFree) {
  Runtime rt(Opts());
  PoolLayoutOptions lo;
  // 40 window pages, 80 physical pages: the free map's second word is only
  // partly backed by pages.
  lo.data_size = 40 * kPmPageSize;
  lo.shadow_physical_area = true;
  auto pool = PmPool::Create(rt, 0, lo);
  ASSERT_TRUE(pool.ok());
  ShadowPagingProvider sp(&*pool);
  ASSERT_TRUE(sp.Format(0).ok());
  const std::uint64_t pages = lo.data_size / kPmPageSize;
  Rng rng(5);
  for (int op = 0; op < 60; ++op) {
    if (op == 30) {
      sp.DropVolatile();
      ASSERT_TRUE(sp.Recover().ok());
    }
    std::vector<bool> used(pool->phys_pages(), false);
    for (std::uint64_t v = 0; v < pages; ++v) {
      used[rt.Load<std::uint64_t>(0, pool->page_table() + v * 8)] = true;
    }
    std::vector<std::uint64_t> vpages(pages);
    for (std::uint64_t v = 0; v < pages; ++v) {
      vpages[v] = v;
    }
    for (std::uint64_t i = pages - 1; i > 0; --i) {
      std::swap(vpages[i], vpages[rng.NextBounded(i + 1)]);
    }
    vpages.resize(1 + rng.NextBounded(kMaxSwitchEntries));
    ASSERT_TRUE(sp.BeginOp(0).ok());
    for (std::uint64_t v : vpages) {
      const auto lowest_free = static_cast<std::uint64_t>(
          std::find(used.begin(), used.end(), false) - used.begin());
      ASSERT_LT(lowest_free, used.size());
      auto shadow = sp.PrepareStore(0, pool->data_base() + v * kPmPageSize, 8);
      ASSERT_TRUE(shadow.ok());
      EXPECT_EQ((*shadow - pool->phys_base()) / kPmPageSize, lowest_free)
          << "op " << op << " vpage " << v;
      used[lowest_free] = true;
    }
    ASSERT_TRUE(sp.CommitOp(0, {}).ok());
  }
}

TEST(ShadowEdgeTest, ReadOnlyOpCommitsCheaply) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kShadowPaging);
  const std::uint64_t copies_before = rt.counters().shadowcpy;
  ASSERT_TRUE(heap->BeginOp(0).ok());
  std::uint8_t out[8];
  ASSERT_TRUE(heap->Read(0, heap->root(), out).ok());
  ASSERT_TRUE(heap->CommitOp(0).ok());
  EXPECT_EQ(rt.counters().shadowcpy, copies_before);
}

// ---- Deferred frees across mechanisms --------------------------------------------

TEST(DeferredFreeTest, CheckpointFreesWaitForEpoch) {
  Runtime rt(Opts());
  PoolArena arena;
  auto heap = MakeHeap(rt, arena, Mechanism::kCheckpointing, /*epoch_ops=*/4);
  auto block = heap->Alloc(0, 64);
  ASSERT_TRUE(block.ok());
  // Free inside op 1 of the epoch: the block must stay unavailable until the
  // epoch closes (op 4), because an epoch rollback could resurrect it.
  for (int op = 0; op < 4; ++op) {
    ASSERT_TRUE(heap->BeginOp(0).ok());
    ASSERT_TRUE(heap->Store<std::uint64_t>(0, heap->root(), op).ok());
    if (op == 0) {
      ASSERT_TRUE(heap->Free(0, *block, 64).ok());
    }
    if (op < 3) {
      auto again = heap->Alloc(0, 64);
      ASSERT_TRUE(again.ok());
      EXPECT_NE(*again, *block) << "op " << op;
    }
    ASSERT_TRUE(heap->CommitOp(0).ok());
  }
  // Epoch closed at op 4: the block is reusable now.
  bool reused = false;
  for (int i = 0; i < 8 && !reused; ++i) {
    auto again = heap->Alloc(0, 64);
    ASSERT_TRUE(again.ok());
    reused = *again == *block;
  }
  EXPECT_TRUE(reused);
}

}  // namespace
}  // namespace nearpm
