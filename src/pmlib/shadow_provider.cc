#include "src/pmlib/shadow_provider.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/core/cc_stats.h"

namespace nearpm {

ShadowPagingProvider::ShadowPagingProvider(const PmPool* pool)
    : pool_(pool),
      threads_(static_cast<size_t>(pool->layout().threads)) {
  assert(pool_->layout().shadow_physical_area &&
         "pool must reserve the physical page area for shadow paging");
}

Status ShadowPagingProvider::Format(ThreadId t) {
  Runtime& rt = pool_->rt();
  const std::uint64_t pages = NumPages();
  pte_cache_.resize(pages);
  for (std::uint64_t v = 0; v < pages; ++v) {
    rt.Store<std::uint64_t>(t, PteAddr(v), v);
    pte_cache_[v] = v;
  }
  rt.Persist(t, PteAddr(0), pages * 8);
  MarkCommittedPages();
  // Disarm the switch records of every thread.
  for (ThreadId th = 0; th < threads_.size(); ++th) {
    const PmAddr rec = pool_->cc_area(th).SwitchRecordAddr();
    rt.Store<std::uint64_t>(t, rec, 0);
    rt.Persist(t, rec, 8);
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> ShadowPagingProvider::AllocPhysPage() {
  // Bits below the hint are all set, so the first clear bit from the hint's
  // word on is the lowest free page.
  for (std::size_t w = free_hint_ / 64; w < page_used_.size(); ++w) {
    if (page_used_[w] != ~std::uint64_t{0}) {
      const std::uint64_t p =
          w * 64 + static_cast<std::uint64_t>(std::countr_one(page_used_[w]));
      MarkPage(p, true);
      free_hint_ = p + 1;
      return p;
    }
  }
  free_hint_ = page_used_.size() * 64;
  return ResourceExhausted("no free physical pages for shadowing");
}

void ShadowPagingProvider::MarkPage(std::uint64_t ppage, bool used) {
  const std::uint64_t bit = std::uint64_t{1} << (ppage % 64);
  if (used) {
    page_used_[ppage / 64] |= bit;
  } else {
    page_used_[ppage / 64] &= ~bit;
    free_hint_ = std::min(free_hint_, ppage);
  }
}

Status ShadowPagingProvider::BeginOp(ThreadId t) {
  ThreadState& ts = threads_[t];
  if (ts.active) {
    return FailedPrecondition("operation already open on this thread");
  }
  ts.active = true;
  ts.shadowed.clear();
  NEARPM_TRACE_EVENT(pool_->rt().trace(), .phase = TracePhase::kOpBegin,
                     .tid = t, .ts = pool_->rt().Now(t));
  return Status::Ok();
}

StatusOr<PmAddr> ShadowPagingProvider::PrepareStore(ThreadId t, PmAddr addr,
                                                    std::uint64_t size) {
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("PrepareStore outside an operation");
  }
  const std::uint64_t vpage = (addr - pool_->data_base()) / kPmPageSize;
  const std::uint64_t vlast = (addr + size - 1 - pool_->data_base()) / kPmPageSize;
  Runtime& rt = pool_->rt();
  for (std::uint64_t v = vpage; v <= vlast; ++v) {
    if (ts.shadowed.contains(v)) {
      continue;
    }
    if (ts.shadowed.size() >= kMaxSwitchEntries) {
      return ResourceExhausted("too many pages shadowed in one operation");
    }
    Runtime::CcRegion cc(rt, t);
    const std::uint64_t old_ppage = pte_cache_[v];
    auto new_ppage = AllocPhysPage();
    if (!new_ppage.ok()) {
      return new_ppage.status();
    }
    NEARPM_RETURN_IF_ERROR(rt.ShadowCpy(pool_->id(), t, PhysAddr(old_ppage),
                                        PhysAddr(*new_ppage), kPmPageSize));
    ts.shadowed.emplace(v, std::make_pair(old_ppage, *new_ppage));
  }
  // Redirect the store into the shadow page. A store never spans pages
  // (allocator blocks are page-bounded), so translating by the first page is
  // exact; assert in case a caller violates that.
  assert(vpage == vlast);
  const std::uint64_t offset = (addr - pool_->data_base()) % kPmPageSize;
  return PhysAddr(ts.shadowed.at(vpage).second) + offset;
}

StatusOr<PmAddr> ShadowPagingProvider::TranslateLoad(ThreadId t, PmAddr addr,
                                                     std::uint64_t size) {
  const std::uint64_t vpage = (addr - pool_->data_base()) / kPmPageSize;
  assert(vpage == (addr + size - 1 - pool_->data_base()) / kPmPageSize);
  (void)size;
  const std::uint64_t offset = (addr - pool_->data_base()) % kPmPageSize;
  const ThreadState& ts = threads_[t];
  if (ts.active) {
    auto it = ts.shadowed.find(vpage);
    if (it != ts.shadowed.end()) {
      return PhysAddr(it->second.second) + offset;  // own uncommitted writes
    }
  }
  return PhysAddr(pte_cache_[vpage]) + offset;
}

StatusOr<bool> ShadowPagingProvider::CommitOp(ThreadId t,
                                              std::span<const AddrRange> dirty) {
  ThreadState& ts = threads_[t];
  if (!ts.active) {
    return FailedPrecondition("CommitOp outside an operation");
  }
  Runtime& rt = pool_->rt();
  Runtime::CcRegion cc(rt, t);
  if (ts.shadowed.empty()) {
    ts.active = false;
    return true;
  }
  // 1. Persist the shadow pages the operation wrote.
  rt.stats().SetCategory(t, CcCategory::kOrdering);
  for (const AddrRange& range : dirty) {
    rt.Persist(t, range.begin, range.size());
  }
  // 2. Arm the switch record (atomic multi-page commit point).
  rt.stats().SetCategory(t, CcCategory::kMetadata);
  SwitchRecord rec;
  rec.count = ts.shadowed.size();
  std::size_t i = 0;
  for (const auto& [vpage, pages] : ts.shadowed) {
    rec.entries[i].vpage = vpage;
    rec.entries[i].new_ppage = pages.second;
    ++i;
  }
  rec.checksum = Checksum64(
      {reinterpret_cast<const std::uint8_t*>(rec.entries), rec.count * 16});
  rec.magic = kSwitchMagic;
  const PmAddr rec_addr = pool_->cc_area(t).SwitchRecordAddr();
  rt.Store(t, rec_addr, rec);
  rt.Persist(t, rec_addr, sizeof(rec));
  // 3. Switch the page-table entries ("switch page" in the paper).
  for (const auto& [vpage, pages] : ts.shadowed) {
    rt.Store<std::uint64_t>(t, PteAddr(vpage), pages.second);
    rt.Persist(t, PteAddr(vpage), 8);
    rt.Compute(t, rt.options().hw.cost.cpu_page_switch_ns);
    pte_cache_[vpage] = pages.second;
  }
  // 4. Disarm and recycle the old pages.
  rt.Store<std::uint64_t>(t, rec_addr, 0);
  rt.Persist(t, rec_addr, 8);
  for (const auto& [vpage, pages] : ts.shadowed) {
    MarkPage(pages.first, false);
  }
  ts.shadowed.clear();
  NEARPM_TRACE_EVENT(rt.trace(), .phase = TracePhase::kOpCommit, .tid = t,
                     .ts = rt.Now(t), .arg0 = 1);
  ts.active = false;
  return true;
}

Status ShadowPagingProvider::RecoverThread(ThreadId t) {
  Runtime& rt = pool_->rt();
  const PmAddr rec_addr = pool_->cc_area(t).SwitchRecordAddr();
  const SwitchRecord rec = rt.Load<SwitchRecord>(t, rec_addr);
  // skip_recovery_replay: fault injection -- disarm without rolling forward.
  if (rec.magic == kSwitchMagic && rec.count <= kMaxSwitchEntries &&
      Checksum64({reinterpret_cast<const std::uint8_t*>(rec.entries),
                  rec.count * 16}) == rec.checksum &&
      !rt.options().skip_recovery_replay) {
    // Roll the switch forward: shadow pages were persisted before arming.
    for (std::uint64_t i = 0; i < rec.count; ++i) {
      rt.Store<std::uint64_t>(t, PteAddr(rec.entries[i].vpage),
                              rec.entries[i].new_ppage);
      rt.Persist(t, PteAddr(rec.entries[i].vpage), 8);
    }
    ++rolled_forward_;
  }
  rt.Store<std::uint64_t>(t, rec_addr, 0);
  rt.Persist(t, rec_addr, 8);
  return Status::Ok();
}

Status ShadowPagingProvider::Recover() {
  NEARPM_TRACE_EVENT(pool_->rt().trace(), .phase = TracePhase::kMechRecover,
                     .ts = pool_->rt().Now(0));
  for (ThreadId t = 0; t < threads_.size(); ++t) {
    NEARPM_RETURN_IF_ERROR(RecoverThread(t));
    threads_[t] = ThreadState{};
  }
  RebuildFreeBitmap();
  return Status::Ok();
}

void ShadowPagingProvider::RebuildFreeBitmap() {
  Runtime& rt = pool_->rt();
  const std::uint64_t pages = NumPages();
  pte_cache_.resize(pages);
  for (std::uint64_t v = 0; v < pages; ++v) {
    pte_cache_[v] = rt.Load<std::uint64_t>(0, PteAddr(v));
  }
  MarkCommittedPages();
}

void ShadowPagingProvider::MarkCommittedPages() {
  const std::uint64_t phys = pool_->phys_pages();
  page_used_.assign((phys + 63) / 64, 0);
  if (phys % 64 != 0) {
    page_used_.back() = ~std::uint64_t{0} << (phys % 64);
  }
  free_hint_ = 0;
  for (std::uint64_t ppage : pte_cache_) {
    MarkPage(ppage, true);
  }
}

void ShadowPagingProvider::DropVolatile() {
  for (ThreadState& ts : threads_) {
    ts = ThreadState{};
  }
  // pte_cache_ / page_used_ are rebuilt by Recover.
}

}  // namespace nearpm
