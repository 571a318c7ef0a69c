// Shadow-paging provider (Figure 2c, Figure 14 g/h).
//
// The pool's data window is virtual: a persistent page table maps each
// window page to a physical page in the pool's page area. The first store to
// a page within an operation allocates a fresh physical page, copies the
// current contents near memory (NearPM_shadowcpy), and redirects the rest of
// the operation's accesses to the shadow. Commit persists the shadow pages
// and switches the page-table entries atomically through a small persistent
// switch record (redo on PTEs), then recycles the old pages.
//
// Recovery: an armed, checksummed switch record rolls forward (re-applies
// the PTE flips); otherwise the table still points at the old pages and the
// operation never happened. The free-page bitmap is volatile and is rebuilt
// by scanning the page table.
#ifndef SRC_PMLIB_SHADOW_PROVIDER_H_
#define SRC_PMLIB_SHADOW_PROVIDER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/pmlib/pool.h"
#include "src/pmlib/provider.h"

namespace nearpm {

class ShadowPagingProvider : public ConsistencyProvider {
 public:
  explicit ShadowPagingProvider(const PmPool* pool);

  // Writes the identity page table of a fresh pool. Call once after
  // PmPool::Create (not after recovery).
  Status Format(ThreadId t);

  Mechanism mechanism() const override { return Mechanism::kShadowPaging; }
  Status BeginOp(ThreadId t) override;
  StatusOr<PmAddr> PrepareStore(ThreadId t, PmAddr addr,
                                std::uint64_t size) override;
  StatusOr<PmAddr> TranslateLoad(ThreadId t, PmAddr addr,
                                 std::uint64_t size) override;
  StatusOr<bool> CommitOp(ThreadId t,
                          std::span<const AddrRange> dirty) override;
  Status Recover() override;
  void DropVolatile() override;

  std::uint64_t switches_rolled_forward() const { return rolled_forward_; }

 private:
  struct ThreadState {
    bool active = false;
    // vpage -> (old ppage, new ppage) for pages shadowed in this op.
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        shadowed;
  };

  std::uint64_t NumPages() const { return pool_->data_size() / kPmPageSize; }
  PmAddr PteAddr(std::uint64_t vpage) const {
    return pool_->page_table() + vpage * 8;
  }
  PmAddr PhysAddr(std::uint64_t ppage) const {
    return pool_->phys_base() + ppage * kPmPageSize;
  }
  // The lowest free physical page. The page picks the device that serves
  // the shadow copy, so the choice is part of the simulated timing.
  StatusOr<std::uint64_t> AllocPhysPage();
  void MarkPage(std::uint64_t ppage, bool used);
  // Reloads pte_cache_ from the page table, then MarkCommittedPages.
  void RebuildFreeBitmap();
  // Marks exactly the pages pte_cache_ maps in use.
  void MarkCommittedPages();
  Status RecoverThread(ThreadId t);

  const PmPool* pool_;
  std::vector<ThreadState> threads_;

  // Volatile caches of persistent state.
  std::vector<std::uint64_t> pte_cache_;   // committed vpage -> ppage
  // One bit per physical page, set when in use; the bits past the last page
  // are set so they are never handed out.
  std::vector<std::uint64_t> page_used_;
  // No page below this one is free.
  std::uint64_t free_hint_ = 0;
  std::uint64_t rolled_forward_ = 0;
};

}  // namespace nearpm

#endif  // SRC_PMLIB_SHADOW_PROVIDER_H_
