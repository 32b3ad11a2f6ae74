// MmuCore: the part of every MMU model that does not depend on the page-table
// format, written once (paper Table 5: a port rewrites only a small
// machine-dependent layer).
//
// The core owns address-space ids, the per-address-space lock shards, the
// counters and the whole second translation granule: the huge span table
// (one shared referenced/dirty pair per span), the split fan-out, the
// auto-demotion of base-granule operations inside a span, and the per-page
// view that Lookup and translation give of a span.  A port supplies only a
// base-PTE store, a plain class passed as the template argument:
//
//   struct ShardPtes;  // state shared by the spaces of one lock shard (may be empty)
//   struct SpacePtes;  // one space's base PTEs; default-constructed on create
//   void DropSpace(ShardPtes&, AsId, SpacePtes&) const;             // drop them all
//   Pte* Find(ShardPtes&, AsId, SpacePtes&, uint64_t vpn) const;    // nullptr if unmapped
//   Pte& Install(ShardPtes&, AsId, SpacePtes&, uint64_t vpn) const;
//       // the slot for vpn, created if absent; a slot that was empty reads
//       // frame == kInvalidFrame, and the caller always fills it
//   std::optional<Pte> Erase(ShardPtes&, AsId, SpacePtes&, uint64_t vpn) const;
//       // the PTE it removed, or nullopt if there was none
//
// The store is called directly, not through virtual functions, so the per-page
// loops (the split fan-out, MapHuge's clearing) inline it.  Every store call
// runs under the shard lock of the space it names; the store never locks.
#ifndef GVM_SRC_HAL_MMU_CORE_H_
#define GVM_SRC_HAL_MMU_CORE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "src/hal/mmu.h"
#include "src/sync/annotated_mutex.h"
#include "src/util/align.h"

namespace gvm {

// One translation entry as the core and its stores hold it: a base PTE, or a
// huge span's wide entry (frame = first frame of the run).
struct Pte {
  FrameIndex frame = kInvalidFrame;
  Prot prot = Prot::kNone;
  bool referenced = false;
  bool dirty = false;
};

// Base pages per huge page for a `huge_pages` constructor argument: 0 picks
// the default 512KB granule; anything that resolves to <= 1 base page
// returns 1, which disables huge mappings entirely.
size_t ResolveHugeRatio(size_t page_size, size_t huge_pages);

template <typename Store>
class MmuCore : public Mmu {
 public:
  // Number of independent lock shards; address spaces hash onto them by id.
  static constexpr size_t kLockShards = 16;

  Result<AsId> CreateAddressSpace() override;
  [[nodiscard]] Status DestroyAddressSpace(AsId as) override;
  [[nodiscard]] Status Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) override;
  [[nodiscard]] Status Unmap(AsId as, Vaddr va) override;
  [[nodiscard]] Result<MmuEntry> UnmapCollect(AsId as, Vaddr va) override;
  [[nodiscard]] Status Protect(AsId as, Vaddr va, Prot prot) override;
  Result<FrameIndex> Translate(AsId as, Vaddr va, Access access) override;
  Result<FrameIndex> TranslateAndAccess(AsId as, Vaddr va, Access access,
                                        FrameBodyRef body) override;
  Result<MmuEntry> Lookup(AsId as, Vaddr va) const override;
  Result<bool> TestAndClearReferenced(AsId as, Vaddr va) override;

  size_t huge_page_size() const override {
    return huge_ratio_ > 1 ? page_size_ * huge_ratio_ : 0;
  }
  [[nodiscard]] Status MapHuge(AsId as, Vaddr va, FrameIndex frame, Prot prot) override;
  [[nodiscard]] Status DemoteHuge(AsId as, Vaddr va) override;
  Result<FrameIndex> TranslateAndAccessInfo(AsId as, Vaddr va, Access access, FrameBodyRef body,
                                            MmuTranslateInfo* info) override;

  size_t page_size() const override { return page_size_; }
  // Aggregates the per-shard counters; a consistent total only at quiescence.
  Stats stats() const override;
  void ResetStats() override;

 protected:
  // `page_size` must be a power of two; `huge_pages` as for ResolveHugeRatio.
  MmuCore(size_t page_size, size_t huge_pages, Store store);

  struct Space {
    typename Store::SpacePtes ptes;
    // Huge spans keyed by huge virtual page number (vpn >> huge_shift_), each
    // covering the contiguous frame run [frame, frame + huge_ratio_).  The
    // referenced/dirty pair is shared by the whole span: a write through the
    // wide entry can land anywhere in it, so per-page bits would under-report.
    std::unordered_map<uint64_t, Pte> huge;
  };

  // Hardware walks PTEs atomically with respect to kernel updates; the model
  // gets the same property from the shard lock, held across translate-and-
  // access so a store cannot land in a frame an unmap has already released.
  // The core never calls out while holding one, so the kernel-lock -> MMU-lock
  // order is acyclic, and no operation ever holds two shards at once (all
  // shards share rank kMmuShard, so the lock-rank validator aborts if one
  // ever does).  Read-only operations (Lookup, stats) take the shard shared.
  struct alignas(64) Shard {
    mutable SharedMutex mu{Rank::kMmuShard, "MmuCore::Shard::mu"};
    typename Store::ShardPtes ptes GVM_GUARDED_BY(mu);
    std::unordered_map<AsId, Space> spaces GVM_GUARDED_BY(mu);
    Stats stats GVM_GUARDED_BY(mu);
  };

  Shard& ShardFor(AsId as) const { return shards_[as % kLockShards]; }
  static Space* FindSpace(Shard& shard, AsId as) GVM_REQUIRES_SHARED(shard.mu) {
    auto it = shard.spaces.find(as);
    return it == shard.spaces.end() ? nullptr : &it->second;
  }

 private:
  uint64_t Vpn(Vaddr va) const { return va >> page_shift_; }
  // The entry that translates `vpn`: its base PTE, else the huge span that
  // covers it (then *huge is set).  nullptr if neither exists.
  Pte* FindEntry(Shard& shard, AsId as, Space& space, uint64_t vpn, bool* huge) const
      GVM_REQUIRES_SHARED(shard.mu);
  // The frame `vpn` resolves to through `entry` (a span's base + page offset).
  FrameIndex FrameOf(const Pte& entry, uint64_t vpn, bool huge) const {
    return huge ? static_cast<FrameIndex>(entry.frame + (vpn & (huge_ratio_ - 1))) : entry.frame;
  }
  Result<FrameIndex> TranslateLocked(Shard& shard, AsId as, Vaddr va, Access access,
                                     MmuTranslateInfo* info) GVM_REQUIRES(shard.mu);
  // Splits the huge span covering `vpn`, if any, into base PTEs.  Returns true
  // if a span existed (auto-demote sites use it to widen UnmapCollect's report).
  bool SplitHugeLocked(Shard& shard, AsId as, Space& space, uint64_t vpn) GVM_REQUIRES(shard.mu);

  const Store store_;
  const size_t page_size_;
  const unsigned page_shift_;
  const size_t huge_ratio_;  // base pages per huge page; 1 means disabled
  const unsigned huge_shift_;
  std::atomic<AsId> next_as_{0};
  mutable std::array<Shard, kLockShards> shards_;
};

// ---- Implementation (instantiated once per port, in the port's .cc) --------

template <typename Store>
MmuCore<Store>::MmuCore(size_t page_size, size_t huge_pages, Store store)
    : store_(store),
      page_size_(page_size),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_size))),
      huge_ratio_(ResolveHugeRatio(page_size, huge_pages)),
      huge_shift_(static_cast<unsigned>(std::countr_zero(huge_ratio_))) {
  assert(IsPowerOfTwo(page_size));
}

template <typename Store>
Pte* MmuCore<Store>::FindEntry(Shard& shard, AsId as, Space& space, uint64_t vpn,
                               bool* huge) const {
  *huge = false;
  if (Pte* pte = store_.Find(shard.ptes, as, space.ptes, vpn)) {
    return pte;
  }
  auto it = space.huge.find(vpn >> huge_shift_);
  if (it == space.huge.end()) {
    return nullptr;
  }
  *huge = true;
  return &it->second;
}

template <typename Store>
bool MmuCore<Store>::SplitHugeLocked(Shard& shard, AsId as, Space& space, uint64_t vpn) {
  auto it = space.huge.find(vpn >> huge_shift_);
  if (it == space.huge.end()) {
    return false;
  }
  // Fan the span out into base PTEs: the frame run is contiguous, protection
  // is uniform, and the shared referenced/dirty bits go to EVERY base page — a
  // write through the wide entry could have landed anywhere in the span, so
  // under-marking any page would let eviction drop acknowledged data.
  const Pte h = it->second;
  space.huge.erase(it);
  const uint64_t base_vpn = (vpn >> huge_shift_) << huge_shift_;
  for (size_t i = 0; i < huge_ratio_; ++i) {
    store_.Install(shard.ptes, as, space.ptes, base_vpn + i) =
        Pte{.frame = static_cast<FrameIndex>(h.frame + i),
            .prot = h.prot,
            .referenced = h.referenced,
            .dirty = h.dirty};
  }
  return true;
}

template <typename Store>
Result<AsId> MmuCore<Store>::CreateAddressSpace() {
  AsId as = next_as_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  shard.spaces.emplace(as, Space{});
  ++shard.stats.spaces_created;
  return as;
}

template <typename Store>
Status MmuCore<Store>::DestroyAddressSpace(AsId as) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  auto it = shard.spaces.find(as);
  if (it == shard.spaces.end()) {
    return Status::kNotFound;
  }
  // Teardown is not an unmap: only spaces_destroyed counts it.
  store_.DropSpace(shard.ptes, as, it->second.ptes);
  shard.spaces.erase(it);
  ++shard.stats.spaces_destroyed;
  return Status::kOk;
}

template <typename Store>
Status MmuCore<Store>::Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) {
  assert(frame != kInvalidFrame);
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  if (space == nullptr) {
    return Status::kNotFound;
  }
  const uint64_t vpn = Vpn(va);
  SplitHugeLocked(shard, as, *space, vpn);  // base-granule op inside a span demotes it
  // Same-frame re-map is a protection change in place: the accessed/modified
  // bits survive, per the Mmu::Map contract (TlbMmu's write-hit path relies on
  // the dirty bit not being wiped under a still-valid cached entry).  An empty
  // slot reads frame = kInvalidFrame, so same_frame is false and the bits
  // start clear.
  Pte& pte = store_.Install(shard.ptes, as, space->ptes, vpn);
  const bool same_frame = pte.frame == frame;
  pte = Pte{.frame = frame,
            .prot = prot,
            .referenced = same_frame && pte.referenced,
            .dirty = same_frame && pte.dirty};
  ++shard.stats.maps;
  return Status::kOk;
}

template <typename Store>
Status MmuCore<Store>::Unmap(AsId as, Vaddr va) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  if (space == nullptr) {
    return Status::kNotFound;
  }
  const uint64_t vpn = Vpn(va);
  SplitHugeLocked(shard, as, *space, vpn);  // base-granule op inside a span demotes it
  if (store_.Erase(shard.ptes, as, space->ptes, vpn)) {
    ++shard.stats.unmaps;
  }
  return Status::kOk;
}

template <typename Store>
Result<MmuEntry> MmuCore<Store>::UnmapCollect(AsId as, Vaddr va) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  if (space == nullptr) {
    return Status::kNotFound;
  }
  const uint64_t vpn = Vpn(va);
  const bool was_huge = SplitHugeLocked(shard, as, *space, vpn);  // demote, then collect
  const std::optional<Pte> removed = store_.Erase(shard.ptes, as, space->ptes, vpn);
  if (!removed) {
    return Status::kNotFound;
  }
  ++shard.stats.unmaps;
  return MmuEntry{.frame = removed->frame,
                  .prot = removed->prot,
                  .referenced = removed->referenced,
                  .dirty = removed->dirty,
                  .huge = was_huge};
}

template <typename Store>
Status MmuCore<Store>::Protect(AsId as, Vaddr va, Prot prot) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  if (space == nullptr) {
    return Status::kNotFound;
  }
  const uint64_t vpn = Vpn(va);
  SplitHugeLocked(shard, as, *space, vpn);  // protection split demotes the span
  Pte* pte = store_.Find(shard.ptes, as, space->ptes, vpn);
  if (pte == nullptr) {
    return Status::kNotFound;
  }
  pte->prot = prot;
  ++shard.stats.protects;
  return Status::kOk;
}

template <typename Store>
Result<FrameIndex> MmuCore<Store>::Translate(AsId as, Vaddr va, Access access) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  return TranslateLocked(shard, as, va, access, nullptr);
}

template <typename Store>
Result<FrameIndex> MmuCore<Store>::TranslateAndAccess(AsId as, Vaddr va, Access access,
                                                      FrameBodyRef body) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Result<FrameIndex> frame = TranslateLocked(shard, as, va, access, nullptr);
  if (frame.ok()) {
    body(*frame);
  }
  return frame;
}

template <typename Store>
Result<FrameIndex> MmuCore<Store>::TranslateAndAccessInfo(AsId as, Vaddr va, Access access,
                                                          FrameBodyRef body,
                                                          MmuTranslateInfo* info) {
  *info = MmuTranslateInfo{};
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Result<FrameIndex> frame = TranslateLocked(shard, as, va, access, info);
  if (frame.ok()) {
    body(*frame);
  }
  return frame;
}

template <typename Store>
Result<FrameIndex> MmuCore<Store>::TranslateLocked(Shard& shard, AsId as, Vaddr va,
                                                   Access access, MmuTranslateInfo* info) {
  ++shard.stats.translations;
  Space* space = FindSpace(shard, as);
  const uint64_t vpn = Vpn(va);
  bool huge = false;
  Pte* pte = space == nullptr ? nullptr : FindEntry(shard, as, *space, vpn, &huge);
  if (pte == nullptr) {
    ++shard.stats.faults;
    return Status::kSegmentationFault;
  }
  if (!ProtAllows(pte->prot, AccessProt(access))) {
    ++shard.stats.faults;
    return Status::kProtectionFault;
  }
  // For a span these are the shared bits: the span as a whole is referenced
  // (and dirty).
  pte->referenced = true;
  if (access == Access::kWrite) {
    pte->dirty = true;
  }
  if (huge && info != nullptr) {
    info->huge = true;
    info->huge_frame = pte->frame;
  }
  return FrameOf(*pte, vpn, huge);
}

template <typename Store>
Result<MmuEntry> MmuCore<Store>::Lookup(AsId as, Vaddr va) const {
  Shard& shard = ShardFor(as);
  ReaderLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  const uint64_t vpn = Vpn(va);
  bool huge = false;
  const Pte* pte = space == nullptr ? nullptr : FindEntry(shard, as, *space, vpn, &huge);
  if (pte == nullptr) {
    return Status::kNotFound;
  }
  // Inside a span this is the per-base-page view, without demoting: callers
  // that audit page by page (debug invariants) see the frame each page
  // resolves to, flagged huge.
  return MmuEntry{.frame = FrameOf(*pte, vpn, huge),
                  .prot = pte->prot,
                  .referenced = pte->referenced,
                  .dirty = pte->dirty,
                  .huge = huge};
}

template <typename Store>
Result<bool> MmuCore<Store>::TestAndClearReferenced(AsId as, Vaddr va) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  bool huge = false;
  Pte* pte = space == nullptr ? nullptr : FindEntry(shard, as, *space, Vpn(va), &huge);
  if (pte == nullptr) {
    return Status::kNotFound;
  }
  // Inside a span this is the shared bit: clearing it through any page clears
  // it for the whole span (the clock treats the span as one unit of reuse).
  const bool was = pte->referenced;
  pte->referenced = false;
  return was;
}

template <typename Store>
Status MmuCore<Store>::MapHuge(AsId as, Vaddr va, FrameIndex frame, Prot prot) {
  if (huge_ratio_ <= 1) {
    return Status::kUnsupported;
  }
  if ((va & (huge_page_size() - 1)) != 0) {
    return Status::kInvalidArgument;
  }
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  if (space == nullptr) {
    return Status::kNotFound;
  }
  // The wide entry supersedes any base translations inside the span.
  const uint64_t base_vpn = Vpn(va);
  for (size_t i = 0; i < huge_ratio_; ++i) {
    store_.Erase(shard.ptes, as, space->ptes, base_vpn + i);
  }
  // Same-run re-map is a protection change in place, mirroring Map's contract:
  // the shared referenced/dirty bits survive.  A fresh insert default-
  // constructs frame = kInvalidFrame, so the bits start clear.
  Pte& h = space->huge[base_vpn >> huge_shift_];
  const bool same_run = h.frame == frame;
  h = Pte{.frame = frame,
          .prot = prot,
          .referenced = same_run && h.referenced,
          .dirty = same_run && h.dirty};
  ++shard.stats.maps;
  return Status::kOk;
}

template <typename Store>
Status MmuCore<Store>::DemoteHuge(AsId as, Vaddr va) {
  Shard& shard = ShardFor(as);
  WriterLock guard(shard.mu);
  Space* space = FindSpace(shard, as);
  if (space == nullptr) {
    return Status::kNotFound;
  }
  return SplitHugeLocked(shard, as, *space, Vpn(va)) ? Status::kOk : Status::kNotFound;
}

template <typename Store>
Mmu::Stats MmuCore<Store>::stats() const {
  Stats out;
  for (Shard& shard : shards_) {
    ReaderLock guard(shard.mu);
    out.maps += shard.stats.maps;
    out.unmaps += shard.stats.unmaps;
    out.protects += shard.stats.protects;
    out.translations += shard.stats.translations;
    out.faults += shard.stats.faults;
    out.spaces_created += shard.stats.spaces_created;
    out.spaces_destroyed += shard.stats.spaces_destroyed;
  }
  return out;
}

template <typename Store>
void MmuCore<Store>::ResetStats() {
  for (Shard& shard : shards_) {
    WriterLock guard(shard.mu);
    shard.stats = Stats{};
  }
}

}  // namespace gvm

#endif  // GVM_SRC_HAL_MMU_CORE_H_
