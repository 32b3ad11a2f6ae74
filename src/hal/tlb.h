// TlbMmu: a per-CPU software TLB layered in front of any Mmu implementation.
//
// Real MMUs cache translations per CPU and require the kernel to run a shootdown
// protocol before an unmap or protection downgrade may be considered complete
// (the paper's machine-dependent layer hides exactly this; see also the
// break-before-make discipline of relaxed virtual-memory models).  This wrapper
// models that hardware faithfully in software:
//
//   * Each accessing thread ("CPU") owns a small set-associative cache of
//     (AsId, vpn) -> (frame, protection) entries.  The hit path takes no lock:
//     it publishes an odd per-CPU epoch, validates the entry against a
//     generation counter, runs the access body against the cached frame, then
//     publishes an even epoch.
//   * Every unmap, protection downgrade, replacing map and address-space
//     teardown bumps a generation (invalidating the cached entries hashing to
//     it at once) and then waits for all CPUs currently inside the critical
//     window to leave it.  When the mutating call returns, no stale
//     translation can be used again and no in-flight access is still touching
//     the old frame — which is what lets the PVM recycle the frame.
//     Generations come in two dimensions, both hashed: per (AsId, vpn) — so a
//     single-page shootdown (the software invlpg) only invalidates entries
//     sharing its hash slot — and per AsId, so address-space teardown (the
//     full flush of one context) leaves other address spaces' entries alone.
//     An entry caches the sum of both counters at fill time and is valid
//     while the sum is unchanged.
//   * Protection upgrades and fresh fills do NOT flush: a cached entry only
//     ever under-approximates the real rights, so widening them cannot make it
//     unsafe.
//   * The epoch/generation handshake needs a store-load barrier between the
//     reader's epoch publication and its generation check.  Paying a full
//     fence per access would make hits nearly as expensive as the locked walk
//     they replace, so the barrier is asymmetric, exactly like a hardware
//     shootdown IPI (and like Linux's sys_membarrier / mmu_gather): readers
//     execute plain stores with only a compiler barrier, and the shootdown
//     side forces a barrier onto every running thread — via
//     membarrier(PRIVATE_EXPEDITED) on Linux, and by falling back to a
//     per-access seq_cst fence where that is unavailable.
//
// Entries are written exclusively by their owning CPU; cross-CPU invalidation
// is purely logical (a generation mismatch), so the hit path is data-race-free
// without atomics on the entry fields themselves.
#ifndef GVM_SRC_HAL_TLB_H_
#define GVM_SRC_HAL_TLB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/hal/mmu.h"

namespace gvm {

class PhysicalMemory;

namespace tlb_internal {
// Per-thread binding of the most recently used TlbMmu to its CPU slot; keeps
// the per-access slot lookup to two compares.  Defined in tlb.cc.
struct ThreadTlbRef {
  const void* mmu = nullptr;
  uint64_t id = 0;
  void* slot = nullptr;
};
extern thread_local ThreadTlbRef t_last;
// Test hook: drops all of this thread's cached (instance, slot) bindings,
// simulating the binding-list size cap; the next access through any TlbMmu
// must re-find the thread's already-claimed slot rather than claim a new one.
void ForgetThreadBindings();
}  // namespace tlb_internal

class TlbMmu final : public Mmu {
 public:
  struct TlbStats {
    uint64_t hits = 0;              // includes huge_hits (a breakdown, not a disjoint count)
    uint64_t huge_hits = 0;         // hits served by a wide (huge-granule) entry
    uint64_t misses = 0;
    uint64_t fills = 0;
    uint64_t shootdowns = 0;        // fence+drain events actually paid (the "IPIs")
    uint64_t shootdown_pages = 0;   // pages invalidated by page-granular shootdowns
    uint64_t shootdown_ranges = 0;  // multi-page runs batched into one shootdown
  };

  static constexpr size_t kSets = 64;
  static constexpr size_t kWays = 4;
  static constexpr size_t kMaxCpus = 64;    // distinct accessing threads; extras bypass
  static constexpr size_t kGenSlots = 1024; // page generations, hashed by (AsId, vpn)
  static constexpr size_t kAsGenSlots = 64; // address-space generations, hashed by AsId

  // How the store-load barrier between a reader's epoch publication and its
  // generation check is realised (see file comment).
  enum class FenceMode {
    kAuto,         // resolve at construction: kMembarrier when available, else kFenced
    kFenced,       // reader pays a seq_cst fence on every access (portable)
    kMembarrier,   // readers fence-free; shootdown runs membarrier(PRIVATE_EXPEDITED)
  };

  // When `enabled` is false every call delegates straight to `inner` (used by
  // benchmarks to measure the uncached baseline with the same binary).
  explicit TlbMmu(Mmu& inner, bool enabled = true, FenceMode fence = FenceMode::kAuto);
  ~TlbMmu() override;

  Result<AsId> CreateAddressSpace() override;
  [[nodiscard]] Status DestroyAddressSpace(AsId as) override;
  [[nodiscard]] Status Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) override;
  [[nodiscard]] Status Unmap(AsId as, Vaddr va) override;
  [[nodiscard]] Result<MmuEntry> UnmapCollect(AsId as, Vaddr va) override;
  [[nodiscard]] Status Protect(AsId as, Vaddr va, Prot prot) override;
  // Range forms batch the invalidation: the whole contiguous run pays one
  // shootdown (one generation-publish sweep + one fence epoch) instead of one
  // per page — the software analogue of a ranged TLBI.
  [[nodiscard]] Status UnmapRange(AsId as, Vaddr va, size_t count) override;
  [[nodiscard]] Status UnmapRangeCollect(AsId as, Vaddr va, size_t count,
                                         uint64_t* dirty_mask) override;
  [[nodiscard]] Status ProtectRange(AsId as, Vaddr va, size_t count, Prot prot) override;
  // Huge-granule pass-throughs.  The TLB caches wide entries in a second
  // generation dimension (hgen_), so mixed-size shootdowns stay precise: a
  // base-page invalidation bumps its page slot, and widens to the covering
  // huge slot only when the mutation actually split a span (old/removed entry
  // reports huge).  MapHuge over differing base translations invalidates the
  // covered sub-run with one ranged shootdown; DemoteHuge retires the wide
  // entry (the split base PTEs translate identically, but a surviving wide
  // entry would be unreachable by later base-granular bumps).
  size_t huge_page_size() const override { return inner_.huge_page_size(); }
  [[nodiscard]] Status MapHuge(AsId as, Vaddr va, FrameIndex frame, Prot prot) override;
  [[nodiscard]] Status DemoteHuge(AsId as, Vaddr va) override;
  Result<FrameIndex> Translate(AsId as, Vaddr va, Access access) override;
  Result<FrameIndex> TranslateAndAccess(AsId as, Vaddr va, Access access,
                                        FrameBodyRef body) override;
  Result<MmuEntry> Lookup(AsId as, Vaddr va) const override;
  Result<bool> TestAndClearReferenced(AsId as, Vaddr va) override;

  size_t page_size() const override { return inner_.page_size(); }
  Stats stats() const override { return inner_.stats(); }
  void ResetStats() override;
  const char* name() const override { return name_.c_str(); }

  bool enabled() const { return enabled_; }
  Mmu& inner() { return inner_; }
  // The fence mode actually in effect (kAuto resolved at construction).
  FenceMode fence_mode() const { return fence_; }

  // Aggregated snapshot across all CPUs (counters are owner-written, so the
  // snapshot is approximate while threads are running and exact at quiescence).
  TlbStats tlb_stats() const;
  void ResetTlbStats();

  // Invalidates `count` consecutive pages starting at `vpn` with a single
  // shootdown.  For runs up to kGenSlots the per-page generation slots of a
  // contiguous VPN run are provably distinct (GenIndex xors a per-AS constant
  // into the low bits, which preserves the distinctness of `count` consecutive
  // values), so each slot is bumped exactly once; longer runs fall back to one
  // address-space-wide bump, trading precision for a single publish.  Either
  // way exactly one fence+drain epoch is paid (zero if a gather is open).
  void ShootdownRange(AsId as, uint64_t vpn, size_t count);

  // ---- Deferred ("gathered") shootdowns — the software mmu_gather ----
  //
  // A gather scope batches the *fence* half of every shootdown issued inside
  // it into one epoch at commit, while the *publish* half (generation bumps)
  // still happens immediately, so any translation starting after the mutation
  // already misses.  The stale window this opens — a reader that cached the
  // translation before the bump may keep using it until commit — is exactly
  // the window hardware batching (Linux's mmu_gather / arm64 ranged TLBI+DSB)
  // opens, and it is safe under the same two conditions the caller must hold:
  //   1. The whole scope is one logical mutation: nobody may observe its
  //      intermediate states as complete.  Concretely, the serializing lock
  //      may never be dropped while a scope is open — another thread entering
  //      the manager would find gather_depth_ > 0 and have its own shootdowns
  //      silently deferred onto ours.  Close the scope first (or FlushGather
  //      *and* EndGather); a flush alone does not end the deferral window.
  //   2. Frames unmapped inside the scope are not recycled until commit:
  //      route them through FreeFrameAfterFlush, which parks them on the
  //      gather and frees them only after the fence retires every possible
  //      stale access.
  // Gather state is intentionally unsynchronized: shootdowns are already
  // required to be serialized by the caller (the managers' single mutation
  // lock), and gathers only ever nest within one mutator.
  void BeginGather();
  // Closes one nesting level; the outermost close commits (publishes any
  // deferred AS bumps, pays the single fence+drain, then releases parked
  // frames).
  void EndGather();
  // Commits the pending work *now* without closing the scope — required
  // before the caller drops the lock that serializes mutations.
  void FlushGather();
  bool GatherActive() const { return gather_depth_ > 0; }
  // Frames parked by FreeFrameAfterFlush and not yet released; an allocator
  // balancing free-memory targets must count these as free-to-be.
  size_t GatherParkedFrames() const { return gather_frames_.size(); }
  // Frees `frame` back to `memory` once no stale translation can reach it:
  // immediately when no gather is open (the preceding shootdown already
  // fenced), at commit otherwise.
  void FreeFrameAfterFlush(PhysicalMemory& memory, FrameIndex frame);
  // Condemns `as` inside an open gather: its AS-generation slot is marked for
  // the deferred whole-AS bump, and until commit all page-granular publishes
  // for address spaces hashing to that slot are skipped as subsumed.  Used by
  // teardown paths (process exit, exec replace) so destroying every region of
  // a context costs one AS bump + one fence total.  Requires an open gather
  // (no-op otherwise: without a commit point there is nothing to defer to).
  void GatherCondemnAddressSpace(AsId as);

  // Set index for (as, vpn); exposed so tests can construct set conflicts.
  static size_t SetIndex(AsId as, uint64_t vpn) {
    return static_cast<size_t>(vpn ^ (static_cast<uint64_t>(as) * 0x9e3779b9u)) & (kSets - 1);
  }
  // Generation slot indices for (as, vpn) / as; exposed for the same reason.
  static size_t GenIndex(AsId as, uint64_t vpn) {
    return static_cast<size_t>(vpn ^ (static_cast<uint64_t>(as) * 0x9e3779b9u)) &
           (kGenSlots - 1);
  }
  static size_t AsGenIndex(AsId as) { return static_cast<size_t>(as) & (kAsGenSlots - 1); }

  // The simulated CPU's per-access entry point: translate + run `body(frame)`
  // under shootdown protection, as one unit.  A template so the whole hit path
  // (probe, validate, body) inlines into the caller; misses, faults, bypass
  // and the disabled configuration leave through the out-of-line slow paths.
  // `body` is any callable void(FrameIndex); pass NoBody{} for translate-only.
  struct NoBody {
    void operator()(FrameIndex) const {}
  };
  template <typename Body>
  Result<FrameIndex> AccessFast(AsId as, Vaddr va, Access access, const Body& body) {
    if (enabled_) {
      CpuSlot* cpu = ThisCpu();
      if (cpu != nullptr) {
        const uint64_t vpn = va >> page_shift_;
        // Enter the critical window (odd epoch) *before* validating the
        // generation: either a shootdown sees our odd epoch and waits for the
        // access body to finish, or we see its generation bump and miss.  The
        // store-load barrier that makes this a total order is asymmetric (see
        // the file comment): the signal fence only pins the compiler, and the
        // hardware barrier is supplied by the shootdown side — except in
        // kFenced mode, where we pay it here.
        cpu->epoch.store(++cpu->epoch_local, std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
        if (reader_fences_) {
          std::atomic_thread_fence(std::memory_order_seq_cst);
        }
        const Entry* e = Probe(*cpu, as, vpn, /*huge=*/false);
        if (e != nullptr && e->gen == GenSum(as, vpn) &&
            ProtAllows(e->prot, AccessProt(access)) &&
            (access != Access::kWrite || e->dirty_ok)) {
          const FrameIndex frame = e->frame;
          body(frame);
          // Release: the frame contents written by `body` happen-before
          // anything a shootdown-then-recycle does with the frame.
          cpu->epoch.store(++cpu->epoch_local, std::memory_order_release);
          return frame;
        }
        if (huge_shift_ != 0) {
          // Second probe at the wide granule: one cached entry covers the
          // whole span (that is the translation-reach win), validated against
          // its own generation dimension and indexed by the huge vpn.
          const uint64_t hvpn = vpn >> huge_shift_;
          const Entry* he = Probe(*cpu, as, hvpn, /*huge=*/true);
          if (he != nullptr && he->gen == GenSumHuge(as, hvpn) &&
              ProtAllows(he->prot, AccessProt(access)) &&
              (access != Access::kWrite || he->dirty_ok)) {
            const FrameIndex frame = static_cast<FrameIndex>(
                he->frame + (vpn & ((uint64_t{1} << huge_shift_) - 1)));
            body(frame);
            Bump(cpu->huge_hits);
            cpu->epoch.store(++cpu->epoch_local, std::memory_order_release);
            return frame;
          }
        }
        cpu->epoch.store(++cpu->epoch_local, std::memory_order_release);
        return Miss(*cpu, as, va, access, FrameBodyRef(body));
      }
    }
    return Bypass(as, va, access, FrameBodyRef(body));
  }

 private:
  struct Entry {
    uint64_t vpn = 0;           // huge entries store the huge vpn (vpn >> huge_shift_)
    uint64_t gen = 0;           // generation at fill time; mismatch == invalid
    AsId as = kInvalidAsId;
    FrameIndex frame = kInvalidFrame;  // huge entries: frame of the span's first page
    Prot prot = Prot::kNone;    // rights proven by successful inner translations
    bool dirty_ok = false;      // inner PTE dirty bit known set: write hits allowed
    bool huge = false;          // wide entry: covers huge_shift_ worth of base pages
    bool valid = false;
  };

  struct alignas(64) CpuSlot {
    // Odd while the owning thread is inside probe+access; even when quiescent.
    // Advances by two per lookup, so epoch/2 is also the lookup count.
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> claimed{false};
    // Process-unique id of the claiming thread (0 = unclaimed; ids are never
    // reused).  Ownership lives in the slot, not only in the thread-local
    // binding list, so a dropped binding re-finds its slot instead of leaking
    // it by claiming a fresh one.
    std::atomic<uint64_t> owner{0};
    uint64_t epoch_local = 0;  // owner-thread copy, avoids an atomic load to bump
    // Owner-written cold-path counters (plain stores; readers aggregate
    // relaxed loads).  Hits are derived: epoch/2 - lookup_base - misses.
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> fills{0};
    std::atomic<uint64_t> huge_hits{0};    // hits served by a wide entry
    std::atomic<uint64_t> lookup_base{0};  // lookups at the last ResetTlbStats
    Entry entries[kSets][kWays];
    uint8_t next_way[kSets] = {};
  };

  // Finds (or claims) this thread's slot; nullptr when all slots are taken, in
  // which case the thread simply bypasses the TLB.
  CpuSlot* ThisCpu() {
    const tlb_internal::ThreadTlbRef& last = tlb_internal::t_last;
    if (last.mmu == this && last.id == instance_id_) {
      return static_cast<CpuSlot*>(last.slot);
    }
    return ThisCpuSlow();
  }
  CpuSlot* ThisCpuSlow();
  // An entry is valid while neither its page generation nor its address
  // space's generation has moved.  Both counters are monotonic, so caching
  // their sum at fill time and comparing sums is equivalent to comparing both
  // — and keeps Entry::gen a single word.
  uint64_t GenSum(AsId as, uint64_t vpn) const {
    // The arrays live inline in the object (not behind a pointer) so each load
    // is one this-relative access, not a base-pointer chase.
    return as_gen_[AsGenIndex(as)].load(std::memory_order_seq_cst) +
           gen_[GenIndex(as, vpn)].load(std::memory_order_seq_cst);
  }
  // Wide entries validate against their own page-generation dimension, hashed
  // by the huge vpn, plus the shared AS generation (so address-space teardown
  // retires both sizes with one bump).
  uint64_t GenSumHuge(AsId as, uint64_t hvpn) const {
    return as_gen_[AsGenIndex(as)].load(std::memory_order_seq_cst) +
           hgen_[GenIndex(as, hvpn)].load(std::memory_order_seq_cst);
  }
  // `huge` discriminates the two entry kinds: a base probe must never hit a
  // wide entry whose huge vpn happens to equal a base vpn (and vice versa).
  const Entry* Probe(const CpuSlot& cpu, AsId as, uint64_t vpn, bool huge) const {
    const Entry* set = cpu.entries[SetIndex(as, vpn)];
    for (size_t w = 0; w < kWays; ++w) {
      if (set[w].valid && set[w].huge == huge && set[w].as == as && set[w].vpn == vpn) {
        return &set[w];
      }
    }
    return nullptr;
  }
  Entry* ProbeMutable(CpuSlot& cpu, AsId as, uint64_t vpn, bool huge) {
    return const_cast<Entry*>(Probe(cpu, as, vpn, huge));
  }
  void Fill(CpuSlot& cpu, AsId as, uint64_t vpn, FrameIndex frame, Access access, uint64_t gen,
            bool huge);
  // Out-of-line slow paths for AccessFast.
  Result<FrameIndex> Miss(CpuSlot& cpu, AsId as, Vaddr va, Access access, FrameBodyRef body);
  Result<FrameIndex> Bypass(AsId as, Vaddr va, Access access, FrameBodyRef body);
  // Bumps the generation(s) covering (as, vpn) — all slots when single_page is
  // false — and waits for every CPU currently inside the critical window to
  // exit it; on return no stale translation can be used.  Under an open gather
  // only the bump happens; the wait is deferred to commit.  `huge_also` widens
  // a single-page invalidation to the covering huge-generation slot, for
  // mutations that split a span (the wide cached entry must die with it).
  void Shootdown(AsId as, uint64_t vpn, bool single_page, bool huge_also = false);
  // Publish-half of a huge invalidation over [hvpn_first, hvpn_last] (no
  // fence; the caller pays or defers it).
  void PublishHugeRange(AsId as, uint64_t hvpn_first, uint64_t hvpn_last);
  // Shared tail of the range wrappers: publishes the huge slots touched by
  // span demotions, then pays (or defers) exactly one fence covering both the
  // base run and the huge slots.
  void FinishRangeShootdown(AsId as, bool any, uint64_t first, uint64_t last, bool any_huge,
                            uint64_t hfirst, uint64_t hlast);
  // The fence half of a shootdown: force the barrier onto every thread, then
  // wait out every CPU inside its critical window.  Counts one shootdown.
  void FenceAndDrain();
  // True when `as` hashes to an AS-generation slot already marked for a
  // deferred whole-AS bump: its per-page publishes are subsumed by commit.
  bool GatherCondemned(AsId as) const {
    return gather_depth_ > 0 && ((gather_as_mask_ >> AsGenIndex(as)) & 1) != 0;
  }
  // Publishes deferred AS bumps, pays the single fence, releases parked frames.
  void CommitGather();
  static void Bump(std::atomic<uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  Mmu& inner_;
  const bool enabled_;
  const unsigned page_shift_;
  // log2 of base pages per huge page; 0 = the inner MMU has no second granule
  // (a 2:1 ratio would also be shift 1, so 0 is unambiguous as "disabled").
  const unsigned huge_shift_;
  const uint64_t instance_id_;  // globally unique; defeats address-reuse aliasing
  const FenceMode fence_;       // resolved, never kAuto
  const bool reader_fences_;    // fence_ == kFenced, tested on the hit path
  const std::string name_;
  std::unique_ptr<CpuSlot[]> cpus_;
  mutable std::atomic<uint64_t> gen_[kGenSlots] = {};        // page generations
  mutable std::atomic<uint64_t> hgen_[kGenSlots] = {};       // huge-page generations
  mutable std::atomic<uint64_t> as_gen_[kAsGenSlots] = {};   // address-space generations
  // Slots are claimed densely from index 0 and never released, so the scan in
  // Shootdown only needs to cover [0, claimed_high_).
  std::atomic<size_t> claimed_high_{0};
  std::atomic<uint64_t> shootdowns_{0};
  std::atomic<uint64_t> shootdown_pages_{0};
  std::atomic<uint64_t> shootdown_ranges_{0};
  // Gather state.  Written only by the (caller-serialized) mutating thread —
  // see the BeginGather comment — so plain fields are data-race-free.
  int gather_depth_ = 0;           // nesting depth of open gather scopes
  bool gather_pending_ = false;    // a publish happened; commit owes one fence
  uint64_t gather_as_mask_ = 0;    // AS-generation slots owed a bump at commit
  std::vector<std::pair<PhysicalMemory*, FrameIndex>> gather_frames_;
};

// RAII gather scope: opens on construction, closes (and commits if outermost)
// on destruction.  Constructing from a null TlbMmu or a disabled one is a
// no-op, so callers can write `TlbGatherScope gather(tlb());` unconditionally.
class TlbGatherScope {
 public:
  explicit TlbGatherScope(TlbMmu* tlb) : tlb_(tlb != nullptr && tlb->enabled() ? tlb : nullptr) {
    if (tlb_ != nullptr) {
      tlb_->BeginGather();
    }
  }
  ~TlbGatherScope() {
    if (tlb_ != nullptr) {
      tlb_->EndGather();
    }
  }
  TlbGatherScope(const TlbGatherScope&) = delete;
  TlbGatherScope& operator=(const TlbGatherScope&) = delete;

  // Commits pending work without closing the scope; must be called before the
  // caller drops the lock serializing its mutations.
  void Flush() {
    if (tlb_ != nullptr) {
      tlb_->FlushGather();
    }
  }

 private:
  TlbMmu* tlb_;
};

}  // namespace gvm

#endif  // GVM_SRC_HAL_TLB_H_
