#include "src/hal/tlb.h"

#include <bit>
#include <cassert>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/hal/phys_memory.h"
#include "src/util/align.h"

namespace gvm {

namespace tlb_internal {
thread_local ThreadTlbRef t_last;
}  // namespace tlb_internal

namespace {

std::atomic<uint64_t> g_next_instance_id{1};

// membarrier(2) constants, declared locally so no kernel headers are required.
#if defined(__linux__) && defined(SYS_membarrier)
constexpr int kMembarrierCmdQuery = 0;
constexpr int kMembarrierCmdPrivateExpedited = 1 << 3;
constexpr int kMembarrierCmdRegisterPrivateExpedited = 1 << 4;

bool MembarrierAvailable() {
  const long cmds = syscall(SYS_membarrier, kMembarrierCmdQuery, 0);
  if (cmds < 0 || (cmds & kMembarrierCmdPrivateExpedited) == 0) {
    return false;
  }
  return syscall(SYS_membarrier, kMembarrierCmdRegisterPrivateExpedited, 0) == 0;
}

// Forces every running thread of this process to execute a full memory
// barrier before the call returns — the software analogue of a shootdown IPI.
void MembarrierAllThreads() { syscall(SYS_membarrier, kMembarrierCmdPrivateExpedited, 0); }
#else
bool MembarrierAvailable() { return false; }
void MembarrierAllThreads() {}
#endif

TlbMmu::FenceMode ResolveFence(TlbMmu::FenceMode requested) {
  switch (requested) {
    case TlbMmu::FenceMode::kAuto:
      return MembarrierAvailable() ? TlbMmu::FenceMode::kMembarrier : TlbMmu::FenceMode::kFenced;
    case TlbMmu::FenceMode::kMembarrier:
      // Registration is required before PRIVATE_EXPEDITED may be used.
      return MembarrierAvailable() ? TlbMmu::FenceMode::kMembarrier : TlbMmu::FenceMode::kFenced;
    default:
      return requested;
  }
}

// A thread typically talks to one TlbMmu at a time, so the single-entry
// t_last cache fronts this small vector of (instance, slot) bindings.
thread_local std::vector<tlb_internal::ThreadTlbRef> t_refs;

// Process-unique thread ids for slot ownership (0 is reserved for "unclaimed",
// and ids are never reused, so a slot's owner field can only ever match the
// thread that claimed it).
std::atomic<uint64_t> g_next_thread_id{1};

uint64_t ThisThreadTlbId() {
  thread_local const uint64_t id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

namespace tlb_internal {
void ForgetThreadBindings() {
  t_last = ThreadTlbRef{};
  t_refs.clear();
}
}  // namespace tlb_internal

namespace {

// log2 of base pages per huge page, or 0 when the inner MMU has no second
// granule (huge_page_size() == 0 or degenerate).
unsigned ResolveHugeShift(const Mmu& inner) {
  const size_t huge = inner.huge_page_size();
  if (huge <= inner.page_size()) {
    return 0;
  }
  return static_cast<unsigned>(std::countr_zero(huge / inner.page_size()));
}

}  // namespace

TlbMmu::TlbMmu(Mmu& inner, bool enabled, FenceMode fence)
    : inner_(inner),
      enabled_(enabled),
      page_shift_(static_cast<unsigned>(std::countr_zero(inner.page_size()))),
      huge_shift_(ResolveHugeShift(inner)),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      fence_(ResolveFence(fence)),
      reader_fences_(fence_ == FenceMode::kFenced),
      name_(std::string("Tlb(") + inner.name() + ")") {
  assert(IsPowerOfTwo(inner.page_size()));
  cpus_ = std::make_unique<CpuSlot[]>(kMaxCpus);
}

TlbMmu::~TlbMmu() {
  assert(gather_depth_ == 0 && "TlbMmu destroyed inside an open gather scope");
  assert(gather_frames_.empty() && "parked frames leaked past the last gather commit");
}

TlbMmu::CpuSlot* TlbMmu::ThisCpuSlow() {
  for (const tlb_internal::ThreadTlbRef& ref : t_refs) {
    if (ref.mmu == this && ref.id == instance_id_) {
      tlb_internal::t_last = ref;
      return static_cast<CpuSlot*>(ref.slot);
    }
  }
  // The binding may have been dropped (the t_refs size cap below), but slot
  // ownership is also recorded in the slot itself: re-find before claiming
  // anew, otherwise every dropped binding would leak a slot and the thread
  // would eventually exhaust all kMaxCpus and bypass the TLB forever.  Only
  // this thread's own prior claim can match (ids are unique and never reused),
  // so relaxed loads suffice — a match reads this thread's own earlier writes.
  const uint64_t tid = ThisThreadTlbId();
  const size_t rehigh = claimed_high_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < rehigh; ++i) {
    if (cpus_[i].owner.load(std::memory_order_relaxed) == tid) {
      tlb_internal::ThreadTlbRef ref{this, instance_id_, &cpus_[i]};
      t_refs.push_back(ref);
      tlb_internal::t_last = ref;
      return &cpus_[i];
    }
  }
  // First access from this thread: claim a slot.  seq_cst so that a shootdown
  // that misses the claim is guaranteed the claimer's later generation read
  // observes the bump (see Shootdown).
  for (size_t i = 0; i < kMaxCpus; ++i) {
    bool expected = false;
    if (cpus_[i].claimed.compare_exchange_strong(expected, true, std::memory_order_seq_cst)) {
      cpus_[i].owner.store(tid, std::memory_order_relaxed);
      // Publish the scan watermark (seq_cst RMW: either a shootdown's scan sees
      // this slot, or our later generation reads see its bump — same argument
      // as the claim itself).
      size_t high = claimed_high_.load(std::memory_order_seq_cst);
      while (high < i + 1 &&
             !claimed_high_.compare_exchange_weak(high, i + 1, std::memory_order_seq_cst)) {
      }
      // Drop bindings to dead incarnations of this address, and cap unbounded
      // growth across many short-lived managers (orphaned slots stay claimed,
      // which is safe: their entries can never hit again in a new instance).
      // Dropping a binding to a still-live instance is also safe: the owner
      // scan above re-finds its claimed slot on the next access.
      std::erase_if(t_refs,
                    [this](const tlb_internal::ThreadTlbRef& r) { return r.mmu == this; });
      if (t_refs.size() > 256) {
        t_refs.clear();
      }
      tlb_internal::ThreadTlbRef ref{this, instance_id_, &cpus_[i]};
      t_refs.push_back(ref);
      tlb_internal::t_last = ref;
      return &cpus_[i];
    }
  }
  return nullptr;  // more concurrent threads than slots: bypass the TLB
}

void TlbMmu::Fill(CpuSlot& cpu, AsId as, uint64_t vpn, FrameIndex frame, Access access,
                  uint64_t gen, bool huge) {
  // Huge fills index and tag by the huge vpn and record the span's first
  // frame; the hit path adds the in-span page offset back on.
  const size_t s = SetIndex(as, vpn);
  Entry* way = ProbeMutable(cpu, as, vpn, huge);
  if (way != nullptr && way->frame == frame && way->gen == gen) {
    // Same translation, re-proven: accumulate the newly demonstrated right.
    // A write translation also proves the inner PTE dirty bit is now set, so
    // later write hits cannot lose dirty information.  (For a wide entry the
    // inner dirty bit is the span's shared bit, so this stays exact.)
    way->prot = way->prot | AccessProt(access);
    way->dirty_ok = way->dirty_ok || access == Access::kWrite;
    return;
  }
  if (way == nullptr) {
    for (size_t w = 0; w < kWays; ++w) {
      if (!cpu.entries[s][w].valid) {
        way = &cpu.entries[s][w];
        break;
      }
    }
  }
  if (way == nullptr) {
    way = &cpu.entries[s][cpu.next_way[s]];
    cpu.next_way[s] = static_cast<uint8_t>((cpu.next_way[s] + 1) % kWays);
  }
  *way = Entry{.vpn = vpn,
               .gen = gen,
               .as = as,
               .frame = frame,
               .prot = AccessProt(access),
               .dirty_ok = access == Access::kWrite,
               .huge = huge,
               .valid = true};
  Bump(cpu.fills);
}

void TlbMmu::Shootdown(AsId as, uint64_t vpn, bool single_page, bool huge_also) {
  // Publish the invalidation first: any translation that starts after this
  // point revalidates against the new generation sum and must miss.  A
  // single-page operation (the software invlpg) bumps only the page slot its
  // (as, vpn) hashes to — widened to the covering huge slot when the mutation
  // split a span; address-space teardown bumps the AS generation, flushing
  // that context (both granules: GenSumHuge includes it) without disturbing
  // other address spaces' entries.
  if (single_page) {
    if (!GatherCondemned(as)) {  // condemned: subsumed by the commit-time AS bump
      gen_[GenIndex(as, vpn)].fetch_add(1, std::memory_order_seq_cst);
      if (huge_also && huge_shift_ != 0) {
        hgen_[GenIndex(as, vpn >> huge_shift_)].fetch_add(1, std::memory_order_seq_cst);
      }
    }
    shootdown_pages_.fetch_add(1, std::memory_order_relaxed);
  } else if (gather_depth_ > 0) {
    // Whole-AS flush inside a gather (teardown path): accumulate into one
    // deferred bump per AS slot instead of bumping per call.
    gather_as_mask_ |= uint64_t{1} << AsGenIndex(as);
  } else {
    as_gen_[AsGenIndex(as)].fetch_add(1, std::memory_order_seq_cst);
  }
  if (gather_depth_ > 0) {
    gather_pending_ = true;  // commit owes the fence
    return;
  }
  FenceAndDrain();
}

void TlbMmu::FenceAndDrain() {
  // The expensive half of the asymmetric barrier (the "IPI").  After this,
  // every reader's epoch store — a plain store the reader never fences — is
  // visible to us, and every reader still short of its generation check will
  // observe the bump (an interrupted load replays after the barrier).
  if (fence_ == FenceMode::kMembarrier) {
    MembarrierAllThreads();
  }
  // Then wait out every CPU currently inside its critical window (odd epoch).
  // A CPU observed at an odd epoch either read the old generation (its access
  // is concurrent with — i.e. ordered before — this mutation, like a store
  // that raced an IPI on real hardware) or the new one; once its epoch moves
  // on, any *later* access revalidates and misses.  This mirrors a hardware
  // inter-processor shootdown: bump, send IPI, spin on acknowledgements.
  const size_t high = claimed_high_.load(std::memory_order_seq_cst);
  for (size_t i = 0; i < high; ++i) {
    CpuSlot& cpu = cpus_[i];
    const uint64_t observed = cpu.epoch.load(std::memory_order_seq_cst);
    if ((observed & 1) == 0) {
      continue;  // quiescent: its next access sees the new generation
    }
    while (cpu.epoch.load(std::memory_order_seq_cst) == observed) {
      std::this_thread::yield();  // bounded: the window only spans a page copy
    }
  }
  shootdowns_.fetch_add(1, std::memory_order_relaxed);
}

void TlbMmu::ShootdownRange(AsId as, uint64_t vpn, size_t count) {
  if (!enabled_ || count == 0) {
    return;
  }
  shootdown_ranges_.fetch_add(1, std::memory_order_relaxed);
  shootdown_pages_.fetch_add(count, std::memory_order_relaxed);
  if (!GatherCondemned(as)) {
    if (count >= kGenSlots) {
      // The run covers every page-generation slot, so per-slot bumps would
      // invalidate everything anyway: one AS-wide bump is strictly cheaper.
      if (gather_depth_ > 0) {
        gather_as_mask_ |= uint64_t{1} << AsGenIndex(as);
      } else {
        as_gen_[AsGenIndex(as)].fetch_add(1, std::memory_order_seq_cst);
      }
    } else {
      // Consecutive vpns hit distinct generation slots (GenIndex xors a
      // constant, preserving low-bit distinctness), so no dedup is needed and
      // each affected slot is bumped exactly once.
      for (size_t i = 0; i < count; ++i) {
        gen_[GenIndex(as, vpn + i)].fetch_add(1, std::memory_order_seq_cst);
      }
    }
  }
  if (gather_depth_ > 0) {
    gather_pending_ = true;
    return;
  }
  FenceAndDrain();
}

void TlbMmu::PublishHugeRange(AsId as, uint64_t hvpn_first, uint64_t hvpn_last) {
  if (GatherCondemned(as)) {
    return;  // subsumed by the commit-time AS bump
  }
  // Consecutive huge vpns hit distinct hgen slots (same GenIndex argument as
  // base runs); a run longer than kGenSlots wraps, and double-bumping a
  // monotonic slot is merely redundant, never wrong.
  for (uint64_t h = hvpn_first; h <= hvpn_last; ++h) {
    hgen_[GenIndex(as, h)].fetch_add(1, std::memory_order_seq_cst);
  }
}

void TlbMmu::FinishRangeShootdown(AsId as, bool any, uint64_t first, uint64_t last,
                                  bool any_huge, uint64_t hfirst, uint64_t hlast) {
  // Publish the huge slots first so the single fence below retires wide
  // entries together with the base run.
  if (any_huge && huge_shift_ != 0) {
    PublishHugeRange(as, hfirst, hlast);
  }
  if (any) {
    ShootdownRange(as, first, last - first + 1);
    return;
  }
  if (any_huge && huge_shift_ != 0) {
    // Only wide entries were invalidated (e.g. the run's pages all resolved
    // through spans with no base PTEs left behind); still owe the fence.
    if (gather_depth_ > 0) {
      gather_pending_ = true;
      return;
    }
    FenceAndDrain();
  }
}

void TlbMmu::BeginGather() {
  if (!enabled_) {
    return;
  }
  ++gather_depth_;
}

void TlbMmu::EndGather() {
  if (!enabled_) {
    return;
  }
  assert(gather_depth_ > 0 && "EndGather without BeginGather");
  if (--gather_depth_ == 0) {
    CommitGather();
  }
}

void TlbMmu::FlushGather() {
  if (enabled_ && gather_depth_ > 0) {
    CommitGather();
  }
}

void TlbMmu::CommitGather() {
  // Publish the deferred whole-AS bumps (teardowns condemn their AS instead
  // of bumping per page; every condemned slot pays exactly one bump here).
  if (gather_as_mask_ != 0) {
    for (size_t slot = 0; slot < kAsGenSlots; ++slot) {
      if ((gather_as_mask_ >> slot) & 1) {
        as_gen_[slot].fetch_add(1, std::memory_order_seq_cst);
      }
    }
    gather_as_mask_ = 0;
    gather_pending_ = true;
  }
  // One fence+drain retires every shootdown issued inside the scope.
  if (gather_pending_) {
    gather_pending_ = false;
    FenceAndDrain();
  }
  // Only now — no stale translation can reach them — release parked frames.
  if (!gather_frames_.empty()) {
    for (const auto& [memory, frame] : gather_frames_) {
      memory->FreeFrame(frame);
    }
    gather_frames_.clear();
  }
}

void TlbMmu::FreeFrameAfterFlush(PhysicalMemory& memory, FrameIndex frame) {
  if (enabled_ && gather_depth_ > 0) {
    gather_frames_.emplace_back(&memory, frame);
    return;
  }
  memory.FreeFrame(frame);
}

void TlbMmu::GatherCondemnAddressSpace(AsId as) {
  if (!enabled_ || gather_depth_ == 0) {
    return;  // nothing to defer to; the eventual DestroyAddressSpace flushes
  }
  gather_as_mask_ |= uint64_t{1} << AsGenIndex(as);
  gather_pending_ = true;
}

Result<FrameIndex> TlbMmu::Miss(CpuSlot& cpu, AsId as, Vaddr va, Access access,
                                FrameBodyRef body) {
  Bump(cpu.misses);
  // ---- walk the real tables (the inner MMU provides its own atomicity) ----
  // Read the generations *before* the walk: if a shootdown lands in between,
  // the filled entry is stale on arrival (its recorded generation mismatches)
  // rather than stale after the shootdown completed.  Both dimensions are read
  // up front because the walk itself tells us which kind of entry to fill.
  const uint64_t vpn = va >> page_shift_;
  const uint64_t gen = GenSum(as, vpn);
  if (huge_shift_ != 0) {
    const uint64_t hvpn = vpn >> huge_shift_;
    const uint64_t hgen = GenSumHuge(as, hvpn);
    MmuTranslateInfo info;
    Result<FrameIndex> frame = inner_.TranslateAndAccessInfo(as, va, access, body, &info);
    if (frame.ok()) {
      if (info.huge) {
        Fill(cpu, as, hvpn, info.huge_frame, access, hgen, /*huge=*/true);
      } else {
        Fill(cpu, as, vpn, *frame, access, gen, /*huge=*/false);
      }
    }
    return frame;
  }
  Result<FrameIndex> frame = inner_.TranslateAndAccess(as, va, access, body);
  if (frame.ok()) {
    Fill(cpu, as, vpn, *frame, access, gen, /*huge=*/false);
  }
  return frame;
}

Result<FrameIndex> TlbMmu::Bypass(AsId as, Vaddr va, Access access, FrameBodyRef body) {
  return inner_.TranslateAndAccess(as, va, access, body);
}

Result<FrameIndex> TlbMmu::TranslateAndAccess(AsId as, Vaddr va, Access access,
                                              FrameBodyRef body) {
  return AccessFast(as, va, access, body);
}

Result<FrameIndex> TlbMmu::Translate(AsId as, Vaddr va, Access access) {
  return AccessFast(as, va, access, NoBody{});
}

Result<AsId> TlbMmu::CreateAddressSpace() { return inner_.CreateAddressSpace(); }

Status TlbMmu::DestroyAddressSpace(AsId as) {
  Status s = inner_.DestroyAddressSpace(as);
  if (s == Status::kOk && enabled_) {
    Shootdown(as, 0, /*single_page=*/false);
  }
  return s;
}

// The mutation wrappers peek at the current entry to decide whether a flush is
// required.  The lookup+mutate pair is not atomic, which is fine: the memory
// managers serialize mutations of any given page under their own lock, and
// concurrent *translations* are exactly what the generation check handles.
//
// A same-frame, non-downgrading re-map deliberately does not shoot down, so a
// cached write entry (dirty_ok) can stay live across it.  That is sound only
// because Mmu::Map preserves the referenced/dirty bits on a same-frame re-map:
// if the re-map wiped the dirty bit, later write hits would never re-set it
// and an actively-written page would look clean to eviction.
Status TlbMmu::Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) {
  bool invalidate = false;
  bool was_huge = false;
  if (enabled_) {
    Result<MmuEntry> old = inner_.Lookup(as, va);
    // A replacing map must flush when it changes the frame (e.g. a COW private
    // copy superseding the ancestor's page) or removes a right; a fresh fill
    // or a pure widening must not.  A map inside a huge span demotes it, and
    // the wide cached entry must ALWAYS die with the span — after the split,
    // Lookup no longer reports huge, so no later base-granular mutation would
    // ever reach the huge slot again and the wide entry would be stale forever.
    was_huge = old.ok() && old->huge;
    invalidate =
        (old.ok() && (old->frame != frame || !ProtAllows(prot, old->prot))) || was_huge;
  }
  Status s = inner_.Map(as, va, frame, prot);
  if (s == Status::kOk && invalidate) {
    Shootdown(as, va >> page_shift_, /*single_page=*/true, /*huge_also=*/was_huge);
  }
  return s;
}

Status TlbMmu::Unmap(AsId as, Vaddr va) {
  bool mapped = false;
  bool was_huge = false;
  if (enabled_) {
    Result<MmuEntry> old = inner_.Lookup(as, va);
    mapped = old.ok();
    was_huge = old.ok() && old->huge;
  }
  Status s = inner_.Unmap(as, va);
  if (s == Status::kOk && mapped) {
    Shootdown(as, va >> page_shift_, /*single_page=*/true, /*huge_also=*/was_huge);
  }
  return s;
}

Result<MmuEntry> TlbMmu::UnmapCollect(AsId as, Vaddr va) {
  // The inner MMU does the atomic remove-and-read; this wrapper only owes the
  // invalidation, exactly as in Unmap (the removed entry doubles as the
  // was-mapped test, and its huge flag tells us the unmap split a span, so
  // the wide cached entry dies with the base one).
  Result<MmuEntry> removed = inner_.UnmapCollect(as, va);
  if (enabled_ && removed.ok()) {
    Shootdown(as, va >> page_shift_, /*single_page=*/true, /*huge_also=*/removed->huge);
  }
  return removed;
}

Status TlbMmu::Protect(AsId as, Vaddr va, Prot prot) {
  bool downgrade = false;
  bool was_huge = false;
  if (enabled_) {
    Result<MmuEntry> old = inner_.Lookup(as, va);
    downgrade = old.ok() && !ProtAllows(prot, old->prot);
    // Even an upgrade demotes a covering span, and the wide entry must die
    // with the span (see Map): later base-granular mutations can no longer
    // reach the huge slot once Lookup stops reporting huge.
    was_huge = old.ok() && old->huge;
  }
  Status s = inner_.Protect(as, va, prot);
  if (s == Status::kOk && (downgrade || was_huge)) {
    Shootdown(as, va >> page_shift_, /*single_page=*/true, /*huge_also=*/was_huge);
  }
  return s;
}

// The range forms mutate the inner tables page by page (the inner MMU has no
// range primitive) but pay for the invalidation once: the mapped sub-run is
// covered by a single ShootdownRange after all inner mutations are in place.
// Publishing after the whole batch is safe for the same reason the per-page
// wrappers' lookup+mutate pair is: mutations of these pages are serialized by
// the calling manager, and a translation racing the batch either misses in the
// inner walk (already unmapped) or is retired by the range shootdown.
Status TlbMmu::UnmapRange(AsId as, Vaddr va, size_t count) {
  if (!enabled_) {
    return inner_.UnmapRange(as, va, count);
  }
  const size_t page = size_t{1} << page_shift_;
  uint64_t first = 0;
  uint64_t last = 0;
  bool any = false;
  uint64_t hfirst = 0;
  uint64_t hlast = 0;
  bool any_huge = false;
  for (size_t i = 0; i < count; ++i) {
    const Vaddr v = va + i * page;
    Result<MmuEntry> old = inner_.Lookup(as, v);
    Status s = inner_.Unmap(as, v);
    if (s != Status::kOk) {
      FinishRangeShootdown(as, any, first, last, any_huge, hfirst, hlast);
      return s;
    }
    if (old.ok()) {
      const uint64_t vpn = v >> page_shift_;
      if (!any) {
        first = vpn;
        any = true;
      }
      last = vpn;
      if (old->huge) {
        // The unmap split a span; its wide cached entry must die with it.
        const uint64_t hvpn = vpn >> huge_shift_;
        if (!any_huge) {
          hfirst = hvpn;
          any_huge = true;
        }
        hlast = hvpn;
      }
    }
  }
  FinishRangeShootdown(as, any, first, last, any_huge, hfirst, hlast);
  return Status::kOk;
}

Status TlbMmu::UnmapRangeCollect(AsId as, Vaddr va, size_t count, uint64_t* dirty_mask) {
  if (!enabled_) {
    return inner_.UnmapRangeCollect(as, va, count, dirty_mask);
  }
  const size_t page = size_t{1} << page_shift_;
  uint64_t mask = 0;
  uint64_t first = 0;
  uint64_t last = 0;
  bool any = false;
  uint64_t hfirst = 0;
  uint64_t hlast = 0;
  bool any_huge = false;
  for (size_t i = 0; i < count && i < 64; ++i) {
    const Vaddr v = va + i * page;
    // Per-page atomic remove-and-read; the run pays one ranged invalidation.
    Result<MmuEntry> removed = inner_.UnmapCollect(as, v);
    if (!removed.ok()) {
      continue;  // range contract: holes are skipped
    }
    if (removed->dirty) {
      mask |= uint64_t{1} << i;
    }
    const uint64_t vpn = v >> page_shift_;
    if (!any) {
      first = vpn;
      any = true;
    }
    last = vpn;
    if (removed->huge) {
      // The collect split a span (the first covered page demotes it; the rest
      // of the run then removes plain base PTEs): kill the wide entry too.
      const uint64_t hvpn = vpn >> huge_shift_;
      if (!any_huge) {
        hfirst = hvpn;
        any_huge = true;
      }
      hlast = hvpn;
    }
  }
  *dirty_mask = mask;
  FinishRangeShootdown(as, any, first, last, any_huge, hfirst, hlast);
  return Status::kOk;
}

Status TlbMmu::ProtectRange(AsId as, Vaddr va, size_t count, Prot prot) {
  if (!enabled_) {
    return inner_.ProtectRange(as, va, count, prot);
  }
  const size_t page = size_t{1} << page_shift_;
  uint64_t first = 0;
  uint64_t last = 0;
  bool any = false;
  uint64_t hfirst = 0;
  uint64_t hlast = 0;
  bool any_huge = false;
  for (size_t i = 0; i < count; ++i) {
    const Vaddr v = va + i * page;
    Result<MmuEntry> old = inner_.Lookup(as, v);
    if (!old.ok()) {
      continue;  // range contract: holes are skipped
    }
    const bool downgrade = !ProtAllows(prot, old->prot);
    Status s = inner_.Protect(as, v, prot);
    if (s != Status::kOk && s != Status::kNotFound) {
      FinishRangeShootdown(as, any, first, last, any_huge, hfirst, hlast);
      return s;
    }
    if (s == Status::kOk) {
      const uint64_t vpn = v >> page_shift_;
      if (downgrade) {
        if (!any) {
          first = vpn;
          any = true;
        }
        last = vpn;
      }
      if (old->huge) {
        // The protect demoted a covering span (even on an upgrade); the wide
        // entry must die with it, under the same single fence as the run.
        const uint64_t hvpn = vpn >> huge_shift_;
        if (!any_huge) {
          hfirst = hvpn;
          any_huge = true;
        }
        hlast = hvpn;
      }
    }
  }
  FinishRangeShootdown(as, any, first, last, any_huge, hfirst, hlast);
  return Status::kOk;
}

Status TlbMmu::MapHuge(AsId as, Vaddr va, FrameIndex frame, Prot prot) {
  if (!enabled_ || huge_shift_ == 0) {
    return inner_.MapHuge(as, va, frame, prot);
  }
  // The wide map absorbs every base translation in the span.  A cached base
  // entry stays correct only if the new wide translation resolves its page to
  // the same frame with no right removed; collect the sub-run of pages where
  // that does not hold, plus whether an existing differing span is replaced.
  const size_t page = size_t{1} << page_shift_;
  const size_t ratio = size_t{1} << huge_shift_;
  uint64_t first = 0;
  uint64_t last = 0;
  bool any = false;
  bool huge_stale = false;
  for (size_t i = 0; i < ratio; ++i) {
    Result<MmuEntry> old = inner_.Lookup(as, va + i * page);
    if (!old.ok()) {
      continue;
    }
    if (old->frame != frame + i || !ProtAllows(prot, old->prot)) {
      const uint64_t vpn = (va + i * page) >> page_shift_;
      if (!any) {
        first = vpn;
        any = true;
      }
      last = vpn;
      if (old->huge) {
        huge_stale = true;
      }
    }
  }
  Status s = inner_.MapHuge(as, va, frame, prot);
  if (s != Status::kOk) {
    return s;
  }
  const uint64_t hvpn = (va >> page_shift_) >> huge_shift_;
  FinishRangeShootdown(as, any, first, last, huge_stale, hvpn, hvpn);
  return s;
}

Status TlbMmu::DemoteHuge(AsId as, Vaddr va) {
  Status s = inner_.DemoteHuge(as, va);
  if (s == Status::kOk && enabled_ && huge_shift_ != 0) {
    // The split base PTEs translate identically, so no base slot moves — but
    // the wide cached entry must be retired now: once the span is gone, no
    // later base-granular mutation would ever bump the huge slot again.
    const uint64_t hvpn = (va >> page_shift_) >> huge_shift_;
    if (!GatherCondemned(as)) {
      hgen_[GenIndex(as, hvpn)].fetch_add(1, std::memory_order_seq_cst);
    }
    shootdown_pages_.fetch_add(1, std::memory_order_relaxed);
    if (gather_depth_ > 0) {
      gather_pending_ = true;
    } else {
      FenceAndDrain();
    }
  }
  return s;
}

Result<MmuEntry> TlbMmu::Lookup(AsId as, Vaddr va) const { return inner_.Lookup(as, va); }

// Clearing the referenced bit does not flush: real TLBs keep accessed bits in
// the page tables, set on the walk, so clock hands racing TLB hits is faithful
// hardware behaviour (eviction then unmaps, which *does* shoot down, and the
// refault re-sets the bit).
Result<bool> TlbMmu::TestAndClearReferenced(AsId as, Vaddr va) {
  return inner_.TestAndClearReferenced(as, va);
}

void TlbMmu::ResetStats() {
  inner_.ResetStats();
  ResetTlbStats();
}

TlbMmu::TlbStats TlbMmu::tlb_stats() const {
  TlbStats out;
  for (size_t i = 0; i < kMaxCpus; ++i) {
    const CpuSlot& cpu = cpus_[i];
    // The hit path only advances the epoch, so hits are derived: lookups
    // (epoch/2, flooring out an in-flight access) minus the explicitly counted
    // misses, relative to the last reset.  Clamp against transient skew while
    // other threads are mid-access.
    const uint64_t lookups = cpu.epoch.load(std::memory_order_relaxed) / 2;
    const uint64_t base = cpu.lookup_base.load(std::memory_order_relaxed);
    const uint64_t misses = cpu.misses.load(std::memory_order_relaxed);
    const uint64_t since_reset = lookups > base ? lookups - base : 0;
    out.hits += since_reset > misses ? since_reset - misses : 0;
    out.huge_hits += cpu.huge_hits.load(std::memory_order_relaxed);
    out.misses += misses;
    out.fills += cpu.fills.load(std::memory_order_relaxed);
  }
  out.shootdowns = shootdowns_.load(std::memory_order_relaxed);
  out.shootdown_pages = shootdown_pages_.load(std::memory_order_relaxed);
  out.shootdown_ranges = shootdown_ranges_.load(std::memory_order_relaxed);
  return out;
}

void TlbMmu::ResetTlbStats() {
  for (size_t i = 0; i < kMaxCpus; ++i) {
    cpus_[i].lookup_base.store(cpus_[i].epoch.load(std::memory_order_relaxed) / 2,
                               std::memory_order_relaxed);
    cpus_[i].misses.store(0, std::memory_order_relaxed);
    cpus_[i].fills.store(0, std::memory_order_relaxed);
    cpus_[i].huge_hits.store(0, std::memory_order_relaxed);
  }
  shootdowns_.store(0, std::memory_order_relaxed);
  shootdown_pages_.store(0, std::memory_order_relaxed);
  shootdown_ranges_.store(0, std::memory_order_relaxed);
}

}  // namespace gvm
