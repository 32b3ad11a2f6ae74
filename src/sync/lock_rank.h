// Runtime lock-rank validation — the dynamic half of the lock discipline.
//
// Clang Thread Safety Analysis (annotated_mutex.h) proves *which* lock guards
// *what* at compile time, but it cannot express cross-instance ordering: two
// MMU shards of equal rank, a manager lock taken inside an upcall that should
// have dropped it, or a dynamic acquisition order that deadlocks only under a
// particular interleaving.  This module checks those at runtime in debug
// builds: every annotated mutex carries a Rank, each thread keeps a stack of
// the locks it holds, and an acquisition that does not strictly increase the
// rank aborts the process *before* blocking — with both the stack that
// acquired the conflicting lock and the stack attempting the new one — so an
// inversion is diagnosed at its first occurrence instead of hanging as a
// one-in-a-thousand deadlock.
//
// Enforcement defaults to on in debug builds (NDEBUG not defined) and off in
// optimized builds; the GVM_LOCK_RANK environment variable (0/1) and
// SetEnforced() override in both directions.  When enforcement is off the
// per-acquisition cost is one relaxed atomic load.
#ifndef GVM_SRC_SYNC_LOCK_RANK_H_
#define GVM_SRC_SYNC_LOCK_RANK_H_

namespace gvm {
namespace lock_rank {

// The global lock hierarchy: a thread may only acquire locks of strictly
// increasing rank.  Ranks are spaced so future subsystems can slot between
// existing levels.  See DESIGN.md section 10 for the full capability table.
enum class Rank : int {
  // Exempt from ordering (still checked for recursive acquisition).  Used by
  // ad-hoc test mutexes that have no place in the kernel hierarchy.
  kUnranked = -1,
  // SegmentManager::mu_ (entries, mapper table, RPC stats).  Below every other
  // lock: manager code calls onward into mapper stores (kClient), IPC (kIpc)
  // and the memory managers (kMmManager) while holding it — and is never
  // entered with any of those held (PVM upcalls drop the manager lock first).
  kSegmentManager = 4,
  // MapperServer::serve_mu_: serializes request dispatch into one mapper
  // instance (the in-process analogue of the serve thread).  Dispatch calls
  // into the mapper's backing store (kClient) and IPC (kIpc).  Mappers that
  // synchronize internally (the DSM coherent mapper, whose recalls nest
  // servers across sites) bypass this lock entirely — see
  // Mapper::thread_safe_dispatch().
  kMapperServe = 6,
  // The DSM home directory (per-segment owner/sharer tables and the segment
  // registry).  Entered only from coherent-mapper upcall context with no
  // kernel lock held, and held across appends to the directory WAL (kClient)
  // — never across a network send, whose delivery re-enters remote kernels.
  kDsmDirectory = 7,
  // SimNet link state (sequence numbers, dedup caches, partitions, counters).
  // Taken briefly inside SimNet::Call; always released before a message
  // handler runs (handlers recall into remote sites' kernels, whose locks
  // rank both above and below this one).
  kDsmNet = 8,
  // Mapper clients and test segment drivers: invoked via upcalls with every
  // kernel lock dropped, and may legitimately re-enter the managers below.
  kClient = 10,
  // Nucleus IPC port table.  Deliberately *below* the manager lock: blocking
  // on an IPC queue while holding a manager lock would stall every fault in
  // the system, so the validator treats it as an inversion.
  kIpc = 20,
  // The manager-wide mutex of BaseMm (PVM / ShadowVm / MinimalVm).
  kMmManager = 30,
  // PhysicalMemory per-CPU frame magazines.  Above kMmManager (frame
  // alloc/free runs under a manager lock) and below the global free list,
  // which a magazine locks while refilling/draining.  Never two magazines at
  // once on one thread (equal rank trips the validator): the raid path in
  // AllocateFrame releases the thread's own magazine before probing victims
  // one at a time.
  kFrameMagazine = 32,
  // PhysicalMemory's shared free list — the slow path magazines batch against.
  kFrameFreeList = 34,
  // The paging daemon's wake latch (PagedVm pageout thread, DESIGN.md §15).
  // Above the frame locks so PhysicalMemory's low-water hook may kick the
  // daemon right after an allocation, and above kMmManager so the manager can
  // kick it while holding mu_; the daemon itself never holds the latch while
  // acquiring any other lock.
  kPageoutDaemon = 36,
  // MmuCore per-address-space lock shards (every port).  Acquired under the
  // manager lock on the table-update path and bare on the CPU access path;
  // never two shards at once (equal rank trips the validator).
  kMmuShard = 40,
  // SleepQueue's internal waiter table (taken inside Wait/WakeAll while the
  // caller's manager lock is held).
  kSleepQueueTable = 50,
  // FaultInjector plan/counter state: Check() is called from allocation and
  // I/O sites under any of the locks above.
  kFaultInjector = 60,
  // Logging is a leaf: GVM_LOG can fire under any lock in the system.
  kLog = 70,
};

// Whether violations are currently being checked and aborted on.
bool Enforced();
// Force enforcement on or off (overrides the build-type/environment default).
// Tests force it on so death tests work in optimized builds too.
void SetEnforced(bool on);

// Called by Mutex/SharedMutex immediately *before* blocking on the underlying
// lock: validates the acquisition against this thread's held stack (aborting
// on rank inversion or recursive acquisition) and pushes the new lock.
void BeforeAcquire(const void* mu, Rank rank, const char* name);
// Called after the underlying unlock (or before a CondVar wait releases the
// mutex): pops `mu` from this thread's held stack.
void OnRelease(const void* mu);
// Aborts (when enforced) unless this thread's held stack contains `mu`.
// Backs Mutex::AssertHeld — the runtime teeth behind "caller must hold".
void AssertHeld(const void* mu, const char* name);

// Number of locks the calling thread currently holds (tests/diagnostics).
int HeldCount();

}  // namespace lock_rank
}  // namespace gvm

#endif  // GVM_SRC_SYNC_LOCK_RANK_H_
