// throughput_smp — multi-threaded fault-storm throughput of the PVM, and the
// 1→64-CPU scaling matrix for the batched-shootdown + frame-magazine work.
//
// N worker threads ("CPUs"), each with its own context/address space and its own
// anonymous segment, run a mixed workload of sequential 8-byte reads, random
// 8-byte writes, touches, and periodic fork-COW episodes (deferred copy of the
// whole working set, dirtying every 4th page of the copy, teardown).  The
// workload is exactly the per-access path the software TLB accelerates and the
// shootdown protocol must keep correct: COW episodes write-protect the source
// (downgrade shootdowns, batched into one fence by the gather) and the teardown
// unmaps en masse (range shootdowns).
//
// Two modes:
//   default      one cell; emits BENCH_throughput_smp.json (or .tlb_off).
//   --scale      the full matrix: threads in {1,2,4,...,64} x mmu in
//                {soft,hash} x fence in {membarrier,fenced}.  One
//                BENCH_throughput_scale.<cell>.json per cell plus a combined
//                BENCH_throughput_scale.json whose counters carry every cell's
//                ops/sec and shootdown/fault ratios (the CI gate input).
//
// Usage: throughput_smp [--threads=4] [--pages=64] [--seconds=1.0]
//                       [--tlb=on|off] [--mmu=soft|hash] [--seed=1]
//                       [--fence=auto|membarrier|fenced]
//                       [--scale] [--cell-seconds=0.4] [--max-threads=64]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/hal/hash_mmu.h"
#include "src/hal/phys_memory.h"
#include "src/hal/soft_mmu.h"
#include "src/hal/tlb.h"
#include "src/pvm/paged_vm.h"
#include "tests/test_util.h"

namespace gvm {
namespace bench {
namespace {

constexpr size_t kPageSize = 4096;
constexpr Vaddr kWorkBase = 0x10000000;
constexpr Vaddr kForkBase = 0x80000000;
constexpr int kBatch = 64;  // ops timed per latency sample

struct Config {
  int threads = 4;
  size_t pages = 64;       // working-set pages per thread
  double seconds = 1.0;
  bool tlb = true;
  std::string mmu = "soft";
  uint64_t seed = 1;
  int cow_every = 8192;    // simple ops between fork-COW episodes
  TlbMmu::FenceMode fence = TlbMmu::FenceMode::kAuto;
};

struct WorkerResult {
  uint64_t ops = 0;
  uint64_t episodes = 0;
  uint64_t errors = 0;
  std::vector<double> samples_ns;  // per-op latency, batch-averaged
};

// Aggregate metrics of one cell, for the scale matrix and the JSON writers.
struct CellResult {
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double hit_rate = 0;
  uint64_t ops = 0;
  uint64_t episodes = 0;
  uint64_t errors = 0;
  Cpu::Stats cpu;
  MmStats mm;
  PhysicalMemory::Stats frames;
  const char* fence_name = "?";
  // Granule geometry of the cell's MMU, captured once at setup so every JSON
  // emitted from this cell is self-describing (bench_util RecordPageSizes).
  size_t base_page_size = kPageSize;
  size_t huge_page_size = 0;
  bool setup_failed = false;
};

const char* FenceName(TlbMmu::FenceMode mode) {
  switch (mode) {
    case TlbMmu::FenceMode::kFenced:
      return "fenced";
    case TlbMmu::FenceMode::kMembarrier:
      return "membarrier";
    default:
      return "auto";
  }
}

uint64_t NextRand(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// Frame budget for a run.  Three working sets per thread (the live set, the
// in-flight COW copy, and history pages awaiting collapse) plus the frames the
// per-CPU magazines may hold out of the shared pool at any instant — sized
// from the magazine geometry, not guessed — plus fixed slack for gather-parked
// frames during teardown.  The old `threads*pages*3 + 256` formula ignored the
// magazine capture and under-provisioned wide runs.
size_t FrameBudget(int threads, size_t pages) {
  const size_t working = static_cast<size_t>(threads) * pages * 3;
  const size_t magazines =
      PhysicalMemory::kMagazineSlots * 32;  // worst-case auto capacity per slot
  return working + magazines + 256;
}

// One fork-COW episode: deferred-copy the whole working set, dirty every 4th
// page of the copy (materializing private pages), read one back, tear down.
void ForkCowEpisode(MemoryManager& mm, Context& ctx, Cache& src, const Config& cfg,
                    uint64_t iter, WorkerResult& result) {
  Result<Cache*> copy = mm.CacheCreate(nullptr, "fork");
  if (!copy.ok()) {
    ++result.errors;
    return;
  }
  const size_t bytes = cfg.pages * kPageSize;
  if (src.CopyTo(**copy, 0, 0, bytes, CopyPolicy::kHistory) != Status::kOk) {
    ++result.errors;
    (void)(*copy)->Destroy();
    return;
  }
  Result<Region*> region =
      mm.RegionCreate(ctx, kForkBase, bytes, Prot::kReadWrite, **copy, 0);
  if (!region.ok()) {
    ++result.errors;
    (void)(*copy)->Destroy();
    return;
  }
  AsId as = ctx.address_space();
  for (size_t p = 0; p < cfg.pages; p += 4) {
    uint64_t value = iter + p;
    if (mm.cpu().Write(as, kForkBase + p * kPageSize, &value, sizeof(value)) != Status::kOk) {
      ++result.errors;
    }
  }
  uint64_t check = 0;
  (void)mm.cpu().Read(as, kForkBase + (cfg.pages / 2) * kPageSize, &check, sizeof(check));
  (void)(*region)->Destroy();
  (void)(*copy)->Destroy();
  ++result.episodes;
}

void Worker(int tid, MemoryManager& mm, Context& ctx, Cache& cache, const Config& cfg,
            std::atomic<int>& ready, std::atomic<bool>& go, std::atomic<bool>& stop,
            std::atomic<uint64_t>& setup_errors, WorkerResult& result) {
  using Clock = std::chrono::steady_clock;
  AsId as = ctx.address_space();
  uint64_t rng = cfg.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(tid) + 1;
  // Materialize the working set (demand zero-fill) before the clock starts.
  // A failure here is a frame-budget bug, not workload noise: count it
  // separately so the run can fail fast instead of publishing garbage.
  for (size_t p = 0; p < cfg.pages; ++p) {
    uint64_t value = p;
    if (mm.cpu().Write(as, kWorkBase + p * kPageSize, &value, sizeof(value)) != Status::kOk) {
      setup_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ready.fetch_add(1, std::memory_order_release);
  while (!go.load(std::memory_order_acquire) && !stop.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
  size_t cursor = 0;
  // cfg.pages is rounded to a power of two by RunCell(), so the working set can
  // be walked with masks instead of divisions on the measured path.
  const size_t span_mask = cfg.pages * kPageSize - 1;
  const size_t page_mask = cfg.pages - 1;
  uint64_t since_episode = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    auto start = Clock::now();
    for (int b = 0; b < kBatch; ++b) {
      const uint64_t r = NextRand(rng);
      const uint64_t kind = r & 1023;  // <717: 70% read, <922: 20% write, else touch
      Status s = Status::kOk;
      if (kind < 717) {
        // Sequential read walk, 64-byte stride (the TLB-hit-dominated stream).
        cursor = (cursor + 64) & span_mask;
        uint64_t value;
        s = mm.cpu().Read(as, kWorkBase + cursor, &value, sizeof(value));
      } else if (kind < 922) {
        // Random 8-byte write within the working set.
        const size_t page = (r >> 10) & page_mask;
        const size_t offset = (r >> 32) & (kPageSize - sizeof(uint64_t));  // 8-aligned
        uint64_t value = r;
        s = mm.cpu().Write(as, kWorkBase + page * kPageSize + offset, &value, sizeof(value));
      } else {
        // Touch (translate-only path).
        const size_t page = (r >> 10) & page_mask;
        s = mm.cpu().Touch(as, kWorkBase + page * kPageSize, Access::kRead);
      }
      if (s != Status::kOk) {
        ++result.errors;
      }
    }
    auto end = Clock::now();
    result.ops += kBatch;
    since_episode += kBatch;
    if (result.samples_ns.size() < 50000) {
      result.samples_ns.push_back(
          std::chrono::duration<double, std::nano>(end - start).count() / kBatch);
    }
    if (since_episode >= static_cast<uint64_t>(cfg.cow_every)) {
      since_episode = 0;
      ForkCowEpisode(mm, ctx, cache, cfg, result.ops, result);
    }
  }
}

CellResult RunCell(Config cfg) {
  // Round the working set to a power of two so the worker's hot loop can use
  // masks (see Worker).
  size_t pow2 = 1;
  while (pow2 < cfg.pages) {
    pow2 <<= 1;
  }
  cfg.pages = pow2;
  PhysicalMemory memory(FrameBudget(cfg.threads, cfg.pages), kPageSize);
  std::unique_ptr<Mmu> mmu;
  if (cfg.mmu == "hash") {
    mmu = std::make_unique<HashMmu>(kPageSize);
  } else {
    mmu = std::make_unique<SoftMmu>(kPageSize);
  }
  PagedVm::Options options;
  options.enable_tlb = cfg.tlb;
  options.shootdown_fence = cfg.fence;
  options.pullin_cluster_pages = 8;
  PagedVm vm(memory, *mmu, options);
  TestSwapRegistry registry(kPageSize);
  vm.BindSegmentRegistry(&registry);

  // Per-thread context (its own hardware address space) + anonymous segment.
  // Hoisted out of the setup loop: the granule geometry is per-MMU, not
  // per-cell-thread — query it once instead of per context.
  const size_t ws_bytes = cfg.pages * vm.mmu().page_size();
  std::vector<Context*> contexts;
  std::vector<Cache*> caches;
  for (int t = 0; t < cfg.threads; ++t) {
    Context* ctx = *vm.ContextCreate();
    Cache* cache = *vm.CacheCreate(nullptr, "ws" + std::to_string(t));
    Region* region = *vm.RegionCreate(*ctx, kWorkBase, ws_bytes,
                                      Prot::kReadWrite, *cache, 0);
    (void)region;
    contexts.push_back(ctx);
    caches.push_back(cache);
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> setup_errors{0};
  std::vector<WorkerResult> results(static_cast<size_t>(cfg.threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back(Worker, t, std::ref(vm), std::ref(*contexts[static_cast<size_t>(t)]),
                         std::ref(*caches[static_cast<size_t>(t)]), std::cref(cfg),
                         std::ref(ready), std::ref(go), std::ref(stop), std::ref(setup_errors),
                         std::ref(results[static_cast<size_t>(t)]));
  }
  // Wait for every worker to finish materializing, then start the clock: the
  // measured window contains only the steady-state workload.
  while (ready.load(std::memory_order_acquire) < cfg.threads) {
    std::this_thread::yield();
  }
  CellResult cell;
  cell.fence_name = FenceName(vm.tlb().fence_mode());
  cell.base_page_size = vm.mmu().page_size();
  cell.huge_page_size = vm.mmu().huge_page_size();
  if (setup_errors.load(std::memory_order_relaxed) > 0) {
    // Fail fast: the frame budget was wrong.  Publishing throughput for a run
    // that could not even materialize its working set would be a lie.
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& th : workers) {
      th.join();
    }
    std::fprintf(stderr,
                 "throughput_smp: FATAL: %llu working-set pages failed to materialize "
                 "(threads=%d pages=%zu frames=%zu magazine_capacity=%zu); "
                 "the frame budget in FrameBudget() is under-provisioned\n",
                 static_cast<unsigned long long>(setup_errors.load()), cfg.threads, cfg.pages,
                 memory.frame_count(), memory.magazine_capacity());
    cell.setup_failed = true;
    return cell;
  }
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : workers) {
    th.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::vector<double> samples;
  for (const WorkerResult& r : results) {
    cell.ops += r.ops;
    cell.episodes += r.episodes;
    cell.errors += r.errors;
    samples.insert(samples.end(), r.samples_ns.begin(), r.samples_ns.end());
  }
  cell.ops_per_sec = static_cast<double>(cell.ops) / elapsed;
  cell.p50_ns = Percentile(samples, 0.5);
  cell.p99_ns = Percentile(samples, 0.99);

  cell.cpu = vm.cpu().SnapshotStats();
  cell.mm = vm.stats();
  cell.frames = vm.memory().stats();
  cell.hit_rate = cell.cpu.tlb_hits + cell.cpu.tlb_misses > 0
                      ? static_cast<double>(cell.cpu.tlb_hits) /
                            static_cast<double>(cell.cpu.tlb_hits + cell.cpu.tlb_misses)
                      : 0.0;

  std::printf("throughput_smp: threads=%d pages=%zu mmu=%s tlb=%s fence=%s\n", cfg.threads,
              cfg.pages, cfg.mmu.c_str(), cfg.tlb ? "on" : "off", cell.fence_name);
  std::printf("  ops=%llu (%.0f ops/sec)  p50=%s p99=%s  cow_episodes=%llu errors=%llu\n",
              static_cast<unsigned long long>(cell.ops), cell.ops_per_sec,
              FormatNs(cell.p50_ns).c_str(), FormatNs(cell.p99_ns).c_str(),
              static_cast<unsigned long long>(cell.episodes),
              static_cast<unsigned long long>(cell.errors));
  std::printf("  tlb_hits=%llu tlb_misses=%llu shootdowns=%llu shootdown_pages=%llu "
              "shootdown_ranges=%llu\n",
              static_cast<unsigned long long>(cell.cpu.tlb_hits),
              static_cast<unsigned long long>(cell.cpu.tlb_misses),
              static_cast<unsigned long long>(cell.cpu.tlb_shootdowns),
              static_cast<unsigned long long>(cell.cpu.tlb_shootdown_pages),
              static_cast<unsigned long long>(cell.cpu.tlb_shootdown_ranges));
  std::printf("  tlb_hit_rate=%.4f magazine_hits=%llu refills=%llu drains=%llu steals=%llu\n",
              cell.hit_rate, static_cast<unsigned long long>(cell.frames.magazine_hits),
              static_cast<unsigned long long>(cell.frames.magazine_refills),
              static_cast<unsigned long long>(cell.frames.magazine_drains),
              static_cast<unsigned long long>(cell.frames.magazine_steals));

  // Teardown (exercises the teardown shootdown path too).
  for (int t = 0; t < cfg.threads; ++t) {
    (void)caches[static_cast<size_t>(t)]->Destroy();
    (void)contexts[static_cast<size_t>(t)]->Destroy();
  }
  return cell;
}

void AddCellCounters(BenchJson& json, const CellResult& cell) {
  json.Counter("ops", cell.ops);
  json.Counter("cow_episodes", cell.episodes);
  json.Counter("op_errors", cell.errors);
  json.Counter("page_faults", cell.mm.page_faults);
  json.Counter("cow_copies", cell.mm.cow_copies);
  json.Counter("cpu_faults_taken", cell.cpu.faults_taken);
  json.Counter("tlb_hits", cell.cpu.tlb_hits);
  json.Counter("tlb_misses", cell.cpu.tlb_misses);
  json.Counter("tlb_shootdowns", cell.cpu.tlb_shootdowns);
  json.Counter("tlb_shootdown_pages", cell.cpu.tlb_shootdown_pages);
  json.Counter("tlb_shootdown_ranges", cell.cpu.tlb_shootdown_ranges);
  json.Counter("magazine_hits", cell.frames.magazine_hits);
  json.Counter("magazine_refills", cell.frames.magazine_refills);
  json.Counter("magazine_drains", cell.frames.magazine_drains);
  json.Counter("magazine_steals", cell.frames.magazine_steals);
}

int RunSingle(const Config& cfg) {
  CellResult cell = RunCell(cfg);
  if (cell.setup_failed) {
    return 2;
  }
  BenchJson json(cfg.tlb ? "throughput_smp" : "throughput_smp.tlb_off");
  json.Config("threads", static_cast<uint64_t>(cfg.threads));
  json.Config("pages_per_thread", static_cast<uint64_t>(cfg.pages));
  json.Config("seconds", static_cast<uint64_t>(cfg.seconds * 1000));  // milliseconds
  json.Config("tlb", cfg.tlb);
  json.Config("mmu", cfg.mmu);
  json.Config("shootdown_fence", std::string(cell.fence_name));
  json.Config("seed", cfg.seed);
  json.Config("page_size", static_cast<uint64_t>(kPageSize));
  json.Config("base_page_size", static_cast<uint64_t>(cell.base_page_size));
  json.Config("huge_page_size", static_cast<uint64_t>(cell.huge_page_size));
  json.SetThroughput(cell.ops_per_sec);
  json.SetLatency(cell.p50_ns, cell.p99_ns);
  AddCellCounters(json, cell);
  json.WriteFile();
  return cell.errors == 0 ? 0 : 1;
}

// The scaling matrix: threads x mmu x fence.  Emits one JSON per cell plus the
// combined BENCH_throughput_scale.json that the CI gate and EXPERIMENTS.md
// read: per-cell ops/sec and shootdowns-per-1k-faults as flat counters keyed
// `<metric>.t<threads>.<mmu>.<fence>`, with the host's true core count in the
// config (a 1-core host timeshares 64 workers; the gate must know that).
int RunScale(const Config& base, double cell_seconds, int max_threads) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) {
    thread_counts.push_back(t);
  }
  const std::vector<std::string> mmus = {"soft", "hash"};
  const std::vector<TlbMmu::FenceMode> fences = {TlbMmu::FenceMode::kMembarrier,
                                                 TlbMmu::FenceMode::kFenced};

  BenchJson combined("throughput_scale");
  combined.Config("pages_per_thread", static_cast<uint64_t>(base.pages));
  combined.Config("cell_seconds_ms", static_cast<uint64_t>(cell_seconds * 1000));
  combined.Config("seed", base.seed);
  combined.Config("page_size", static_cast<uint64_t>(kPageSize));
  // Hoisted out of the cell loop: the granule geometry is fixed for the whole
  // matrix (both MMU kinds carry the default second granule), so probe it once
  // here instead of re-deriving it per cell setup.
  {
    const SoftMmu probe(kPageSize);
    combined.Config("base_page_size", static_cast<uint64_t>(probe.page_size()));
    combined.Config("huge_page_size", static_cast<uint64_t>(probe.huge_page_size()));
  }
  combined.Config("hardware_concurrency", static_cast<uint64_t>(hw));
  combined.Config("max_threads", static_cast<uint64_t>(max_threads));

  int failures = 0;
  double best_ops = 0;
  for (const std::string& mmu : mmus) {
    for (TlbMmu::FenceMode fence : fences) {
      for (int threads : thread_counts) {
        Config cfg = base;
        cfg.threads = threads;
        cfg.seconds = cell_seconds;
        cfg.mmu = mmu;
        cfg.fence = fence;
        CellResult cell = RunCell(cfg);
        if (cell.setup_failed) {
          ++failures;
          continue;
        }
        const std::string tag =
            "t" + std::to_string(threads) + "." + mmu + "." + cell.fence_name;
        BenchJson json("throughput_scale." + tag);
        json.Config("threads", static_cast<uint64_t>(threads));
        json.Config("pages_per_thread", static_cast<uint64_t>(cfg.pages));
        json.Config("base_page_size", static_cast<uint64_t>(cell.base_page_size));
        json.Config("huge_page_size", static_cast<uint64_t>(cell.huge_page_size));
        json.Config("mmu", mmu);
        json.Config("shootdown_fence", std::string(cell.fence_name));
        json.Config("hardware_concurrency", static_cast<uint64_t>(hw));
        json.SetThroughput(cell.ops_per_sec);
        json.SetLatency(cell.p50_ns, cell.p99_ns);
        AddCellCounters(json, cell);
        json.WriteFile();

        combined.Counter("ops_per_sec." + tag, static_cast<uint64_t>(cell.ops_per_sec));
        combined.Counter("hit_rate_bp." + tag,
                         static_cast<uint64_t>(cell.hit_rate * 10000));  // basis points
        const uint64_t faults = cell.cpu.faults_taken > 0 ? cell.cpu.faults_taken : 1;
        combined.Counter("shootdowns_per_1k_faults." + tag,
                         cell.cpu.tlb_shootdowns * 1000 / faults);
        combined.Counter("shootdown_pages." + tag, cell.cpu.tlb_shootdown_pages);
        combined.Counter("shootdown_ranges." + tag, cell.cpu.tlb_shootdown_ranges);
        combined.Counter("magazine_hits." + tag, cell.frames.magazine_hits);
        if (cell.errors > 0) {
          ++failures;
        }
        if (cell.ops_per_sec > best_ops) {
          best_ops = cell.ops_per_sec;
        }
      }
    }
  }
  combined.SetThroughput(best_ops);  // headline: best cell in the matrix
  combined.WriteFile();
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace gvm

int main(int argc, char** argv) {
  gvm::bench::Config cfg;
  bool scale = false;
  double cell_seconds = 0.4;
  int max_threads = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg]() { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--threads=", 0) == 0) {
      cfg.threads = std::stoi(value());
    } else if (arg.rfind("--pages=", 0) == 0) {
      cfg.pages = std::stoul(value());
    } else if (arg.rfind("--seconds=", 0) == 0) {
      cfg.seconds = std::stod(value());
    } else if (arg.rfind("--tlb=", 0) == 0) {
      cfg.tlb = value() != "off";
    } else if (arg.rfind("--mmu=", 0) == 0) {
      cfg.mmu = value();
    } else if (arg.rfind("--seed=", 0) == 0) {
      cfg.seed = std::stoull(value());
    } else if (arg.rfind("--cow-every=", 0) == 0) {
      cfg.cow_every = std::stoi(value());
    } else if (arg.rfind("--fence=", 0) == 0) {
      const std::string fence = value();
      if (fence == "membarrier") {
        cfg.fence = gvm::TlbMmu::FenceMode::kMembarrier;
      } else if (fence == "fenced") {
        cfg.fence = gvm::TlbMmu::FenceMode::kFenced;
      } else if (fence == "auto") {
        cfg.fence = gvm::TlbMmu::FenceMode::kAuto;
      } else {
        std::fprintf(stderr, "unknown fence mode: %s\n", fence.c_str());
        return 2;
      }
    } else if (arg == "--scale") {
      scale = true;
    } else if (arg.rfind("--cell-seconds=", 0) == 0) {
      cell_seconds = std::stod(value());
    } else if (arg.rfind("--max-threads=", 0) == 0) {
      max_threads = std::stoi(value());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (scale) {
    return gvm::bench::RunScale(cfg, cell_seconds, max_threads);
  }
  return gvm::bench::RunSingle(cfg);
}
