#include "cpp/workloads.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

using gvm::Actor;
using gvm::AsId;
using gvm::Pid;
using gvm::ProcessLayout;
using gvm::Prot;
using gvm::Result;
using gvm::Status;
using gvm::Vaddr;
using gvm::VmAssembler;
using gvm::VmOp;

// splitmix64: every input below is a pure function of the run's seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

bool Fail(std::string* error, const std::string& what, Status status) {
  *error = what + ": " + std::string(gvm::StatusName(status));
  return false;
}

bool Fail(std::string* error, const std::string& what) {
  *error = what;
  return false;
}

// ---------------------------------------------------------------------------
// forkexec: the build-farm fork/exec storm (paper section 5.1.5).
// ---------------------------------------------------------------------------

class ForkExec final : public Workload {
 public:
  static constexpr size_t kShellDataPages = 64;
  static constexpr size_t kShellDirtyPages = 40;
  static constexpr size_t kChildWrites = 4;
  static constexpr size_t kCcDataPages = 24;
  static constexpr size_t kObjPages = 8;  // the 64 KB "object file"
  static constexpr size_t kObjBytes = kObjPages * kPage;
  static constexpr size_t kStackPages = 2;
  static constexpr Vaddr kObjBase = 0x20000000;  // the shell's per-op receive buffer
  static constexpr size_t kInputs = 4096;
  static constexpr int kWarmupOps = 1000;
  static constexpr uint64_t kRunSteps = 10000;

  size_t frames() const override { return 2048; }
  int cpus() const override { return 1; }
  uint64_t rss_ops() const override { return 20000; }
  size_t MaxSpansPerOp() const override { return 8192; }
  std::vector<std::string> MechanismCounters() const override {
    return {"pvm.history_pushes", "pvm.per_page_stubs", "seg.cache_hits"};
  }

  bool Setup(World& world, uint64_t seed, std::string* error) override {
    world_ = &world;
    tracer_ = world.tracer();
    Rng rng(seed ^ 0x666f726b65786563ull);
    gvm::ProcessManager& pm = world.pm();

    // /bin/cc's initialized data is the seeded object-file template.
    obj_template_.resize(kObjBytes);
    for (size_t i = 0; i < kObjBytes; i += 8) {
      const uint64_t word = rng.Next();
      std::memcpy(obj_template_.data() + i, &word, 8);
    }
    Status s = pm.InstallProgram("/bin/cc", CcProgram(), obj_template_, kCcDataPages * kPage,
                                 kStackPages * kPage);
    if (s != Status::kOk) {
      return Fail(error, "install /bin/cc", s);
    }
    VmAssembler sh;
    sh.Emit(VmOp::kHalt);
    s = pm.InstallProgram("/bin/sh", sh, {}, kShellDataPages * kPage, kStackPages * kPage);
    if (s != Status::kOk) {
      return Fail(error, "install /bin/sh", s);
    }

    Result<Pid> shell = pm.Spawn("/bin/sh");
    if (!shell.ok()) {
      return Fail(error, "spawn /bin/sh", shell.status());
    }
    shell_ = *shell;
    shell_actor_ = pm.Find(shell_)->actor;
    world.Own(shell_actor_);
    // The shell's dirty pages hold seeded words; shell_data_ mirrors them.
    shell_data_.resize(kShellDirtyPages * kWordsPerPage);
    for (uint64_t& word : shell_data_) {
      word = rng.Next();
    }
    s = world.cpu().Write(shell_actor_->address_space(), DataPage(0), shell_data_.data(),
                          shell_data_.size() * 8);
    if (s != Status::kOk) {
      return Fail(error, "dirty shell data", s);
    }
    port_ = world.nucleus().ipc().PortCreate();

    inputs_.resize(kInputs);
    // Every op touches kChildWrites + 1 distinct dirty pages (the job-table
    // page last), so every op does the same work whatever the seed.
    for (OpInput& in : inputs_) {
      uint32_t picked[kChildWrites + 1];
      for (size_t j = 0; j <= kChildWrites; ++j) {
        bool fresh = false;
        while (!fresh) {
          picked[j] = static_cast<uint32_t>(rng.Below(kShellDirtyPages));
          fresh = std::find(picked, picked + j, picked[j]) == picked + j;
        }
      }
      for (size_t j = 0; j < kChildWrites; ++j) {
        in.pages[j] = picked[j];
        in.write_slots[j] = static_cast<uint32_t>(rng.Below(kWordsPerPage));
        in.read_slots[j] = static_cast<uint32_t>(
            (in.write_slots[j] + 1 + rng.Below(kWordsPerPage - 1)) % kWordsPerPage);
        in.values[j] = rng.Next();
      }
      in.job_page = picked[kChildWrites];
      in.job_slot = static_cast<uint32_t>(rng.Below(kWordsPerPage));
      in.job_value = rng.Next();
      in.tag = 1 + static_cast<int64_t>(rng.Below(1u << 24));
    }
    received_.resize(kObjBytes);
    for (int op = 0; op < kWarmupOps; ++op) {
      if (!RunOp(static_cast<uint64_t>(op), error)) {
        return false;
      }
    }
    return true;
  }

  bool RunOp(uint64_t op, std::string* error) override {
    const OpInput& in = inputs_[op % kInputs];
    gvm::ProcessManager& pm = world_->pm();
    gvm::Cpu& cpu = world_->cpu();
    const AsId shell_as = shell_actor_->address_space();

    Result<Pid> child = Traced(tracer_, kMixFork, [&] { return pm.Fork(shell_); });
    if (!child.ok()) {
      return Fail(error, "fork", child.status());
    }
    gvm::Process* proc = pm.Find(*child);
    const bool ran = RecordJob(in, *proc, error) && RunChild(op, in, *child, *proc, error);
    // cc halts instead of exiting so the object file can leave its address
    // space first (MIX has no IPC system call); its exit is issued here, with
    // the r0 it computed as the status.
    const int status = ran ? static_cast<int>(proc->vm.regs[0]) : -1;
    Result<std::pair<Pid, int>> waited =
        Traced(tracer_, kMixWait, [&]() -> Result<std::pair<Pid, int>> {
          Status s = pm.Exit(*child, status);
          if (s != Status::kOk) {
            return s;
          }
          return pm.Wait(shell_);
        });
    if (!ran) {
      return false;
    }
    if (!waited.ok()) {
      return Fail(error, "wait", waited.status());
    }
    // cc's r0: the sum of tag + i over its kCcDataPages stores.
    const int expected =
        static_cast<int>(kCcDataPages * in.tag + kCcDataPages * (kCcDataPages - 1) / 2);
    if (waited->first != *child || waited->second != expected) {
      std::ostringstream msg;
      msg << "wait returned pid " << waited->first << " status " << waited->second
          << ", expected pid " << *child << " status " << expected;
      return Fail(error, msg.str());
    }
    // The shell's own copy is untouched by the child's COW writes.
    for (size_t j = 0; j < kChildWrites; ++j) {
      uint64_t got = 0;
      Status s = Traced(tracer_, kCpuAccess, [&] {
        return cpu.Read(shell_as, Word(in.pages[j], in.write_slots[j]), &got, 8);
      });
      if (s != Status::kOk || got != Shadow(in.pages[j], in.write_slots[j])) {
        return Fail(error, "shell data page changed under the child's COW write");
      }
    }
    return true;
  }

 private:
  struct OpInput {
    uint32_t pages[kChildWrites] = {};
    uint32_t write_slots[kChildWrites] = {};  // word the child writes
    uint32_t read_slots[kChildWrites] = {};   // another word of that page it reads
    uint64_t values[kChildWrites] = {};
    uint32_t job_page = 0;  // the shell's job-table entry, written after fork
    uint32_t job_slot = 0;
    uint64_t job_value = 0;
    int64_t tag = 0;
  };

  static constexpr size_t kWordsPerPage = kPage / 8;

  static Vaddr DataPage(size_t p) { return ProcessLayout::kDataBase + p * kPage; }
  static Vaddr Word(size_t page, size_t slot) { return DataPage(page) + slot * 8; }
  uint64_t& Shadow(size_t page, size_t slot) { return shell_data_[page * kWordsPerPage + slot]; }

  // cc: writes tag+i at the start of each of its 24 data pages, touches two
  // stack pages, and halts with r0 = the sum of what it wrote.  r1 carries
  // the per-op tag (the benchmark's stand-in for argv).
  static VmAssembler CcProgram() {
    VmAssembler a;
    a.Li32(2, static_cast<uint32_t>(ProcessLayout::kDataBase));
    a.Li32(4, static_cast<uint32_t>(kPage));
    a.Emit(VmOp::kLi, 3, 0, static_cast<int16_t>(kCcDataPages));
    a.Emit(VmOp::kLi, 5, 0, 0);
    const size_t loop = a.Here();
    a.Emit(VmOp::kSt, 1, 2, 0);
    a.Emit(VmOp::kAdd, 5, 1);
    a.Emit(VmOp::kAddi, 1, 0, 1);
    a.Emit(VmOp::kAdd, 2, 4);
    a.Emit(VmOp::kAddi, 3, 0, -1);
    const size_t branch = a.Here();
    a.Emit(VmOp::kBnez, 3);
    a.PatchBranch(branch, loop);
    a.Emit(VmOp::kSt, 5, 15, -8);
    a.Emit(VmOp::kSt, 5, 15, static_cast<int16_t>(-8 - static_cast<int>(kPage)));
    a.Emit(VmOp::kMov, 0, 5);
    a.Emit(VmOp::kHalt);
    return a;
  }

  // The shell writes its job-table entry while the child still shares the
  // page: the original moves into the child's history object, which the
  // child must then read.
  bool RecordJob(const OpInput& in, gvm::Process& child, std::string* error) {
    gvm::Cpu& cpu = world_->cpu();
    const Vaddr va = Word(in.job_page, in.job_slot);
    Status s = Traced(tracer_, kCpuAccess, [&] {
      return cpu.Write(shell_actor_->address_space(), va, &in.job_value, 8);
    });
    if (s != Status::kOk) {
      return Fail(error, "shell job-table write", s);
    }
    const uint64_t before_fork = Shadow(in.job_page, in.job_slot);
    Shadow(in.job_page, in.job_slot) = in.job_value;
    uint64_t got = 0;
    s = Traced(tracer_, kCpuAccess,
               [&] { return cpu.Read(child.actor->address_space(), va, &got, 8); });
    if (s != Status::kOk || got != before_fork) {
      return Fail(error, "child does not see the pre-fork job-table page");
    }
    return true;
  }

  // Child side of one op: COW writes, exec, run cc, ship the object file.
  bool RunChild(uint64_t op, const OpInput& in, Pid child, gvm::Process& proc,
                std::string* error) {
    gvm::ProcessManager& pm = world_->pm();
    gvm::Nucleus& nucleus = world_->nucleus();
    gvm::Cpu& cpu = world_->cpu();
    for (size_t j = 0; j < kChildWrites; ++j) {
      const AsId as = proc.actor->address_space();
      Status s = Traced(tracer_, kCpuAccess, [&] {
        return cpu.Write(as, Word(in.pages[j], in.write_slots[j]), &in.values[j], 8);
      });
      if (s != Status::kOk) {
        return Fail(error, "child COW write", s);
      }
      // The COW copy carries the rest of the shell's page.
      uint64_t got = 0;
      s = Traced(tracer_, kCpuAccess,
                 [&] { return cpu.Read(as, Word(in.pages[j], in.read_slots[j]), &got, 8); });
      if (s != Status::kOk || got != Shadow(in.pages[j], in.read_slots[j])) {
        return Fail(error, "child's COW copy lost the shell's bytes");
      }
    }
    Status s = Traced(tracer_, kMixExec, [&] { return pm.Exec(child, "/bin/cc"); });
    if (s != Status::kOk) {
      return Fail(error, "exec /bin/cc", s);
    }
    proc.vm.regs[1] = in.tag;
    Result<gvm::VmStop> stop = Traced(tracer_, kMixRun, [&] { return pm.Run(child, kRunSteps); });
    if (!stop.ok() || *stop != gvm::VmStop::kHalted) {
      return Fail(error, "cc did not halt");
    }
    s = Traced(tracer_, kMsgSend, [&] {
      return nucleus.MsgSendFromRegion(*proc.actor, port_, op, ProcessLayout::kDataBase, kObjBytes);
    });
    if (s != Status::kOk) {
      return Fail(error, "send object file", s);
    }
    world_->CountRegionMessageBytes(kObjBytes);
    return ReceiveObject(in, error);
  }

  // Shell side: receive the object file into a fresh buffer region, check it
  // against cc's output, free the buffer.  (A buffer the shell keeps across
  // forks would read stale bytes: see perfbench/README.md, "Defect found".)
  bool ReceiveObject(const OpInput& in, std::string* error) {
    gvm::Nucleus& nucleus = world_->nucleus();
    Result<gvm::Region*> buffer = Traced(tracer_, kRgnAllocate, [&] {
      return shell_actor_->RgnAllocate(kObjBase, kObjBytes, Prot::kReadWrite);
    });
    if (!buffer.ok()) {
      return Fail(error, "allocate receive buffer", buffer.status());
    }
    const bool ok = CheckObject(nucleus, in, error);
    Status s = Traced(tracer_, kRgnFree, [&] { return shell_actor_->RgnFree(*buffer); });
    if (ok && s != Status::kOk) {
      return Fail(error, "free receive buffer", s);
    }
    return ok;
  }

  bool CheckObject(gvm::Nucleus& nucleus, const OpInput& in, std::string* error) {
    Result<gvm::Message> message = Traced(tracer_, kMsgReceive, [&] {
      return nucleus.MsgReceiveToRegion(*shell_actor_, port_, kObjBase, kObjBytes);
    });
    if (!message.ok()) {
      return Fail(error, "receive object file", message.status());
    }
    Status s = Traced(tracer_, kCpuAccess, [&] {
      return world_->cpu().Read(shell_actor_->address_space(), kObjBase, received_.data(),
                                kObjBytes);
    });
    if (s != Status::kOk) {
      return Fail(error, "read object file", s);
    }
    for (size_t p = 0; p < kObjPages; ++p) {
      const std::byte* got = received_.data() + p * kPage;
      const int64_t want = in.tag + static_cast<int64_t>(p);
      if (std::memcmp(got, &want, 8) != 0 ||
          std::memcmp(got + 8, obj_template_.data() + p * kPage + 8, kPage - 8) != 0) {
        return Fail(error, "object file page " + std::to_string(p) + " differs from cc's output");
      }
    }
    return true;
  }

  World* world_ = nullptr;
  Tracer* tracer_ = nullptr;
  Pid shell_ = 0;
  Actor* shell_actor_ = nullptr;
  gvm::PortId port_ = gvm::kInvalidPort;
  std::vector<uint64_t> shell_data_;  // the shell's dirty data pages, word by word
  std::vector<std::byte> obj_template_;
  std::vector<std::byte> received_;
  std::vector<OpInput> inputs_;
};

// ---------------------------------------------------------------------------
// bufpool: hot/cold buffer pool over a file 3x physical memory.
// ---------------------------------------------------------------------------

class BufPool final : public Workload {
 public:
  static constexpr size_t kTouches = 16;
  static constexpr size_t kQueries = 8192;  // distinct generated queries, cycled
  static constexpr Vaddr kPoolBase = 0x100000000ull;

  size_t frames() const override { return 1024; }
  int cpus() const override { return 2; }
  uint64_t rss_ops() const override { return 100000; }
  size_t MaxSpansPerOp() const override { return 4096; }
  std::vector<std::string> MechanismCounters() const override {
    return {"mm.push_outs", "pvm.soft_faults", "pvm.daemon_passes"};
  }

  bool Setup(World& world, uint64_t seed, std::string* error) override {
    world_ = &world;
    tracer_ = world.tracer();
    Rng rng(seed ^ 0x627566706f6f6c00ull);
    const size_t file_pages = 3 * frames();

    // The file: a seeded tag word at the start of every page.
    shadow_.resize(file_pages);
    Result<uint64_t> key = Status::kNotFound;
    {
      std::vector<std::byte> image(file_pages * kPage);
      for (size_t p = 0; p < file_pages; ++p) {
        shadow_[p] = rng.Next();
        std::memcpy(image.data() + p * kPage, &shadow_[p], 8);
      }
      key = world.files().CreateFile("/data/pool", image.data(), image.size());
      if (!key.ok()) {
        return Fail(error, "create pool file", key.status());
      }
    }
    Result<Actor*> actor = world.nucleus().ActorCreate("bufpool");
    if (!actor.ok()) {
      return Fail(error, "actor", actor.status());
    }
    actor_ = *actor;
    world.Own(actor_);
    Result<gvm::Region*> region =
        actor_->RgnMap(kPoolBase, file_pages * kPage, Prot::kReadWrite,
                       gvm::Capability{world.file_port(), *key}, 0);
    if (!region.ok()) {
      return Fail(error, "map pool file", region.status());
    }

    // Hot set: a seeded quarter-of-the-frames subset of the file's pages.
    std::vector<uint32_t> order(file_pages);
    for (size_t p = 0; p < file_pages; ++p) {
      order[p] = static_cast<uint32_t>(p);
    }
    for (size_t i = file_pages - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Below(i + 1)]);
    }
    const size_t hot = frames() / 4;
    touches_.resize(kQueries * kTouches);
    for (Touch& t : touches_) {
      const bool is_hot = rng.Below(10) != 0;  // 90% of touches
      t.page = is_hot ? order[rng.Below(hot)] : order[hot + rng.Below(file_pages - hot)];
      t.write = rng.Below(5) == 0;  // 20% of touches
    }

    // Warm up until the pool is full and the daemon has completed passes.
    const size_t high_water = OptionsForFrames(frames()).vm.high_water_frames;
    uint64_t op = 0;
    const uint64_t min_ops = 16 * frames();
    while (op < min_ops || world.vm().detail_stats().daemon_passes < 2 ||
           world.vm().memory().free_frames() > high_water) {
      if (op > 8 * min_ops) {
        return Fail(error, "warm-up never filled the pool");
      }
      if (!RunOp(op++, error)) {
        return false;
      }
    }
    return true;
  }

  bool RunOp(uint64_t op, std::string* error) override {
    gvm::Cpu& cpu = world_->cpu();
    const AsId as = actor_->address_space();
    const Touch* query = &touches_[(op % kQueries) * kTouches];
    for (size_t t = 0; t < kTouches; ++t) {
      const uint32_t page = query[t].page;
      const Vaddr va = kPoolBase + page * kPage;
      if (query[t].write) {
        const uint64_t value = ++writes_;
        const Status s = Traced(tracer_, kCpuAccess, [&] { return cpu.Write(as, va, &value, 8); });
        if (s != Status::kOk) {
          return Fail(error, "pool write", s);
        }
        shadow_[page] = value;
      } else {
        uint64_t got = 0;
        const Status s = Traced(tracer_, kCpuAccess, [&] { return cpu.Read(as, va, &got, 8); });
        if (s != Status::kOk) {
          return Fail(error, "pool read", s);
        }
        if (got != shadow_[page]) {
          return Fail(error, "pool page " + std::to_string(page) +
                                 " does not hold the last value written");
        }
      }
    }
    return true;
  }

 private:
  struct Touch {
    uint32_t page = 0;
    bool write = false;
  };

  World* world_ = nullptr;
  Tracer* tracer_ = nullptr;
  Actor* actor_ = nullptr;
  uint64_t writes_ = 0;
  std::vector<uint64_t> shadow_;  // last value written to each page's tag word
  std::vector<Touch> touches_;
};

// ---------------------------------------------------------------------------
// anon_stream: 8 MB anonymous streams (16 huge spans).
// ---------------------------------------------------------------------------

class AnonStream final : public Workload {
 public:
  static constexpr size_t kRegionBytes = 8u << 20;
  static constexpr size_t kPages = kRegionBytes / kPage;
  static constexpr int kReadPasses = 3;
  static constexpr Vaddr kStreamBase = 0x40000000;  // huge-aligned
  static constexpr size_t kInputs = 1024;
  static constexpr int kWarmupOps = 32;

  size_t frames() const override { return 4096; }
  int cpus() const override { return 1; }
  uint64_t rss_ops() const override { return 700; }
  size_t MaxSpansPerOp() const override { return 65536; }
  std::vector<std::string> MechanismCounters() const override {
    return {"pvm.promotions", "tlb.huge_hits"};
  }

  bool Setup(World& world, uint64_t seed, std::string* error) override {
    world_ = &world;
    tracer_ = world.tracer();
    Rng rng(seed ^ 0x616e6f6e73747265ull);
    Result<Actor*> actor = world.nucleus().ActorCreate("stream");
    if (!actor.ok()) {
      return Fail(error, "actor", actor.status());
    }
    actor_ = *actor;
    world.Own(actor_);
    tags_.resize(kInputs);
    for (uint64_t& tag : tags_) {
      tag = rng.Next();
    }
    for (int op = 0; op < kWarmupOps; ++op) {
      if (!RunOp(static_cast<uint64_t>(op), error)) {
        return false;
      }
    }
    return true;
  }

  bool RunOp(uint64_t op, std::string* error) override {
    gvm::Cpu& cpu = world_->cpu();
    const AsId as = actor_->address_space();
    const uint64_t tag = tags_[op % kInputs];
    Result<gvm::Region*> region = Traced(tracer_, kRgnAllocate, [&] {
      return actor_->RgnAllocate(kStreamBase, kRegionBytes, Prot::kReadWrite);
    });
    if (!region.ok()) {
      return Fail(error, "rgnAllocate", region.status());
    }
    const bool ok = Stream(cpu, as, tag, error);
    Status s = Traced(tracer_, kRgnFree, [&] { return actor_->RgnFree(*region); });
    if (ok && s != Status::kOk) {
      return Fail(error, "rgnFree", s);
    }
    return ok;
  }

 private:
  static uint64_t Value(uint64_t tag, size_t page) { return tag ^ (page * 0x9e3779b97f4a7c15ull); }
  // Each op writes its word at a different place in each page.
  static Vaddr Slot(uint64_t tag, size_t page) {
    return kStreamBase + page * kPage + ((tag + page * 0x9e37) % (kPage / 8)) * 8;
  }

  bool Stream(gvm::Cpu& cpu, AsId as, uint64_t tag, std::string* error) {
    for (size_t p = 0; p < kPages; ++p) {
      const uint64_t value = Value(tag, p);
      Status s =
          Traced(tracer_, kCpuAccess, [&] { return cpu.Write(as, Slot(tag, p), &value, 8); });
      if (s != Status::kOk) {
        return Fail(error, "stream write", s);
      }
    }
    for (int pass = 0; pass < kReadPasses; ++pass) {
      for (size_t p = 0; p < kPages; ++p) {
        uint64_t got = 0;
        Status s = Traced(tracer_, kCpuAccess, [&] { return cpu.Read(as, Slot(tag, p), &got, 8); });
        if (s != Status::kOk) {
          return Fail(error, "stream read", s);
        }
        if (got != Value(tag, p)) {
          return Fail(error, "stream page " + std::to_string(p) + " lost its value");
        }
      }
    }
    return true;
  }

  World* world_ = nullptr;
  Tracer* tracer_ = nullptr;
  Actor* actor_ = nullptr;
  std::vector<uint64_t> tags_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "forkexec") {
    return std::make_unique<ForkExec>();
  }
  if (name == "bufpool") {
    return std::make_unique<BufPool>();
  }
  if (name == "anon_stream") {
    return std::make_unique<AnonStream>();
  }
  return nullptr;
}

}  // namespace perfbench
