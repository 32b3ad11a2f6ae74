// The one full-stack world every workload runs on: SoftMmu (8 KB pages,
// 512 KB huge granule) under PagedVm (TLB, transparent huge pages and the
// paging daemon on), a Nucleus whose default mapper is a SwapMapper, a
// FileMapper, and a MIX ProcessManager.  Workloads differ only in their
// inputs and in the frame count; every other option derives from it.
//
// A traced world additionally routes the PagedVm's MMU through TracedMmu,
// its Cpu's traps through TracedFaultHandler, and both mappers through
// TracedMapper.
#ifndef PERFBENCH_CPP_WORLD_H_
#define PERFBENCH_CPP_WORLD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpp/trace.h"
#include "src/hal/phys_memory.h"
#include "src/hal/soft_mmu.h"
#include "src/mix/process_manager.h"
#include "src/nucleus/nucleus.h"
#include "src/pvm/paged_vm.h"

namespace perfbench {

inline constexpr size_t kPage = 8192;
inline constexpr size_t kHugePages = 64;  // 512 KB second granule

struct WorldOptions {
  size_t frames = 0;
  gvm::PagedVm::Options vm;
  gvm::Nucleus::Options nucleus;
};

// Options for a world of `frames` frames (what the output records).
WorldOptions OptionsForFrames(size_t frames);
std::string OptionsJson(const WorldOptions& options);

// Named counter snapshot across every layer's stats() (see world.cc).
using Counters = std::map<std::string, double>;
Counters Delta(const Counters& after, const Counters& before);

class World {
 public:
  // `tracer` null builds the untraced world (no decorators at all).
  World(const WorldOptions& options, Tracer* tracer);
  // Stops the paging daemon, destroys the actors workloads registered, then
  // takes the stack down top to bottom.
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  gvm::PagedVm& vm() { return *vm_; }
  gvm::Cpu& cpu() { return vm_->cpu(); }
  gvm::Nucleus& nucleus() { return *nucleus_; }
  gvm::ProcessManager& pm() { return *pm_; }
  gvm::FileMapper& files() { return *files_; }
  gvm::PortId file_port() const { return file_server_->port(); }
  Tracer* tracer() { return tracer_; }

  // Actors destroyed (before the mappers go) when the world dies.
  void Own(gvm::Actor* actor) { owned_actors_.push_back(actor); }
  // Out-of-line IPC payload bytes sent by the workload (MsgSendFromRegion).
  void CountRegionMessageBytes(uint64_t bytes) { region_msg_bytes_ += bytes; }

  Counters Snapshot() const;

 private:
  Tracer* tracer_;
  std::unique_ptr<gvm::PhysicalMemory> memory_;
  std::unique_ptr<gvm::SoftMmu> soft_mmu_;
  std::unique_ptr<TracedMmu> traced_mmu_;
  std::unique_ptr<gvm::PagedVm> vm_;
  std::unique_ptr<TracedFaultHandler> traced_faults_;
  std::unique_ptr<gvm::SwapMapper> swap_;
  std::unique_ptr<gvm::FileMapper> files_;
  std::unique_ptr<TracedMapper> traced_swap_;
  std::unique_ptr<TracedMapper> traced_files_;
  std::unique_ptr<gvm::Nucleus> nucleus_;
  std::unique_ptr<gvm::MapperServer> swap_server_;
  std::unique_ptr<gvm::MapperServer> file_server_;
  std::unique_ptr<gvm::ProcessManager> pm_;
  std::vector<gvm::Actor*> owned_actors_;
  uint64_t region_msg_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORLD_H_
