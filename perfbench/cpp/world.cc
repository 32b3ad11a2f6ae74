#include "cpp/world.h"

#include <sstream>

namespace perfbench {

WorldOptions OptionsForFrames(size_t frames) {
  WorldOptions o;
  o.frames = frames;
  gvm::PagedVm::Options& vm = o.vm;
  vm.enable_tlb = true;
  vm.shootdown_fence = gvm::TlbMmu::FenceMode::kAuto;
  vm.transparent_huge = true;
  vm.pageout_daemon = true;
  vm.low_water_frames = frames / 16;
  vm.high_water_frames = frames / 8;
  vm.daemon_wake_frames = vm.high_water_frames - 1;
  vm.working_set_limit_pages = frames / 2;
  vm.pushout_batch_pages = 8;
  vm.thrash_ewma_threshold = 0;  // off: see README, "The world"
  vm.per_page_threshold_pages = 8;
  vm.pullin_cluster_pages = 1;
  vm.collapse_dying_caches = true;
  vm.emergency_reserve_frames = gvm::PagedVm::Options::kAutoReserve;
  o.nucleus.transit_slots = 8;
  o.nucleus.segment_manager.cache_capacity = 16;
  o.nucleus.segment_manager.use_ipc_transport = false;
  o.nucleus.segment_manager.retry_backoff_us = 0;
  return o;
}

std::string OptionsJson(const WorldOptions& o) {
  const gvm::PagedVm::Options& vm = o.vm;
  std::ostringstream s;
  s << "{\"mmu\": \"SoftMmu\", \"page_bytes\": " << kPage
    << ", \"huge_bytes\": " << kPage * kHugePages << ", \"frames\": " << o.frames
    << ", \"enable_tlb\": " << (vm.enable_tlb ? "true" : "false")
    << ", \"shootdown_fence\": \"auto\""
    << ", \"transparent_huge\": " << (vm.transparent_huge ? "true" : "false")
    << ", \"pageout_daemon\": " << (vm.pageout_daemon ? "true" : "false")
    << ", \"low_water_frames\": " << vm.low_water_frames
    << ", \"high_water_frames\": " << vm.high_water_frames
    << ", \"daemon_wake_frames\": " << vm.daemon_wake_frames
    << ", \"working_set_limit_pages\": " << vm.working_set_limit_pages
    << ", \"pushout_batch_pages\": " << vm.pushout_batch_pages
    << ", \"thrash_ewma_threshold\": " << vm.thrash_ewma_threshold
    << ", \"per_page_threshold_pages\": " << vm.per_page_threshold_pages
    << ", \"pullin_cluster_pages\": " << vm.pullin_cluster_pages
    << ", \"emergency_reserve\": \"auto\""
    << ", \"default_mapper\": \"SwapMapper\", \"file_mapper\": \"FileMapper\""
    << ", \"segment_cache_capacity\": " << o.nucleus.segment_manager.cache_capacity
    << ", \"mapper_transport\": \""
    << (o.nucleus.segment_manager.use_ipc_transport ? "ipc" : "in-process") << "\""
    << ", \"transit_slots\": " << o.nucleus.transit_slots << "}";
  return s.str();
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

World::World(const WorldOptions& options, Tracer* tracer) : tracer_(tracer) {
  memory_ = std::make_unique<gvm::PhysicalMemory>(options.frames, kPage);
  soft_mmu_ = std::make_unique<gvm::SoftMmu>(kPage, 10, kHugePages);
  gvm::Mmu* mmu = soft_mmu_.get();
  if (tracer_ != nullptr) {
    traced_mmu_ = std::make_unique<TracedMmu>(*soft_mmu_, *tracer_);
    mmu = traced_mmu_.get();
  }
  vm_ = std::make_unique<gvm::PagedVm>(*memory_, *mmu, options.vm);
  if (tracer_ != nullptr) {
    traced_faults_ = std::make_unique<TracedFaultHandler>(*vm_, *tracer_);
    vm_->cpu().BindFaultHandler(traced_faults_.get());
  }
  swap_ = std::make_unique<gvm::SwapMapper>(kPage);
  files_ = std::make_unique<gvm::FileMapper>(kPage);
  gvm::Mapper* swap = swap_.get();
  gvm::Mapper* files = files_.get();
  if (tracer_ != nullptr) {
    traced_swap_ = std::make_unique<TracedMapper>(*swap_, *tracer_);
    traced_files_ = std::make_unique<TracedMapper>(*files_, *tracer_);
    swap = traced_swap_.get();
    files = traced_files_.get();
  }
  nucleus_ = std::make_unique<gvm::Nucleus>(*vm_, options.nucleus);
  swap_server_ = std::make_unique<gvm::MapperServer>(nucleus_->ipc(), *swap);
  file_server_ = std::make_unique<gvm::MapperServer>(nucleus_->ipc(), *files);
  nucleus_->BindDefaultMapper(swap_server_.get());
  nucleus_->RegisterMapper(file_server_.get());
  pm_ = std::make_unique<gvm::ProcessManager>(*nucleus_, *files_, file_server_->port());
}

World::~World() {
  // The daemon upcalls through the segment manager into the mappers, so it
  // stops first; the PagedVm itself goes last and drops pages without I/O.
  vm_->StopPageoutDaemon();
  for (gvm::Actor* actor : owned_actors_) {
    (void)nucleus_->ActorDestroy(actor);
  }
  pm_.reset();
  nucleus_.reset();  // destroys any remaining actors while the mappers live
  file_server_.reset();
  swap_server_.reset();
}

Counters World::Snapshot() const {
  Counters c;
  const gvm::MmStats mm = vm_->stats();
  c["mm.page_faults"] = mm.page_faults;
  c["mm.cow_copies"] = mm.cow_copies;
  c["mm.zero_fills"] = mm.zero_fills;
  c["mm.pull_ins"] = mm.pull_ins;
  c["mm.push_outs"] = mm.push_outs;
  c["mm.pages_paged_out"] = mm.pages_paged_out;
  c["mm.history_objects"] = mm.history_objects;
  const gvm::PvmDetailStats d = vm_->detail_stats();
  c["pvm.sync_stub_waits"] = d.sync_stub_waits;
  c["pvm.history_pushes"] = d.history_pushes;
  c["pvm.per_page_stubs"] = d.per_page_stubs;
  c["pvm.stub_resolutions"] = d.stub_resolutions;
  c["pvm.caches_collapsed"] = d.caches_collapsed;
  c["pvm.soft_faults"] = d.soft_faults;
  c["pvm.standby_hits"] = d.standby_hits;
  c["pvm.sweep_waits"] = d.sweep_waits;
  c["pvm.daemon_wakeups"] = d.daemon_wakeups;
  c["pvm.daemon_passes"] = d.daemon_passes;
  c["pvm.frames_reclaimed_daemon"] = d.frames_reclaimed_daemon;
  c["pvm.batch_pushes"] = d.batch_pushes;
  c["pvm.batch_push_pages"] = d.batch_push_pages;
  c["pvm.ws_trims"] = d.ws_trims;
  c["pvm.thrash_throttles"] = d.thrash_throttles;
  c["pvm.promotions"] = d.promotions;
  c["pvm.demotions"] = d.demotions;
  const gvm::Cpu::Stats cpu = vm_->cpu().SnapshotStats();
  c["cpu.reads"] = cpu.reads;
  c["cpu.writes"] = cpu.writes;
  c["cpu.faults_taken"] = cpu.faults_taken;
  c["tlb.hits"] = cpu.tlb_hits;
  c["tlb.misses"] = cpu.tlb_misses;
  c["tlb.huge_hits"] = cpu.tlb_huge_hits;
  c["tlb.shootdowns"] = cpu.tlb_shootdowns;
  c["tlb.shootdown_pages"] = cpu.tlb_shootdown_pages;
  const gvm::PhysicalMemory::Stats phys = memory_->stats();
  c["phys.allocations"] = phys.allocations;
  c["phys.zero_fills"] = phys.zero_fills;
  c["phys.frame_copies"] = phys.frame_copies;
  c["phys.magazine_hits"] = phys.magazine_hits;
  c["phys.run_allocations"] = phys.run_allocations;
  c["phys.run_failures"] = phys.run_failures;
  const gvm::SegmentManager::Stats seg = nucleus_->segment_manager().stats();
  c["seg.lookups"] = seg.lookups;
  c["seg.cache_hits"] = seg.cache_hits;
  c["seg.mapper_reads"] = seg.mapper_reads;
  c["seg.mapper_writes"] = seg.mapper_writes;
  const gvm::Ipc::Stats ipc = nucleus_->ipc().stats();
  c["ipc.sends"] = ipc.sends;
  c["ipc.bytes_transferred"] = ipc.bytes_transferred;
  c["bench.region_msg_bytes"] = static_cast<double>(region_msg_bytes_);
  if (tracer_ != nullptr) {
    c["bench.mapper_bytes"] =
        static_cast<double>(traced_swap_->bytes() + traced_files_->bytes());
  }
  return c;
}

}  // namespace perfbench
