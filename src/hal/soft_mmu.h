// SoftMmu: a two-level page-table MMU model (PMMU / i386 style).
//
// The top level is a sparse map from "directory" index to a leaf table of PTEs, so
// that an address space with a handful of mappings spread across a huge virtual
// range costs only a few leaf tables — the size-independence property of section
// 4.1 holds at the hardware-model level too.
//
// This file is the whole port: the base-PTE store.  Sharding, counters and the
// huge granule come from the shared MmuCore (mmu_core.h).
#ifndef GVM_SRC_HAL_SOFT_MMU_H_
#define GVM_SRC_HAL_SOFT_MMU_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/hal/mmu_core.h"

namespace gvm {

class SoftPteStore {
 public:
  struct ShardPtes {};
  struct LeafTable {
    std::vector<Pte> entries;  // an empty slot has frame == kInvalidFrame
    size_t valid_count = 0;
  };
  struct SpacePtes {
    std::unordered_map<uint64_t, std::unique_ptr<LeafTable>> directory;
  };

  // `leaf_bits` is the number of VPN bits resolved by a leaf table.
  explicit SoftPteStore(unsigned leaf_bits) : leaf_bits_(leaf_bits) {}

  void DropSpace(ShardPtes&, AsId, SpacePtes&) const {}  // the directory frees its leaves
  Pte* Find(ShardPtes&, AsId, SpacePtes& space, uint64_t vpn) const;
  Pte& Install(ShardPtes&, AsId, SpacePtes& space, uint64_t vpn) const;
  std::optional<Pte> Erase(ShardPtes&, AsId, SpacePtes& space, uint64_t vpn) const;

 private:
  uint64_t DirIndex(uint64_t vpn) const { return vpn >> leaf_bits_; }
  uint64_t LeafIndex(uint64_t vpn) const { return vpn & ((uint64_t{1} << leaf_bits_) - 1); }

  const unsigned leaf_bits_;
};

extern template class MmuCore<SoftPteStore>;

class SoftMmu final : public MmuCore<SoftPteStore> {
 public:
  // `page_size` must be a power of two.  `leaf_bits` is the number of VPN bits
  // resolved by a leaf table (default 10, i.e. 1024 PTEs per leaf).
  // `huge_pages` is the second granule in base pages (power of two); 0 picks
  // the default of 512KB / page_size, and a value <= 1 disables huge pages.
  explicit SoftMmu(size_t page_size, unsigned leaf_bits = 10, size_t huge_pages = 0);

  const char* name() const override { return "SoftMmu(two-level)"; }

  // Number of leaf tables currently allocated in `as` (for size-independence tests).
  size_t LeafTableCount(AsId as) const;
};

}  // namespace gvm

#endif  // GVM_SRC_HAL_SOFT_MMU_H_
