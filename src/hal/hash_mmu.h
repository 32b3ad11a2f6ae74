// HashMmu: an inverted/hashed page-table MMU model, in the style of the custom MMU
// of the Telmat T3000 mentioned in the paper's portability table (Table 5).
//
// A hash maps (address space, virtual page number) to a PTE.  This file is the
// whole port: the base-PTE store.  Sharding, counters and the huge granule come
// from the shared MmuCore (mmu_core.h), so the two MMUs behave identically by
// construction and the PVM runs unmodified on either — the paper's portability
// claim made executable.  Each lock shard owns the slice of the inverted table
// for its address spaces.
#ifndef GVM_SRC_HAL_HASH_MMU_H_
#define GVM_SRC_HAL_HASH_MMU_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/hal/mmu_core.h"

namespace gvm {

class HashPteStore {
 public:
  struct KeyHash {
    size_t operator()(const std::pair<AsId, uint64_t>& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.first) << 40) ^ k.second);
    }
  };
  struct ShardPtes {
    std::unordered_map<std::pair<AsId, uint64_t>, Pte, KeyHash> table;
  };
  struct SpacePtes {
    // The space's mapped VPNs, so teardown need not scan the whole hash (real
    // inverted-page-table systems keep similar lists).
    std::unordered_set<uint64_t> vpns;
  };

  void DropSpace(ShardPtes& shard, AsId as, SpacePtes& space) const;
  Pte* Find(ShardPtes& shard, AsId as, SpacePtes& space, uint64_t vpn) const;
  Pte& Install(ShardPtes& shard, AsId as, SpacePtes& space, uint64_t vpn) const;
  std::optional<Pte> Erase(ShardPtes& shard, AsId as, SpacePtes& space, uint64_t vpn) const;
};

extern template class MmuCore<HashPteStore>;

class HashMmu final : public MmuCore<HashPteStore> {
 public:
  // `huge_pages` is the second granule in base pages (power of two); 0 picks
  // the default of 512KB / page_size, and a value <= 1 disables huge pages.
  explicit HashMmu(size_t page_size, size_t huge_pages = 0);

  const char* name() const override { return "HashMmu(inverted)"; }
};

}  // namespace gvm

#endif  // GVM_SRC_HAL_HASH_MMU_H_
