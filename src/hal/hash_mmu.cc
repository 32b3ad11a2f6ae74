#include "src/hal/hash_mmu.h"

namespace gvm {

void HashPteStore::DropSpace(ShardPtes& shard, AsId as, SpacePtes& space) const {
  for (uint64_t vpn : space.vpns) {
    shard.table.erase({as, vpn});
  }
}

Pte* HashPteStore::Find(ShardPtes& shard, AsId as, SpacePtes&, uint64_t vpn) const {
  auto it = shard.table.find({as, vpn});
  return it == shard.table.end() ? nullptr : &it->second;
}

Pte& HashPteStore::Install(ShardPtes& shard, AsId as, SpacePtes& space, uint64_t vpn) const {
  space.vpns.insert(vpn);
  return shard.table[{as, vpn}];  // a fresh insert default-constructs an empty slot
}

std::optional<Pte> HashPteStore::Erase(ShardPtes& shard, AsId as, SpacePtes& space,
                                       uint64_t vpn) const {
  auto it = shard.table.find({as, vpn});
  if (it == shard.table.end()) {
    return std::nullopt;
  }
  const Pte removed = it->second;
  shard.table.erase(it);
  space.vpns.erase(vpn);
  return removed;
}

template class MmuCore<HashPteStore>;

HashMmu::HashMmu(size_t page_size, size_t huge_pages)
    : MmuCore(page_size, huge_pages, HashPteStore()) {}

}  // namespace gvm
