#include "src/hal/soft_mmu.h"

#include <cassert>

namespace gvm {

Pte* SoftPteStore::Find(ShardPtes&, AsId, SpacePtes& space, uint64_t vpn) const {
  auto it = space.directory.find(DirIndex(vpn));
  if (it == space.directory.end()) {
    return nullptr;
  }
  Pte& pte = it->second->entries[LeafIndex(vpn)];
  return pte.frame != kInvalidFrame ? &pte : nullptr;
}

Pte& SoftPteStore::Install(ShardPtes&, AsId, SpacePtes& space, uint64_t vpn) const {
  auto& leaf = space.directory[DirIndex(vpn)];
  if (leaf == nullptr) {
    leaf = std::make_unique<LeafTable>();
    leaf->entries.resize(size_t{1} << leaf_bits_);
  }
  Pte& slot = leaf->entries[LeafIndex(vpn)];
  if (slot.frame == kInvalidFrame) {
    ++leaf->valid_count;
  }
  return slot;
}

std::optional<Pte> SoftPteStore::Erase(ShardPtes&, AsId, SpacePtes& space, uint64_t vpn) const {
  auto it = space.directory.find(DirIndex(vpn));
  if (it == space.directory.end()) {
    return std::nullopt;
  }
  Pte& slot = it->second->entries[LeafIndex(vpn)];
  if (slot.frame == kInvalidFrame) {
    return std::nullopt;
  }
  const Pte removed = slot;
  slot = Pte{};
  if (--it->second->valid_count == 0) {
    space.directory.erase(it);  // reclaim empty leaf tables
  }
  return removed;
}

template class MmuCore<SoftPteStore>;

SoftMmu::SoftMmu(size_t page_size, unsigned leaf_bits, size_t huge_pages)
    : MmuCore(page_size, huge_pages, SoftPteStore(leaf_bits)) {
  assert(leaf_bits >= 1 && leaf_bits <= 20);
}

size_t SoftMmu::LeafTableCount(AsId as) const {
  Shard& shard = ShardFor(as);
  ReaderLock guard(shard.mu);
  const Space* space = FindSpace(shard, as);
  return space == nullptr ? 0 : space->ptes.directory.size();
}

}  // namespace gvm
