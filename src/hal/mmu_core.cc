#include "src/hal/mmu_core.h"

namespace gvm {

size_t ResolveHugeRatio(size_t page_size, size_t huge_pages) {
  size_t ratio = huge_pages != 0 ? huge_pages : (512 * 1024) / page_size;
  if (ratio <= 1) {
    return 1;
  }
  assert(IsPowerOfTwo(ratio));
  return ratio;
}

}  // namespace gvm
