#include "heap_counter.h"

namespace perfbench::heap {

bool counting() { return false; }
Count snapshot() { return {}; }

}  // namespace perfbench::heap
