// Heap-allocation counter for host-side telemetry and allocation tests.
//
// Linking ncache_heap_counter replaces the global operator new/delete with
// versions that count each allocation and forward to malloc/free, so a
// binary can report its exact number of heap allocations. Nothing in src/
// links it: the counts are host-side numbers (they depend on the standard
// library and on warm process-wide free lists), never simulation output.
#pragma once

#include <cstdint>

namespace ncache::bench {

/// Global operator new calls since process start.
std::uint64_t heap_allocs() noexcept;

}  // namespace ncache::bench
