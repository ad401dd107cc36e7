#include "bench/heap_counter.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_heap_allocs;
  std::size_t a = std::size_t(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ncache::bench {

std::uint64_t heap_allocs() noexcept { return g_heap_allocs; }

}  // namespace ncache::bench
