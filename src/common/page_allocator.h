// An allocator that maps every allocation of 1 MiB or more as its own
// anonymous pages and unmaps them when it is freed; smaller ones come from
// operator new.
//
// Index build workers fill large byte buffers from their own threads. A
// malloc'd buffer freed into a thread's arena stays resident there: glibc
// trims a thread arena's free top only past its dynamic trim threshold,
// and malloc_trim never does, so a process that built on several threads
// kept tens of MiB resident after each build. Pages mapped per buffer go
// back to the OS the moment the buffer is freed, whichever thread made it.
// Small buffers stay on the heap: mapping fresh pages and faulting each one
// in costs more than a small buffer's fill (an ingest seal's lists).

#ifndef FTS_COMMON_PAGE_ALLOCATOR_H_
#define FTS_COMMON_PAGE_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace fts {

template <typename T>
struct PageAllocator {
  using value_type = T;

  static constexpr size_t kMinMappedBytes = size_t{1} << 20;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n * sizeof(T) < kMinMappedBytes) return std::allocator<T>().allocate(n);
    const int prot = PROT_READ | PROT_WRITE;
    void* p = ::mmap(nullptr, n * sizeof(T), prot, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) noexcept {
    if (n * sizeof(T) < kMinMappedBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      ::munmap(p, n * sizeof(T));
    }
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) { return true; }
};

/// A growable byte buffer on PageAllocator.
using PageBytes = std::vector<char, PageAllocator<char>>;

}  // namespace fts

#endif  // FTS_COMMON_PAGE_ALLOCATOR_H_
