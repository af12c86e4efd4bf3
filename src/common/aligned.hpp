// Field storage: the one allocator behind every field array (structured
// dats, unstructured dats, STREAM arrays).
//
// Small arrays (under kLargeArrayBytes, two huge pages) come from
// aligned_alloc with 64-byte alignment, so vector loads never straddle a
// line and thread partitions never share a line at an array base. They
// are zeroed explicitly, so both paths hand out zero-filled memory.
//
// Large arrays are mapped with anonymous mmap on 2 MiB-aligned blocks and
// advised onto transparent huge pages. A fresh 4 KiB page costs one fault
// on first touch and one unmap at teardown; on a multi-hundred-MB solve
// that set-up and teardown cost a quarter of the run's CPU time, and
// 2 MiB pages cut the fault count 512×. The array begins a colour past
// the block base: colour k (k cycling over kColours) is
// k·kColourStepBytes, 65 cache lines, so any kColours successive arrays
// have pairwise distinct bases mod 4 KiB (L1 sets, 4K aliasing) and mod
// 128 KiB (one way of a 2 MiB 16-way L2). Without the colour every array
// would start on a 2 MiB boundary and all of a stencil's streams would
// fight over the same L2 sets; that doubled solve times. Only the 2 MiB
// extents lying wholly inside the array are advised, and only the array's
// own 4 KiB pages stay mapped, so no page outside the array is ever
// touched or made resident: peak RSS is what the arrays need, THP or not.
// With THP disabled the advice is ignored and the large path runs on
// ordinary 4 KiB pages.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bwlab {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
/// Arrays of at least this many bytes take the huge-page path.
inline constexpr std::size_t kLargeArrayBytes = 2 * kHugePageBytes;
/// Base offset between successive colours: 65 cache lines (4160 B).
inline constexpr std::size_t kColourStepBytes = 65 * kCacheLineBytes;
inline constexpr std::size_t kColours = 32;

/// Byte offsets [begin, end) relative to an array base.
struct ByteRange {
  std::size_t begin = 0, end = 0;
  bool empty() const { return begin >= end; }
};

/// The 2 MiB-aligned extents lying wholly inside [p, p + bytes), as offsets
/// from p; empty when no whole extent fits.
constexpr ByteRange huge_page_extents(std::uintptr_t p, std::size_t bytes) {
  const std::uintptr_t first = round_up(p, kHugePageBytes);
  const std::uintptr_t last = (p + bytes) / kHugePageBytes * kHugePageBytes;
  if (first >= last) return {};
  return {first - p, last - p};
}

namespace detail {
/// Maps `bytes` (>= kLargeArrayBytes) on the coloured huge-page path.
void* map_large(std::size_t bytes);
/// Unmaps a block from map_large, given its pointer and the same size.
void unmap_large(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// Standard-conforming allocator returning zero-filled, 64-byte aligned
/// blocks; large blocks are huge-page backed and cache coloured (see the
/// file comment).
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    const std::size_t raw = n * sizeof(T);
    if (raw >= kLargeArrayBytes)
      return static_cast<T*>(detail::map_large(raw));
    // raw < kLargeArrayBytes, so rounding up cannot wrap.
    const std::size_t bytes = round_up(raw, kCacheLineBytes);
    void* p = std::aligned_alloc(kCacheLineBytes, bytes);
    if (p == nullptr) throw std::bad_alloc();
    std::memset(p, 0, bytes);
    return static_cast<T*>(p);
  }

  // std::vector passes deallocate the n it allocated, so the path matches.
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kLargeArrayBytes)
      detail::unmap_large(p, n * sizeof(T));
    else
      std::free(p);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Contiguous, 64-byte-aligned array; the standard storage type for all
/// field data (structured dats, unstructured dats, STREAM arrays).
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose value-less construct default-initializes, which
/// for a trivial element leaves the zero the allocation already holds. A
/// vector sized once from empty then reads zero without a pass writing
/// it: on a large array that pass would be a whole extra sweep over
/// memory at set-up.
template <class T>
struct DefaultInitAllocator : AlignedAllocator<T> {
  DefaultInitAllocator() noexcept = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... A>
  void construct(U* p, A&&... a) {
    ::new (static_cast<void*>(p)) U(std::forward<A>(a)...);
  }
};

/// Field storage that is zero when first sized (see DefaultInitAllocator).
/// Growing it again after a shrink would expose stale elements, so it is
/// sized once.
template <class T>
using field_vector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace bwlab
