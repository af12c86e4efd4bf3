// The large-array path of AlignedAllocator: coloured, huge-page-backed
// anonymous mappings (the policy is described in aligned.hpp).
#include "common/aligned.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>

namespace bwlab::detail {
namespace {

std::uintptr_t page_bytes() {
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::uintptr_t page_floor(std::uintptr_t a) {
  return a / page_bytes() * page_bytes();
}

/// Colours cycle process-wide, so arrays of every element type interleave.
std::size_t next_colour() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kColours *
         kColourStepBytes;
}

void* as_ptr(std::uintptr_t a) { return reinterpret_cast<void*>(a); }

}  // namespace

void* map_large(std::size_t bytes) {
  // Room to slide the base up to a 2 MiB boundary and then by any colour.
  constexpr std::size_t kSlack =
      kHugePageBytes + (kColours - 1) * kColourStepBytes;
  if (bytes > std::numeric_limits<std::size_t>::max() - kSlack)
    throw std::bad_alloc();
  const std::size_t len = bytes + kSlack;
  void* m = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) throw std::bad_alloc();

  const auto raw = reinterpret_cast<std::uintptr_t>(m);
  const std::uintptr_t p = round_up(raw, kHugePageBytes) + next_colour();
  // Keep only the pages the array overlaps. A partial 2 MiB extent at
  // either end then never fits in the mapping, so even THP "always" cannot
  // back it with a huge page that reaches outside the array.
  const std::uintptr_t lo = page_floor(p);
  const std::uintptr_t hi = round_up(p + bytes, page_bytes());
  if (lo > raw) munmap(m, lo - raw);
  if (raw + len > hi) munmap(as_ptr(hi), raw + len - hi);

  // Advice is best effort: with THP off this is a no-op or EINVAL, and the
  // array simply stays on 4 KiB pages.
  const ByteRange huge = huge_page_extents(p, bytes);
  if (!huge.empty())
    madvise(as_ptr(p + huge.begin), huge.end - huge.begin, MADV_HUGEPAGE);
  return as_ptr(p);
}

void unmap_large(void* p, std::size_t bytes) noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = page_floor(a);
  munmap(as_ptr(lo), a + bytes - lo);
}

}  // namespace bwlab::detail
