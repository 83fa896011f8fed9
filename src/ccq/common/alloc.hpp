// Allocation instrumentation for float tensor storage.
//
// `FloatVec` is the storage type behind `Tensor` and the `Workspace`
// buffer pool.  It is a std::vector<float> whose allocator bumps a
// process-wide counter on every heap allocation when the build defines
// CCQ_COUNT_ALLOCS (a CMake option, ON by default; the definition is
// PUBLIC on ccq_common so every translation unit agrees on it).  Tests
// and benches read the counter through `alloc_stats` to assert the
// steady-state contract: a warm workspace-backed forward performs zero
// new float-storage allocations.
//
// Scope note: the counter covers float *storage* — the dominant term by
// orders of magnitude.  Small bookkeeping allocations (Shape vectors,
// pool map nodes) go through std::allocator and are not counted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccq {

namespace alloc_stats {

#ifdef CCQ_COUNT_ALLOCS
namespace detail {
inline std::atomic<std::uint64_t> count{0};
inline std::atomic<std::uint64_t> bytes{0};
}  // namespace detail

/// Float-storage heap allocations since the last reset().
inline std::uint64_t count() { return detail::count.load(std::memory_order_relaxed); }
/// Bytes requested by those allocations.
inline std::uint64_t bytes() { return detail::bytes.load(std::memory_order_relaxed); }
inline void reset() {
  detail::count.store(0, std::memory_order_relaxed);
  detail::bytes.store(0, std::memory_order_relaxed);
}
inline void record(std::size_t n_bytes) {
  detail::count.fetch_add(1, std::memory_order_relaxed);
  detail::bytes.fetch_add(n_bytes, std::memory_order_relaxed);
}
constexpr bool enabled() { return true; }
#else
inline std::uint64_t count() { return 0; }
inline std::uint64_t bytes() { return 0; }
inline void reset() {}
inline void record(std::size_t) {}
constexpr bool enabled() { return false; }
#endif

}  // namespace alloc_stats

/// std::allocator drop-in that reports each allocation to alloc_stats.
/// Stateless, so it adds no footprint and all instances compare equal.
/// `Align` raises the storage alignment above the type's natural one —
/// the integer pools use 64 so SIMD kernels can assume cache-line-aligned
/// panel bases (vector *rows* may still be unaligned; kernels use
/// unaligned loads and the alignment only buys split-free starts).
template <typename T, std::size_t Align = alignof(T)>
struct CountingAllocator {
  using value_type = T;
  // Explicit rebind: the non-type Align parameter defeats the default
  // allocator_traits rebind (which only handles type parameter packs).
  template <typename U>
  struct rebind {
    using other = CountingAllocator<U, Align>;
  };

  CountingAllocator() noexcept = default;
  template <typename U, std::size_t A>
  CountingAllocator(const CountingAllocator<U, A>&) noexcept {}

  T* allocate(std::size_t n) {
    alloc_stats::record(n * sizeof(T));
    if constexpr (Align > alignof(std::max_align_t)) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{Align}));
    } else {
      return std::allocator<T>{}.allocate(n);
    }
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if constexpr (Align > alignof(std::max_align_t)) {
      ::operator delete(p, n * sizeof(T), std::align_val_t{Align});
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }

  friend bool operator==(const CountingAllocator&, const CountingAllocator&) {
    return true;
  }
};

/// Storage type for Tensor data and Workspace pool buffers.
using FloatVec = std::vector<float, CountingAllocator<float>>;

/// Storage types for the Workspace's integer pools (the integer
/// engine's activation code maps: u8 on the serving path, int32 on the
/// reference one).  Counted by the same allocator so the warm
/// zero-allocations contract covers the integer datapath too, and
/// 64-byte aligned for split-free vector loads from the buffer base.
using Int32Vec = std::vector<std::int32_t, CountingAllocator<std::int32_t, 64>>;
using ByteVec = std::vector<std::uint8_t, CountingAllocator<std::uint8_t, 64>>;

}  // namespace ccq
