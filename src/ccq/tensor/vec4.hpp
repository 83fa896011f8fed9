// Portable 4-lane vectors for the elementwise training kernels.
//
// GCC vector extensions (SSE2 on x86-64, no intrinsics, no ISA
// dispatch), as in gemm.cpp's tile.  An operation on a vector is the
// scalar operation applied lane by lane, so a loop over these computes
// exactly what the scalar loop it replaces computed, element for
// element; the compiler contracts `a * b + c` to FMA under the same
// flags in both forms.  A comparison gives a lane mask (all ones or all
// zeros), and `mask ? a : b` selects with it bit for bit.  A loop runs
// one body over 4-lane blocks; its tail block of fewer lanes loads into
// and stores from a zero-padded vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ccq::vec {

using v4 = float __attribute__((vector_size(16)));
using vi4 = std::int32_t __attribute__((vector_size(16)));
using v2d = double __attribute__((vector_size(16)));

inline v4 splat(float s) { return v4{s, s, s, s}; }

/// The first `k` ≤ 4 floats at `p`, zero-padded to four lanes.
inline v4 load4(const float* p, std::size_t k = 4) {
  v4 v{};
  std::memcpy(&v, p, k * sizeof(float));
  return v;
}

/// Store the first `k` ≤ 4 lanes of `v` to `p`.
inline void store4(float* p, v4 v, std::size_t k = 4) {
  std::memcpy(p, &v, k * sizeof(float));
}

/// True when any lane of the mask is set.
inline bool any(vi4 mask) {
  std::uint64_t half[2];
  std::memcpy(half, &mask, sizeof half);
  return (half[0] | half[1]) != 0;
}

/// Call body(i, k) for the blocks [i, i + k) covering [0, n) in order:
/// k = 4 except in a last, shorter block.
template <typename Body>
[[gnu::always_inline]] inline void for_blocks(std::size_t n, Body&& body) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) body(i, std::size_t{4});
  if (i < n) body(i, n - i);
}

}  // namespace ccq::vec
