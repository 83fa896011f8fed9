#include "ccq/tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "ccq/common/telemetry.hpp"

namespace ccq {

namespace {

// Work is cut into tasks of kRowGrain rows × kNc columns of C, and every
// task walks the reduction in kKc-deep slices, so the A rows of a task
// (kRowGrain × kKc) stay in L1 while its column tiles stream past.  Both
// task edges are fixed constants, so the partition is a pure function of
// the problem size.
constexpr std::size_t kRowGrain = 16;
constexpr std::size_t kKc = 128;
constexpr std::size_t kNc = 128;

// Register tile: kMr rows × kNr columns of C held in 4-lane vectors.
// 4×8 keeps eight accumulators, two B vectors, one broadcast and two
// product temporaries inside SSE2's sixteen registers.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

// Portable 4-lane float vector (SSE2 on x86-64).  `acc += a * b` on it is
// the same multiply then add, lane by lane, as the scalar statement, and
// the compiler contracts both forms to FMA under the same flags.
using v4 = float __attribute__((vector_size(16)));

inline v4 load4(const float* p) {
  v4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4 v) { std::memcpy(p, &v, sizeof v); }

/// A operand addressed by strides: A(i, p) = a[i·row + p·depth] — (lda, 1)
/// for gemm, (1, lda) for gemm_tn.
struct StridedA {
  const float* a;
  std::size_t row, depth;
};

/// C tile of kMr rows × 4·NV columns over one kc-deep slice of the
/// reduction: arow[i] is row i's first A element in the slice (the next
/// ones `step` apart) and b the slice's first B row.  Each accumulator
/// starts at +0 on the first slice and from the stored C value on later
/// ones, then adds A(i,p)·B(p,j) for p ascending — the scalar loop's
/// operation sequence, one lane per C element.
template <std::size_t NV>
[[gnu::always_inline]] inline void tile(const float* const (&arow)[kMr],
                                        std::size_t step, std::size_t kc,
                                        const float* b, std::size_t ldb,
                                        float* c, std::size_t ldc,
                                        bool first) {
  v4 acc[kMr][NV];
#pragma GCC unroll 4
  for (std::size_t i = 0; i < kMr; ++i) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) {
      acc[i][v] = first ? v4{} : load4(c + i * ldc + 4 * v);
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    v4 bv[NV];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) bv[v] = load4(b + p * ldb + 4 * v);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < kMr; ++i) {
      const float s = arow[i][p * step];
      const v4 av = {s, s, s, s};
#pragma GCC unroll 2
      for (std::size_t v = 0; v < NV; ++v) acc[i][v] += av * bv[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t i = 0; i < kMr; ++i) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) store4(c + i * ldc + 4 * v, acc[i][v]);
  }
}

/// A tile at the edge of C, with mr < kMr rows or nr < 4·NV columns:
/// the full tile runs on zero-padded copies of the C columns (and of the
/// B columns when nr < 4·NV; `arow` repeats the last real row past mr)
/// and only the real elements are kept.
template <std::size_t NV>
void tile_edge(std::size_t mr, std::size_t nr, const float* const (&arow)[kMr],
               std::size_t step, std::size_t kc, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, bool first) {
  constexpr std::size_t w = 4 * NV;
  float bpad[kKc * w];
  if (nr < w) {
    for (std::size_t p = 0; p < kc; ++p) {
      std::copy_n(b + p * ldb, nr, bpad + p * w);
      std::fill(bpad + p * w + nr, bpad + (p + 1) * w, 0.0f);
    }
    b = bpad;
    ldb = w;
  }
  float cpad[kMr * w] = {};
  for (std::size_t i = 0; i < mr && !first; ++i) {
    std::copy_n(c + i * ldc, nr, cpad + i * w);
  }
  tile<NV>(arow, step, kc, b, ldb, cpad, w, first);
  for (std::size_t i = 0; i < mr; ++i) {
    std::copy_n(cpad + i * w, nr, c + i * ldc);
  }
}

/// C rows [i0, i1) × columns [j0, j1) over the full depth k: the k slices
/// run outermost, so each element's products are added in ascending p.
void gemm_task(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
               std::size_t k, const StridedA& a, const float* b,
               std::size_t ldb, float* c, std::size_t ldc) {
  if (k == 0) {
    for (std::size_t i = i0; i < i1; ++i) {
      std::fill(c + i * ldc + j0, c + i * ldc + j1, 0.0f);
    }
    return;
  }
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    const bool first = pc == 0;
    const float* bslice = b + pc * ldb;
    for (std::size_t jr = j0; jr < j1; jr += kNr) {
      const std::size_t nr = std::min(kNr, j1 - jr);
      for (std::size_t ir = i0; ir < i1; ir += kMr) {
        const std::size_t mr = std::min(kMr, i1 - ir);
        const float* arow[kMr];
        for (std::size_t i = 0; i < kMr; ++i) {
          arow[i] = a.a + (ir + std::min(i, mr - 1)) * a.row + pc * a.depth;
        }
        float* ct = c + ir * ldc + jr;
        const float* bt = bslice + jr;
        if (mr == kMr && nr == kNr) {
          tile<2>(arow, a.depth, kc, bt, ldb, ct, ldc, first);
        } else if (mr == kMr && nr == 4) {
          tile<1>(arow, a.depth, kc, bt, ldb, ct, ldc, first);
        } else if (nr <= 4) {
          tile_edge<1>(mr, nr, arow, a.depth, kc, bt, ldb, ct, ldc, first);
        } else {
          tile_edge<2>(mr, nr, arow, a.depth, kc, bt, ldb, ct, ldc, first);
        }
      }
    }
  }
}

/// Parallel over kRowGrain × kNc tasks of C.  Every C element is
/// produced whole by one task, so any split is bit-identical to the
/// serial one.
void gemm_tasks(std::size_t m, std::size_t n, std::size_t k,
                const StridedA& a, const float* b, std::size_t ldb, float* c,
                std::size_t ldc, const ExecContext& ctx) {
  if (m == 0 || n == 0) return;
  telemetry::ScopedTimer timer(telemetry::Timer::kGemm);
  const std::size_t col_tasks = chunk_count(n, kNc);
  parallel_for(ctx, chunk_count(m, kRowGrain) * col_tasks, 1,
               [&](std::size_t t0, std::size_t t1) {
                 for (std::size_t t = t0; t < t1; ++t) {
                   const std::size_t i0 = (t / col_tasks) * kRowGrain;
                   const std::size_t j0 = (t % col_tasks) * kNc;
                   gemm_task(i0, std::min(m, i0 + kRowGrain), j0,
                             std::min(n, j0 + kNc), k, a, b, ldb, c, ldc);
                 }
               });
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, const float* b, std::size_t ldb, float* c,
          std::size_t ldc, const ExecContext& ctx) {
  gemm_tasks(m, n, k, StridedA{a, lda, 1}, b, ldb, c, ldc, ctx);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, const ExecContext& ctx) {
  gemm_tasks(m, n, k, StridedA{a, 1, lda}, b, ldb, c, ldc, ctx);
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c,
                 const ExecContext& ctx) {
  CCQ_CHECK(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 tensors");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  CCQ_CHECK(b.dim(0) == k, "matmul inner dimensions differ");
  c.resize({m, n});
  gemm(m, n, k, a.data().data(), k, b.data().data(), n, c.data().data(), n,
       ctx);
}

Tensor matmul(const Tensor& a, const Tensor& b, const ExecContext& ctx) {
  Tensor c;
  matmul_into(a, b, c, ctx);
  return c;
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c,
                    const ExecContext& ctx) {
  CCQ_CHECK(a.rank() == 2 && b.rank() == 2, "matmul_tn needs rank-2 tensors");
  CCQ_CHECK(b.dim(0) == a.dim(0), "matmul_tn inner dimensions differ");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  c.resize({m, n});
  gemm_tn(m, n, k, a.data().data(), m, b.data().data(), n, c.data().data(),
          n, ctx);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b, const ExecContext& ctx) {
  Tensor c;
  matmul_tn_into(a, b, c, ctx);
  return c;
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c,
                    const ExecContext& ctx) {
  CCQ_CHECK(a.rank() == 2 && b.rank() == 2, "matmul_nt needs rank-2 tensors");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  CCQ_CHECK(b.dim(1) == k, "matmul_nt inner dimensions differ");
  c.resize({m, n});
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* cp = c.data().data();
  // Dot-product formulation: rows of both A and B are contiguous.  Each
  // C row is produced whole by one chunk, so any row split is exact.
  parallel_for(ctx, m, kRowGrain, [&](std::size_t row0, std::size_t row1) {
    for (std::size_t i = row0; i < row1; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const float* arow = ap + i * k;
        const float* brow = bp + j * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        cp[i * n + j] = acc;
      }
    }
  });
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, const ExecContext& ctx) {
  Tensor c;
  matmul_nt_into(a, b, c, ctx);
  return c;
}

Tensor transpose2d(const Tensor& a) {
  CCQ_CHECK(a.rank() == 2, "transpose2d needs a rank-2 tensor");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  const float* ap = a.data().data();
  float* tp = t.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) tp[j * m + i] = ap[i * n + j];
  }
  return t;
}

}  // namespace ccq
