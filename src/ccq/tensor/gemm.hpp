// Blocked single-precision GEMM.
//
// All convolutions in the NN substrate lower to matrix multiply via
// im2col, so this kernel dominates training runtime.  One register-tiled
// microkernel serves both entry points: a 4×8 tile of C is held in
// 4-lane vectors (SSE2 on x86-64) across a 128-deep slice of the
// reduction, inside tasks of 16 rows × 128 columns of C that
// parallelise through the `ExecContext` each entry point accepts.  The
// microbench `bench_kernels` guards regressions.
//
// Order contract: every C element is its own accumulator.  It starts at
// +0 and adds A(i,p)·B(p,j) for p = 0, 1, …, k−1, each product rounded
// and then added, exactly as the scalar statement `acc += a * b` does.
// No product is skipped and nothing is reassociated, so a vector lane
// performs the scalar loop's operation sequence bit for bit.  Where the
// build lets the compiler contract multiply-add to FMA (-march with FMA),
// it contracts the vector and scalar forms alike.  Each element is
// produced whole by one task, and the task grid is a pure function of
// the problem size, so results are bit-identical for any thread count
// (see common/exec.hpp).
#pragma once

#include <cstddef>

#include "ccq/common/exec.hpp"
#include "ccq/tensor/tensor.hpp"

namespace ccq {

/// C[m,n] = sum_k A[m,k] * B[k,n], C fully overwritten.  Raw-pointer
/// core; row-major with leading dimensions lda/ldb/ldc.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, const float* b, std::size_t ldb, float* c,
          std::size_t ldc, const ExecContext& ctx = ExecContext::global());

/// C[m,n] = sum_k A[k,m] * B[k,n] — A transposed in place (A is stored
/// k-major), no temporary copy.  Same kernel and order as `gemm`.
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, const ExecContext& ctx = ExecContext::global());

/// C = A(m×k) · B(k×n) for rank-2 tensors. Shapes are validated.
Tensor matmul(const Tensor& a, const Tensor& b,
              const ExecContext& ctx = ExecContext::global());

/// C = Aᵀ(m×k) · B(k×n) where A is stored k-major as (k×m).
Tensor matmul_tn(const Tensor& a, const Tensor& b,
                 const ExecContext& ctx = ExecContext::global());

/// C = A(m×k) · Bᵀ(k×n) where B is stored n-major as (n×k).  A scalar
/// dot product per element (Linear forward), in the same ascending-k
/// order from +0.
Tensor matmul_nt(const Tensor& a, const Tensor& b,
                 const ExecContext& ctx = ExecContext::global());

// Write-into-destination variants: `c` is resized (capacity-reusing) and
// fully overwritten.  Same kernels and accumulation order as the
// returning forms, so results are bit-identical; these exist so hot
// paths can target workspace-backed tensors without allocating.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& c,
                 const ExecContext& ctx = ExecContext::global());
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c,
                    const ExecContext& ctx = ExecContext::global());
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c,
                    const ExecContext& ctx = ExecContext::global());

/// Rank-2 transpose.
Tensor transpose2d(const Tensor& a);

}  // namespace ccq
