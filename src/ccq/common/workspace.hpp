// Workspace: a size-bucketed buffer pool for steady-state allocation reuse.
//
// The CCQ loop (Algorithm 1) is evaluation-heavy — every quantization
// step runs U probe forwards plus full-validation sweeps — and each
// forward used to heap-allocate its output tensors, im2col column
// buffers and quantized-weight temporaries from scratch.  A Workspace
// breaks that churn: layers acquire buffers from it, hand results back
// via `recycle`, and after one warm-up pass every acquisition is served
// from the pool (zero heap allocations; assert with CCQ_COUNT_ALLOCS /
// `alloc_stats`, see alloc.hpp).
//
// Design:
//   * Buffers live in power-of-two capacity buckets: `acquire(n)` pops
//     from the bucket for the smallest power of two >= n, so a buffer
//     recycled at one size is reusable for any request that rounds to
//     the same bucket.  A miss allocates one buffer at full bucket
//     capacity; steady-state shape jitter (e.g. a ragged final eval
//     chunk) therefore still hits the pool.
//   * Buffers are segregated into per-thread sub-arenas keyed by the
//     releasing/acquiring thread, so `parallel_for` workers never
//     exchange buffers — reuse stays thread-local (cache-warm) and the
//     pool's contents are deterministic per thread.  All bookkeeping is
//     mutex-guarded, so concurrent acquire/release from inside a
//     parallel region is safe.
//   * Pooling never changes numerics: a workspace tensor has the same
//     shape/content as its heap-allocated counterpart, so workspace and
//     legacy forwards are bit-identical (regression-tested).
//
// Lifetime contract: `reset()` frees only *pooled* (free) buffers —
// outstanding tensors and leases are unaffected and may still be
// recycled afterwards.  The Workspace must outlive its leases.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ccq/common/alloc.hpp"
#include "ccq/tensor/tensor.hpp"

namespace ccq {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // ---- raw buffer pool --------------------------------------------------
  /// A buffer of exactly `n` floats with unspecified contents.  Served
  /// from the calling thread's arena when a bucket match exists; falls
  /// back to one heap allocation of the full bucket capacity.
  FloatVec acquire(std::size_t n);

  /// Return a buffer to the calling thread's arena.  Zero-capacity
  /// buffers are dropped.
  void release(FloatVec&& buf);

  /// RAII scratch lease: acquires on construction, releases back to the
  /// pool on destruction.  Movable, not copyable.
  class FloatLease {
   public:
    FloatLease(Workspace& ws, std::size_t n)
        : ws_(&ws), buf_(ws.acquire(n)) {}
    FloatLease(FloatLease&& other) noexcept
        : ws_(other.ws_), buf_(std::move(other.buf_)) {
      other.ws_ = nullptr;
    }
    FloatLease& operator=(FloatLease&&) = delete;
    FloatLease(const FloatLease&) = delete;
    FloatLease& operator=(const FloatLease&) = delete;
    ~FloatLease() {
      if (ws_ != nullptr) ws_->release(std::move(buf_));
    }

    float* data() { return buf_.data(); }
    const float* data() const { return buf_.data(); }
    std::size_t size() const { return buf_.size(); }
    std::span<float> span() { return {buf_.data(), buf_.size()}; }

   private:
    Workspace* ws_;
    FloatVec buf_;
  };

  /// Lease `n` floats of scratch (unspecified contents).
  FloatLease floats(std::size_t n) { return FloatLease(*this, n); }

  // ---- integer buffer pools ---------------------------------------------
  // Same bucket/arena machinery over int32 / byte storage: the integer
  // engine leases its activation code maps here (u8 on the serving path,
  // int32 on the reference one), so warm integer inference is
  // allocation-free alongside the float pool.  All integer pool storage
  // is 64-byte aligned (alloc.hpp) for split-free SIMD loads from the
  // buffer base.

  /// A buffer of exactly `n` int32s with unspecified contents.
  Int32Vec acquire_ints(std::size_t n);

  /// Return an int32 buffer to the calling thread's arena.
  void release_ints(Int32Vec&& buf);

  /// RAII int32 scratch lease (mirror of FloatLease).
  class IntLease {
   public:
    IntLease(Workspace& ws, std::size_t n)
        : ws_(&ws), buf_(ws.acquire_ints(n)) {}
    IntLease(IntLease&& other) noexcept
        : ws_(other.ws_), buf_(std::move(other.buf_)) {
      other.ws_ = nullptr;
    }
    IntLease& operator=(IntLease&&) = delete;
    IntLease(const IntLease&) = delete;
    IntLease& operator=(const IntLease&) = delete;
    ~IntLease() {
      if (ws_ != nullptr) ws_->release_ints(std::move(buf_));
    }

    std::int32_t* data() { return buf_.data(); }
    const std::int32_t* data() const { return buf_.data(); }
    std::size_t size() const { return buf_.size(); }
    std::span<std::int32_t> span() { return {buf_.data(), buf_.size()}; }

   private:
    Workspace* ws_;
    Int32Vec buf_;
  };

  /// Lease `n` int32s of scratch (unspecified contents).
  IntLease ints(std::size_t n) { return IntLease(*this, n); }

  /// A buffer of exactly `n` bytes with unspecified contents.
  ByteVec acquire_bytes(std::size_t n);

  /// Return a byte buffer to the calling thread's arena.
  void release_bytes(ByteVec&& buf);

  /// RAII byte scratch lease (the serving engine's u8 code maps).
  class ByteLease {
   public:
    ByteLease(Workspace& ws, std::size_t n)
        : ws_(&ws), buf_(ws.acquire_bytes(n)) {}
    ByteLease(ByteLease&& other) noexcept
        : ws_(other.ws_), buf_(std::move(other.buf_)) {
      other.ws_ = nullptr;
    }
    ByteLease& operator=(ByteLease&&) = delete;
    ByteLease(const ByteLease&) = delete;
    ByteLease& operator=(const ByteLease&) = delete;
    ~ByteLease() {
      if (ws_ != nullptr) ws_->release_bytes(std::move(buf_));
    }

    std::uint8_t* data() { return buf_.data(); }
    const std::uint8_t* data() const { return buf_.data(); }
    std::size_t size() const { return buf_.size(); }
    std::span<std::uint8_t> span() { return {buf_.data(), buf_.size()}; }

   private:
    Workspace* ws_;
    ByteVec buf_;
  };

  /// Lease `n` bytes of scratch (unspecified contents).
  ByteLease bytes(std::size_t n) { return ByteLease(*this, n); }

  // ---- pool-backed tensors (inline: header-only Tensor bridge) ----------
  /// Zero-filled tensor backed by pool storage.
  Tensor tensor(Shape shape) {
    const std::size_t n = shape_numel(shape);
    FloatVec buf = acquire(n);
    std::fill(buf.begin(), buf.end(), 0.0f);
    return Tensor::adopt(std::move(shape), std::move(buf));
  }

  /// Pool-backed tensor with unspecified contents (for outputs that are
  /// fully overwritten).
  Tensor tensor_uninit(Shape shape) {
    const std::size_t n = shape_numel(shape);
    return Tensor::adopt(std::move(shape), acquire(n));
  }

  /// Return a tensor's storage to the pool; `t` is left empty.
  void recycle(Tensor&& t) { release(t.release_storage()); }

  // ---- maintenance ------------------------------------------------------
  /// Drop every pooled (free) buffer.  Outstanding tensors/leases are
  /// untouched and may still be recycled into the (now empty) pool.
  void reset();

  /// Free buffers currently pooled across all arenas (test hook).
  std::size_t pooled_buffers() const;
  /// Bytes of float storage those buffers hold (by capacity).
  std::size_t pooled_bytes() const;

  /// Process-global workspace used by the legacy `forward(x)` shims, so
  /// callers that never thread a Workspace through still get pooling.
  static Workspace& scratch();

 private:
  // One free-list vector per power-of-two capacity bucket; float, int32
  // and byte storage pool separately (buffers never change element
  // type).
  struct Arena {
    std::vector<std::vector<FloatVec>> buckets;
    std::vector<std::vector<Int32Vec>> int_buckets;
    std::vector<std::vector<ByteVec>> byte_buckets;
  };

  template <typename Vec>
  Vec acquire_impl(std::vector<std::vector<Vec>> Arena::* buckets,
                   std::size_t n);
  template <typename Vec>
  void release_impl(std::vector<std::vector<Vec>> Arena::* buckets,
                    Vec&& buf);

  Arena& local_arena_locked();  // requires mutex_ held

  mutable std::mutex mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<Arena>> arenas_;
};

}  // namespace ccq
