#include "ccq/common/workspace.hpp"

#include <algorithm>
#include <bit>

#include "ccq/common/telemetry.hpp"

namespace ccq {

namespace {

// Bucket for a *request* of n floats: smallest power of two >= n.
std::size_t bucket_for_request(std::size_t n) {
  return n <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(n - 1));
}

// Bucket a *buffer* files under: largest power of two <= capacity, so
// any request that rounds up to this bucket fits without reallocating.
std::size_t bucket_for_capacity(std::size_t cap) {
  return static_cast<std::size_t>(std::bit_width(cap)) - 1;
}

}  // namespace

Workspace::Arena& Workspace::local_arena_locked() {
  auto& slot = arenas_[std::this_thread::get_id()];
  if (slot == nullptr) slot = std::make_unique<Arena>();
  return *slot;
}

template <typename Vec>
Vec Workspace::acquire_impl(std::vector<std::vector<Vec>> Arena::* buckets,
                            std::size_t n) {
  if (n == 0) return {};
  telemetry::ScopedTimer timer(telemetry::Timer::kWorkspaceAcquire);
  const std::size_t b = bucket_for_request(n);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Arena& arena = local_arena_locked();
    auto& pool = arena.*buckets;
    if (b < pool.size() && !pool[b].empty()) {
      Vec buf = std::move(pool[b].back());
      pool[b].pop_back();
      buf.resize(n);  // capacity >= bucket size >= n: no allocation
      telemetry::add(telemetry::Counter::kWorkspaceHits);
      return buf;
    }
  }
  // Miss: allocate once at full bucket capacity so later requests of any
  // size in this bucket reuse it.
  telemetry::add(telemetry::Counter::kWorkspaceMisses);
  Vec buf;
  buf.reserve(std::size_t{1} << b);
  buf.resize(n);
  return buf;
}

template <typename Vec>
void Workspace::release_impl(std::vector<std::vector<Vec>> Arena::* buckets,
                             Vec&& buf) {
  if (buf.capacity() == 0) return;
  const std::size_t b = bucket_for_capacity(buf.capacity());
  std::lock_guard<std::mutex> lock(mutex_);
  Arena& arena = local_arena_locked();
  auto& pool = arena.*buckets;
  if (pool.size() <= b) pool.resize(b + 1);
  pool[b].push_back(std::move(buf));
}

FloatVec Workspace::acquire(std::size_t n) {
  return acquire_impl(&Arena::buckets, n);
}

void Workspace::release(FloatVec&& buf) {
  release_impl(&Arena::buckets, std::move(buf));
}

Int32Vec Workspace::acquire_ints(std::size_t n) {
  return acquire_impl(&Arena::int_buckets, n);
}

void Workspace::release_ints(Int32Vec&& buf) {
  release_impl(&Arena::int_buckets, std::move(buf));
}

ByteVec Workspace::acquire_bytes(std::size_t n) {
  return acquire_impl(&Arena::byte_buckets, n);
}

void Workspace::release_bytes(ByteVec&& buf) {
  release_impl(&Arena::byte_buckets, std::move(buf));
}

void Workspace::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [tid, arena] : arenas_) {
    for (auto& bucket : arena->buckets) bucket.clear();
    for (auto& bucket : arena->int_buckets) bucket.clear();
    for (auto& bucket : arena->byte_buckets) bucket.clear();
  }
}

std::size_t Workspace::pooled_buffers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [tid, arena] : arenas_) {
    for (const auto& bucket : arena->buckets) n += bucket.size();
    for (const auto& bucket : arena->int_buckets) n += bucket.size();
    for (const auto& bucket : arena->byte_buckets) n += bucket.size();
  }
  return n;
}

std::size_t Workspace::pooled_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [tid, arena] : arenas_) {
    for (const auto& bucket : arena->buckets) {
      for (const auto& buf : bucket) bytes += buf.capacity() * sizeof(float);
    }
    for (const auto& bucket : arena->int_buckets) {
      for (const auto& buf : bucket) {
        bytes += buf.capacity() * sizeof(std::int32_t);
      }
    }
    for (const auto& bucket : arena->byte_buckets) {
      for (const auto& buf : bucket) bytes += buf.capacity();
    }
  }
  return bytes;
}

Workspace& Workspace::scratch() {
  static Workspace ws;
  return ws;
}

}  // namespace ccq
