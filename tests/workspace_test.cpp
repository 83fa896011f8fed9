// Tests for the Workspace buffer pool (common/workspace.hpp): bucket
// reuse and reset semantics, per-thread arena isolation under
// parallel_for, bit-identity of workspace-backed forwards/backwards with
// the legacy entry points at any thread count, and the steady-state
// zero-allocation guarantees (CCQ_COUNT_ALLOCS / alloc_stats).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "ccq/common/exec.hpp"
#include "ccq/common/workspace.hpp"
#include "ccq/core/trainer.hpp"
#include "ccq/data/synthetic.hpp"
#include "ccq/models/resnet.hpp"
#include "ccq/models/simple.hpp"
#include "ccq/nn/conv.hpp"
#include "ccq/nn/linear.hpp"
#include "ccq/nn/loss.hpp"
#include "ccq/nn/optim.hpp"

namespace ccq {
namespace {

/// True when the two tensors hold exactly the same bytes.
bool bit_identical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

Tensor random_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(shape);
  for (auto& v : x.data()) {
    v = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;
  }
  return x;
}

// ---- pool semantics ------------------------------------------------------

TEST(WorkspacePoolTest, AcquireReleaseReusesBucketedBuffer) {
  Workspace ws;
  FloatVec a = ws.acquire(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_GE(a.capacity(), 128u);  // full bucket capacity
  const float* ptr = a.data();
  ws.release(std::move(a));
  EXPECT_EQ(ws.pooled_buffers(), 1u);
  // Any request rounding to the same power-of-two bucket is served from
  // the pool, even at a different size.
  FloatVec b = ws.acquire(120);
  EXPECT_EQ(b.size(), 120u);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(ws.pooled_buffers(), 0u);
  ws.release(std::move(b));
}

TEST(WorkspacePoolTest, DistinctBucketsDoNotMix) {
  Workspace ws;
  ws.release(ws.acquire(64));    // bucket 6
  ws.release(ws.acquire(1000));  // bucket 10
  EXPECT_EQ(ws.pooled_buffers(), 2u);
  FloatVec small = ws.acquire(33);  // bucket 6 again
  EXPECT_GE(small.capacity(), 64u);
  EXPECT_LT(small.capacity(), 1000u);
  EXPECT_EQ(ws.pooled_buffers(), 1u);
  ws.release(std::move(small));
}

TEST(WorkspacePoolTest, ResetDropsFreeBuffersOnly) {
  Workspace ws;
  Tensor held = ws.tensor({4, 4});
  ws.release(ws.acquire(256));
  EXPECT_GT(ws.pooled_bytes(), 0u);
  ws.reset();
  EXPECT_EQ(ws.pooled_buffers(), 0u);
  EXPECT_EQ(ws.pooled_bytes(), 0u);
  // The outstanding tensor survives reset and can still be recycled.
  held.fill(3.0f);
  EXPECT_FLOAT_EQ(held.at(0), 3.0f);
  ws.recycle(std::move(held));
  EXPECT_EQ(ws.pooled_buffers(), 1u);
}

TEST(WorkspacePoolTest, TensorHelpersRoundTripThroughPool) {
  Workspace ws;
  Tensor z = ws.tensor({3, 5});
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
  ws.recycle(std::move(z));
  Tensor u = ws.tensor_uninit({3, 5});
  EXPECT_EQ(u.numel(), 15u);
  EXPECT_EQ(ws.pooled_buffers(), 0u);  // reused the recycled buffer
  ws.recycle(std::move(u));
}

TEST(WorkspacePoolTest, FloatLeaseReturnsOnScopeExit) {
  Workspace ws;
  {
    Workspace::FloatLease lease = ws.floats(512);
    EXPECT_EQ(lease.size(), 512u);
    lease.data()[0] = 1.0f;
    EXPECT_EQ(ws.pooled_buffers(), 0u);
  }
  EXPECT_EQ(ws.pooled_buffers(), 1u);
}

TEST(WorkspacePoolTest, IntegerLeasesPoolPerElementTypeAndReturn) {
  // The igemm vector kernels lease int16/uint8 activation panels every
  // call — the same acquire-on-scope contract as floats, segregated per
  // element type so buffers never change interpretation.
  Workspace ws;
  const void* short_ptr = nullptr;
  const void* byte_ptr = nullptr;
  {
    Workspace::ShortLease s = ws.shorts(300);
    Workspace::ByteLease b = ws.bytes(700);
    EXPECT_EQ(s.size(), 300u);
    EXPECT_EQ(b.size(), 700u);
    short_ptr = s.data();
    byte_ptr = b.data();
    EXPECT_EQ(ws.pooled_buffers(), 0u);
  }
  EXPECT_EQ(ws.pooled_buffers(), 2u);
  {
    // Same buckets → the same buffers come back, warm.
    Workspace::ShortLease s = ws.shorts(280);
    Workspace::ByteLease b = ws.bytes(600);
    EXPECT_EQ(static_cast<const void*>(s.data()), short_ptr);
    EXPECT_EQ(static_cast<const void*>(b.data()), byte_ptr);
    EXPECT_EQ(ws.pooled_buffers(), 0u);
  }
  ws.reset();
  EXPECT_EQ(ws.pooled_buffers(), 0u);
}

TEST(WorkspacePoolTest, IntegerPoolStorageIsCacheLineAligned) {
  // alloc.hpp over-aligns the integer pools to 64 bytes so SIMD kernels
  // get split-free loads from the buffer base.
  Workspace ws;
  Workspace::IntLease i = ws.ints(17);
  Workspace::ShortLease s = ws.shorts(17);
  Workspace::ByteLease b = ws.bytes(17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u);
}

// ---- per-thread arenas ---------------------------------------------------

TEST(WorkspaceArenaTest, ArenasAreThreadLocal) {
  Workspace ws;
  const float* worker_ptr = nullptr;
  std::thread worker([&] {
    FloatVec buf = ws.acquire(256);
    worker_ptr = buf.data();
    ws.release(std::move(buf));
  });
  worker.join();
  EXPECT_EQ(ws.pooled_buffers(), 1u);
  // The main thread must not be handed the worker's buffer: its own
  // arena is empty, so this acquire is a fresh allocation.
  FloatVec mine = ws.acquire(256);
  EXPECT_NE(mine.data(), worker_ptr);
  EXPECT_EQ(ws.pooled_buffers(), 1u);  // worker's buffer still pooled
  ws.release(std::move(mine));
  EXPECT_EQ(ws.pooled_buffers(), 2u);
}

TEST(WorkspaceArenaTest, ParallelWorkersNeverShareBuffers) {
  Workspace ws;
  ExecContext ctx(4);
  // Each chunk stamps its leased buffer with a chunk-unique pattern and
  // verifies it before releasing: crossed or shared buffers would tear.
  for (int round = 0; round < 8; ++round) {
    parallel_for(ctx, 16, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) {
        Workspace::FloatLease lease = ws.floats(1024);
        const float stamp = static_cast<float>(c + 1);
        for (std::size_t i = 0; i < lease.size(); ++i) {
          lease.data()[i] = stamp;
        }
        for (std::size_t i = 0; i < lease.size(); ++i) {
          ASSERT_EQ(lease.data()[i], stamp);
        }
      }
    });
  }
  // Reuse stayed thread-local: no more pooled buffers than pool threads.
  EXPECT_LE(ws.pooled_buffers(), ctx.threads());
}

// ---- bit-identity between the scratch pool and a local workspace ----------

TEST(WorkspaceBitIdentityTest, Conv2dForwardBackwardMatchLegacy) {
  Rng rng(5);
  nn::Conv2d conv(3, 8, 3, 1, 1, true, rng);
  const Tensor x = random_input({2, 3, 8, 8}, 21);
  const Tensor g = random_input({2, 8, 8, 8}, 22);

  const Tensor y_legacy = conv.forward(x, Workspace::scratch());
  for (auto* p : conv.parameters()) p->zero_grad();
  const Tensor gx_legacy = conv.backward(g, Workspace::scratch());

  Workspace ws;
  const Tensor y_ws = conv.forward(x, ws);
  for (auto* p : conv.parameters()) p->zero_grad();
  const Tensor gx_ws = conv.backward(g, ws);

  EXPECT_TRUE(bit_identical(y_legacy, y_ws));
  EXPECT_TRUE(bit_identical(gx_legacy, gx_ws));
}

TEST(WorkspaceBitIdentityTest, LinearForwardBackwardMatchLegacy) {
  Rng rng(6);
  nn::Linear fc(24, 10, true, rng);
  const Tensor x = random_input({4, 24}, 31);
  const Tensor g = random_input({4, 10}, 32);

  const Tensor y_legacy = fc.forward(x, Workspace::scratch());
  for (auto* p : fc.parameters()) p->zero_grad();
  const Tensor gx_legacy = fc.backward(g, Workspace::scratch());

  Workspace ws;
  const Tensor y_ws = fc.forward(x, ws);
  for (auto* p : fc.parameters()) p->zero_grad();
  const Tensor gx_ws = fc.backward(g, ws);

  EXPECT_TRUE(bit_identical(y_legacy, y_ws));
  EXPECT_TRUE(bit_identical(gx_legacy, gx_ws));
}

models::QuantModel tiny_resnet(std::uint64_t seed = 7) {
  models::ModelConfig config;
  config.num_classes = 10;
  config.image_size = 16;
  config.width_multiplier = 0.25f;
  config.seed = seed;
  quant::QuantFactory factory{.policy = quant::Policy::kPact};
  return models::make_resnet20(config, factory, quant::BitLadder({8, 4, 2}));
}

TEST(WorkspaceBitIdentityTest, ResNetForwardMatchesAcrossThreadCounts) {
  const Tensor x = random_input({2, 3, 16, 16}, 41);
  auto model = tiny_resnet();
  model.set_training(false);

  const Tensor y_legacy = model.forward(x, Workspace::scratch());  // serial
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ExecContext ctx(threads);
    model.net().set_exec_context(&ctx);
    Workspace ws;
    Tensor y = model.forward(x, ws);
    EXPECT_TRUE(bit_identical(y_legacy, y)) << threads << " threads";
    ws.recycle(std::move(y));
  }
  model.net().set_exec_context(nullptr);
}

TEST(WorkspaceBitIdentityTest, ResNetTrainStepMatchesLegacy) {
  const Tensor x = random_input({2, 3, 16, 16}, 51);
  const Tensor g = random_input({2, 10}, 52);

  auto a = tiny_resnet();
  a.forward(x, Workspace::scratch());
  for (auto* p : a.parameters()) p->zero_grad();
  const Tensor gx_legacy = a.net().backward(g, Workspace::scratch());

  auto b = tiny_resnet();  // same seed -> identical parameters
  Workspace ws;
  Tensor y = b.forward(x, ws);
  ws.recycle(std::move(y));
  for (auto* p : b.parameters()) p->zero_grad();
  const Tensor gx_ws = b.net().backward(g, ws);

  EXPECT_TRUE(bit_identical(gx_legacy, gx_ws));
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(bit_identical(pa[i]->grad, pb[i]->grad)) << pa[i]->name;
  }
}

// ---- steady-state allocation regression ----------------------------------

TEST(WorkspaceAllocTest, CounterSeesTensorStorage) {
  if (!alloc_stats::enabled()) GTEST_SKIP() << "CCQ_COUNT_ALLOCS is off";
  alloc_stats::reset();
  Tensor t({16, 16});
  EXPECT_GE(alloc_stats::count(), 1u);
  EXPECT_GE(alloc_stats::bytes(), 16u * 16u * sizeof(float));
}

TEST(WorkspaceAllocTest, WarmEvalModeResNetForwardIsAllocationFree) {
  if (!alloc_stats::enabled()) GTEST_SKIP() << "CCQ_COUNT_ALLOCS is off";
  auto model = tiny_resnet();
  model.set_training(false);
  const Tensor x = random_input({2, 3, 16, 16}, 61);
  Workspace ws;
  // Warm-up populates the pool and every layer's capacity-reusing cache.
  ws.recycle(model.forward(x, ws));
  alloc_stats::reset();
  Tensor y = ws.tensor({1});  // pool miss allocates: counter is live
  EXPECT_GE(alloc_stats::count(), 1u);
  ws.recycle(std::move(y));

  alloc_stats::reset();
  Tensor warm = model.forward(x, ws);
  EXPECT_EQ(alloc_stats::count(), 0u)
      << "warm eval-mode forward must not touch the heap";
  ws.recycle(std::move(warm));
}

TEST(WorkspaceAllocTest, WarmEvaluateBatchIsAllocationFree) {
  if (!alloc_stats::enabled()) GTEST_SKIP() << "CCQ_COUNT_ALLOCS is off";
  auto model = tiny_resnet();
  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.samples_per_class = 4;
  dc.height = dc.width = 16;
  dc.seed = 71;
  const data::Dataset dataset = data::make_synthetic_vision(dc);
  const data::Batch batch = dataset.all();

  Workspace ws;
  const core::EvalResult cold = core::evaluate_batch(model, batch, 16, ws);
  alloc_stats::reset();
  const core::EvalResult warm = core::evaluate_batch(model, batch, 16, ws);
  EXPECT_EQ(alloc_stats::count(), 0u)
      << "warm evaluate_batch must not touch the heap";
  EXPECT_FLOAT_EQ(cold.loss, warm.loss);
  EXPECT_FLOAT_EQ(cold.accuracy, warm.accuracy);
}

TEST(WorkspaceAllocTest, WarmLoaderBatchIsAllocationFree) {
  // The loader writes each augmented image straight into its batch row,
  // so a second batch into the same Batch touches no float storage.
  if (!alloc_stats::enabled()) GTEST_SKIP() << "CCQ_COUNT_ALLOCS is off";
  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.samples_per_class = 8;
  dc.height = dc.width = 16;
  dc.seed = 91;
  const data::Dataset dataset = data::make_synthetic_vision(dc);
  data::DataLoader loader(dataset, 32, data::Augment{}, Rng(92));
  data::Batch batch;
  ASSERT_TRUE(loader.next(batch));
  alloc_stats::reset();
  ASSERT_TRUE(loader.next(batch));
  EXPECT_EQ(alloc_stats::count(), 0u)
      << "a warm augmented batch must not touch the heap";
}

TEST(WorkspaceAllocTest, WarmTrainingStepIsAllocationFree) {
  // A recovery-epoch SGD step (forward, loss, backward, update) leases
  // every float buffer — the conv's folded sample-group panels included —
  // from the pool, so once one step has warmed it the next allocates
  // nothing.  40 samples split the SimpleCNN's first conv into two groups.
  if (!alloc_stats::enabled()) GTEST_SKIP() << "CCQ_COUNT_ALLOCS is off";
  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.samples_per_class = 4;
  dc.height = dc.width = 16;
  dc.seed = 81;
  const data::Batch batch = data::make_synthetic_vision(dc).all();
  models::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = 16;
  mc.width_multiplier = 0.25f;
  mc.seed = 7;
  const quant::QuantFactory factory{.policy = quant::Policy::kPact};
  models::QuantModel nets[] = {
      tiny_resnet(),
      models::make_simple_cnn(mc, factory, quant::BitLadder({8, 4, 2}))};
  for (models::QuantModel& model : nets) {
    Workspace ws;
    nn::Sgd optimizer(model.parameters(), nn::SgdConfig{});
    nn::SoftmaxCrossEntropy loss(ws);
    model.set_training(true);
    Tensor grad = ws.tensor_uninit({batch.size(), 10});
    auto step = [&] {
      optimizer.zero_grad();
      Tensor logits = model.forward(batch.images, ws);
      loss.forward(logits, batch.labels);
      ws.recycle(std::move(logits));
      loss.backward_into(grad);
      model.backward(grad, ws);
      optimizer.step();
    };
    step();
    alloc_stats::reset();
    step();
    EXPECT_EQ(alloc_stats::count(), 0u)
        << "warm " << model.name() << " training step must not touch the heap";
  }
}

}  // namespace
}  // namespace ccq
