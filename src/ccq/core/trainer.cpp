#include "ccq/core/trainer.hpp"

#include <filesystem>

#include "ccq/common/logging.hpp"
#include "ccq/common/telemetry.hpp"
#include "ccq/nn/loss.hpp"
#include "ccq/tensor/serialize.hpp"

namespace ccq::core {

namespace {

/// Slice `batch` rows [lo, hi) into `out`, reusing its capacity.  Steady
/// state (fixed chunk width) performs no allocations.
void slice_batch_into(const data::Batch& batch, std::size_t lo,
                      std::size_t hi, data::Batch& out) {
  const std::size_t n = hi - lo;
  const std::size_t sample = batch.images.numel() / batch.size();
  Shape shape = batch.images.shape();
  shape[0] = n;
  out.images.resize(shape);
  const float* src = batch.images.data().data() + lo * sample;
  std::copy(src, src + n * sample, out.images.data().data());
  out.labels.assign(batch.labels.begin() + static_cast<long>(lo),
                    batch.labels.begin() + static_cast<long>(hi));
}

}  // namespace

EvalResult evaluate_batch(models::QuantModel& model, const data::Batch& batch,
                          std::size_t chunk, Workspace& ws) {
  CCQ_CHECK(batch.size() > 0, "empty evaluation batch");
  telemetry::ScopedTimer timer(telemetry::Timer::kProbeEval);
  model.set_training(false);
  nn::SoftmaxCrossEntropy loss(ws);
  double total_loss = 0.0, total_correct = 0.0;
  // The chunk staging batch is pool-backed and reused across chunks (the
  // first chunk is the widest, so later resizes stay within capacity).
  data::Batch part;
  {
    Shape shape = batch.images.shape();
    shape[0] = std::min(batch.size(), chunk);
    part.images = ws.tensor_uninit(std::move(shape));
  }
  for (std::size_t lo = 0; lo < batch.size(); lo += chunk) {
    const std::size_t hi = std::min(batch.size(), lo + chunk);
    slice_batch_into(batch, lo, hi, part);
    Tensor logits = model.forward(part.images, ws);
    total_loss += static_cast<double>(loss.forward(logits, part.labels)) *
                  static_cast<double>(part.size());
    total_correct +=
        static_cast<double>(
            nn::SoftmaxCrossEntropy::accuracy(logits, part.labels)) *
        static_cast<double>(part.size());
    ws.recycle(std::move(logits));
  }
  ws.recycle(std::move(part.images));
  model.set_training(true);
  EvalResult result;
  result.loss =
      static_cast<float>(total_loss / static_cast<double>(batch.size()));
  result.accuracy =
      static_cast<float>(total_correct / static_cast<double>(batch.size()));
  return result;
}

EvalResult evaluate(models::QuantModel& model, const data::Dataset& dataset,
                    std::size_t chunk, Workspace& ws) {
  return evaluate_batch(model, dataset.all(), chunk, ws);
}

float train_epoch(models::QuantModel& model, nn::Sgd& optimizer,
                  data::DataLoader& loader, Workspace& ws) {
  model.set_training(true);
  nn::SoftmaxCrossEntropy loss(ws);
  loader.start_epoch();
  data::Batch batch;
  Tensor grad_logits;  // pool-backed below; backward_into reuses capacity
  double total = 0.0;
  std::size_t samples = 0;
  while (loader.next(batch)) {
    optimizer.zero_grad();
    Tensor logits = model.forward(batch.images, ws);
    const float batch_loss = loss.forward(logits, batch.labels);
    if (grad_logits.empty()) {
      // First batch is the widest, so this capacity covers the epoch.
      grad_logits = ws.tensor_uninit(logits.shape());
    }
    ws.recycle(std::move(logits));
    loss.backward_into(grad_logits);
    model.backward(grad_logits, ws);
    optimizer.step();
    total += static_cast<double>(batch_loss) *
             static_cast<double>(batch.size());
    samples += batch.size();
  }
  if (!grad_logits.empty()) ws.recycle(std::move(grad_logits));
  CCQ_CHECK(samples > 0, "empty training epoch");
  return static_cast<float>(total / static_cast<double>(samples));
}

std::vector<EpochStat> train(models::QuantModel& model,
                             const data::Dataset& train_set,
                             const data::Dataset& val_set,
                             const TrainConfig& config,
                             nn::LrSchedule* schedule) {
  data::DataLoader loader(train_set, config.batch_size, config.augment,
                          Rng(config.seed));
  nn::Sgd optimizer(model.parameters(), config.sgd);
  std::optional<nn::StepDecayLr> step_decay;
  if (schedule == nullptr && config.lr_decay_every > 0) {
    step_decay.emplace(config.sgd.lr, config.lr_decay_every, config.lr_decay);
    schedule = &*step_decay;
  }
  std::vector<EpochStat> stats;
  stats.reserve(static_cast<std::size_t>(config.epochs));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const float train_loss = train_epoch(model, optimizer, loader);
    const EvalResult val = evaluate(model, val_set);
    EpochStat stat;
    stat.epoch = epoch;
    stat.train_loss = train_loss;
    stat.val_loss = val.loss;
    stat.val_accuracy = val.accuracy;
    stat.lr = optimizer.lr();
    stats.push_back(stat);
    CCQ_LOG_DEBUG << model.name() << " epoch " << epoch << " train_loss "
                  << train_loss << " val_acc " << val.accuracy;
    if (schedule != nullptr) {
      optimizer.set_lr(schedule->next(val.accuracy));
    }
  }
  return stats;
}

void save_parameters(models::QuantModel& model, const std::string& path) {
  TensorMap tensors;
  for (const auto* p : model.parameters()) {
    CCQ_CHECK(!tensors.count(p->name), "duplicate parameter name " + p->name);
    tensors.emplace(p->name, p->value);
  }
  // Persist non-learnable state too (BN running statistics) — without it
  // a reloaded model evaluates with uncalibrated normalisation.
  for (const auto& [name, tensor] : model.net().buffers()) {
    CCQ_CHECK(!tensors.count(name), "duplicate buffer name " + name);
    tensors.emplace(name, *tensor);
  }
  save_tensors(path, tensors);
}

bool load_parameters(models::QuantModel& model, const std::string& path) {
  if (!std::filesystem::exists(path)) return false;
  const TensorMap tensors = load_tensors(path);
  for (auto* p : model.parameters()) {
    const auto it = tensors.find(p->name);
    CCQ_CHECK(it != tensors.end(), "checkpoint missing " + p->name);
    CCQ_CHECK(it->second.shape() == p->value.shape(),
              "checkpoint shape mismatch for " + p->name);
    p->value = it->second;
  }
  for (auto& [name, tensor] : model.net().buffers()) {
    const auto it = tensors.find(name);
    CCQ_CHECK(it != tensors.end(), "checkpoint missing buffer " + name);
    CCQ_CHECK(it->second.shape() == tensor->shape(),
              "checkpoint shape mismatch for buffer " + name);
    *tensor = it->second;
  }
  return true;
}

EvalResult pretrain_cached(models::QuantModel& model,
                           const data::Dataset& train_set,
                           const data::Dataset& val_set,
                           const TrainConfig& config,
                           const std::string& cache_path) {
  if (!cache_path.empty() && load_parameters(model, cache_path)) {
    CCQ_LOG_INFO << model.name() << ": loaded pretrained parameters from "
                 << cache_path;
    return evaluate(model, val_set);
  }
  CCQ_LOG_INFO << model.name() << ": pretraining for " << config.epochs
               << " epochs";
  const auto stats = train(model, train_set, val_set, config);
  if (!cache_path.empty()) {
    const auto parent = std::filesystem::path(cache_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    save_parameters(model, cache_path);
  }
  return evaluate(model, val_set);
}

}  // namespace ccq::core
