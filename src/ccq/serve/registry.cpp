#include "ccq/serve/registry.hpp"

#include <algorithm>
#include <cmath>

#include "ccq/common/telemetry.hpp"

namespace ccq::serve {

namespace detail {

LoadedModel::LoadedModel(std::string name_in, std::uint64_t version_in,
                         hw::IntegerNetwork net_in, ModelConfig config_in)
    : name(std::move(name_in)),
      version(version_in),
      config(config_in),
      net(std::move(net_in)) {
  using telemetry::NamedKind;
  const std::string prefix = "serve." + name + ".";
  metrics.requests =
      telemetry::named_metric(NamedKind::kCounter, prefix + "requests");
  metrics.rejected =
      telemetry::named_metric(NamedKind::kCounter, prefix + "rejected");
  metrics.batches =
      telemetry::named_metric(NamedKind::kCounter, prefix + "batches");
  metrics.batches_inline =
      telemetry::named_metric(NamedKind::kCounter, prefix + "batches_inline");
  metrics.queue_depth =
      telemetry::named_metric(NamedKind::kGauge, prefix + "queue_depth");
  metrics.latency =
      telemetry::named_metric(NamedKind::kTimer, prefix + "latency");
  metrics.batch_size =
      telemetry::named_metric(NamedKind::kTimer, prefix + "batch_size");
  metrics.deadline_miss =
      telemetry::named_metric(NamedKind::kCounter, prefix + "deadline_miss");
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    const std::string suffix = priority_name(static_cast<Priority>(p));
    metrics.shed[p] = telemetry::named_metric(NamedKind::kCounter,
                                              prefix + "shed." + suffix);
    metrics.latency_by_priority[p] = telemetry::named_metric(
        NamedKind::kTimer, prefix + "latency." + suffix);
  }
  metrics.p99_vs_slo =
      telemetry::named_metric(NamedKind::kGauge, prefix + "p99_vs_slo");
  metrics.stage_queue =
      telemetry::named_metric(NamedKind::kTimer, prefix + "stage.queue");
}

}  // namespace detail

ModelHandle ModelRegistry::publish(std::string name, hw::IntegerNetwork net,
                                   ModelConfig config) {
  CCQ_CHECK(!name.empty(), "model name must be non-empty");
  CCQ_CHECK(config.max_batch >= 1, "max_batch must be at least 1");
  CCQ_CHECK(config.queue_capacity >= 1, "queue_capacity must be at least 1");
  CCQ_CHECK(config.weight > 0.0 && std::isfinite(config.weight),
            "model weight must be positive and finite, got " +
                std::to_string(config.weight));
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  auto model = std::make_shared<detail::LoadedModel>(
      std::move(name), entry.next_version++, std::move(net), config);
  entry.versions.push_back(model);
  return ModelHandle(std::move(model));
}

ModelHandle ModelRegistry::resolve(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.versions.empty()) {
    std::string known;
    for (const auto& [candidate, entry] : entries_) {
      if (entry.versions.empty()) continue;
      known += known.empty() ? candidate : ", " + candidate;
    }
    throw ModelNotFoundError("no model named " + name + " (loaded: " +
                             (known.empty() ? "none" : known) + ")");
  }
  return ModelHandle(it->second.versions.back());
}

ModelHandle ModelRegistry::resolve(const std::string& name,
                                   std::uint64_t version) const {
  if (version == 0) return resolve(name);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    for (const auto& model : it->second.versions) {
      if (model->version == version) return ModelHandle(model);
    }
  }
  std::string available;
  if (it != entries_.end()) {
    for (const auto& model : it->second.versions) {
      available += (available.empty() ? "v" : ", v") +
                   std::to_string(model->version);
    }
  }
  throw ModelNotFoundError(
      "no version " + std::to_string(version) + " of model " + name +
      " (loaded: " + (available.empty() ? "none" : available) + ")");
}

bool ModelRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it != entries_.end() && !it->second.versions.empty();
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.versions.empty()) out.push_back(name);
  }
  return out;
}

std::vector<ModelRegistry::VersionInfo> ModelRegistry::versions(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<VersionInfo> out;
  const auto it = entries_.find(name);
  if (it == entries_.end()) return out;
  for (const auto& model : it->second.versions) {
    out.push_back({model->version, model == it->second.versions.back()});
  }
  return out;
}

std::vector<std::shared_ptr<detail::LoadedModel>> ModelRegistry::take(
    const std::string& name, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<detail::LoadedModel>> removed;
  const auto it = entries_.find(name);
  if (it == entries_.end()) return removed;
  auto& versions = it->second.versions;
  const auto match = std::find_if(
      versions.begin(), versions.end(),
      [&](const auto& model) { return model->version == version; });
  if (match != versions.end()) {
    removed.push_back(*match);
    versions.erase(match);
  }
  return removed;
}

std::vector<std::shared_ptr<detail::LoadedModel>> ModelRegistry::take_all(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<detail::LoadedModel>> removed;
  const auto it = entries_.find(name);
  if (it == entries_.end()) return removed;
  removed = std::move(it->second.versions);
  it->second.versions.clear();
  return removed;
}

}  // namespace ccq::serve
