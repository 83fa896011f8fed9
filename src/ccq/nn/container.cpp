#include "ccq/nn/container.hpp"

#include <algorithm>

namespace ccq::nn {

Module& Sequential::add_module(ModulePtr m) {
  CCQ_CHECK(m != nullptr, "cannot add a null module");
  children_.push_back(std::move(m));
  return *children_.back();
}

Tensor Sequential::forward(const Tensor& x, Workspace& ws) {
  if (children_.empty()) {
    Tensor y = ws.tensor_uninit(x.shape());
    std::copy(x.data().begin(), x.data().end(), y.data().begin());
    return y;
  }
  // Recycle each intermediate as soon as the consuming child has run:
  // layers copy whatever backward needs out of their input, so nothing
  // retains a reference into the recycled storage.
  Tensor y = children_.front()->forward(x, ws);
  for (std::size_t i = 1; i < children_.size(); ++i) {
    Tensor next = children_[i]->forward(y, ws);
    ws.recycle(std::move(y));
    y = std::move(next);
  }
  return y;
}

Tensor Sequential::backward(const Tensor& grad_out, Workspace& ws) {
  if (children_.empty()) {
    Tensor g = ws.tensor_uninit(grad_out.shape());
    std::copy(grad_out.data().begin(), grad_out.data().end(),
              g.data().begin());
    return g;
  }
  Tensor g = children_.back()->backward(grad_out, ws);
  for (auto it = children_.rbegin() + 1; it != children_.rend(); ++it) {
    Tensor next = (*it)->backward(g, ws);
    ws.recycle(std::move(g));
    g = std::move(next);
  }
  return g;
}

void Sequential::backward_params(const Tensor& grad_out, Workspace& ws) {
  std::size_t first = 0;
  while (first < children_.size() && children_[first]->parameters().empty()) {
    ++first;
  }
  // `cur` is the gradient at the current child's output: grad_out, then
  // each gradient the loop forms, which `g` owns.
  const Tensor* cur = &grad_out;
  Tensor g;
  for (std::size_t i = children_.size(); i-- > first + 1;) {
    Tensor next = children_[i]->backward(*cur, ws);
    ws.recycle(std::move(g));
    g = std::move(next);
    cur = &g;
  }
  if (first < children_.size()) children_[first]->backward_params(*cur, ws);
  ws.recycle(std::move(g));
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& child : children_) child->collect_parameters(out);
}

void Sequential::collect_buffers(std::vector<NamedBuffer>& out) {
  for (auto& child : children_) child->collect_buffers(out);
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& child : children_) child->set_training(training);
}

Module& Sequential::child(std::size_t i) {
  CCQ_CHECK(i < children_.size(), "child index out of range");
  return *children_[i];
}

void Sequential::visit(const std::function<void(Module&)>& fn) {
  fn(*this);
  for (auto& child : children_) child->visit(fn);
}

Residual::Residual(ModulePtr main, ModulePtr shortcut, ModulePtr activation)
    : main_(std::move(main)),
      shortcut_(std::move(shortcut)),
      activation_(std::move(activation)) {
  CCQ_CHECK(main_ != nullptr, "residual block needs a main path");
}

Tensor Residual::forward(const Tensor& x, Workspace& ws) {
  Tensor y = main_->forward(x, ws);
  if (shortcut_ != nullptr) {
    Tensor s = shortcut_->forward(x, ws);
    y += s;
    ws.recycle(std::move(s));
  } else {
    CCQ_CHECK(same_shape(y, x),
              "identity shortcut requires matching shapes; use a projection");
    y += x;
  }
  if (activation_ != nullptr) {
    Tensor a = activation_->forward(y, ws);
    ws.recycle(std::move(y));
    y = std::move(a);
  }
  return y;
}

Tensor Residual::backward(const Tensor& grad_out, Workspace& ws) {
  // Avoid the legacy `Tensor g = grad_out` copy: read through a pointer
  // when there is no activation to differentiate.
  Tensor g_own;
  const Tensor* g = &grad_out;
  if (activation_ != nullptr) {
    g_own = activation_->backward(grad_out, ws);
    g = &g_own;
  }
  Tensor gx = main_->backward(*g, ws);
  if (shortcut_ != nullptr) {
    Tensor gs = shortcut_->backward(*g, ws);
    gx += gs;
    ws.recycle(std::move(gs));
  } else {
    gx += *g;
  }
  if (activation_ != nullptr) ws.recycle(std::move(g_own));
  return gx;
}

void Residual::collect_parameters(std::vector<Parameter*>& out) {
  main_->collect_parameters(out);
  if (shortcut_ != nullptr) shortcut_->collect_parameters(out);
  if (activation_ != nullptr) activation_->collect_parameters(out);
}

void Residual::collect_buffers(std::vector<NamedBuffer>& out) {
  main_->collect_buffers(out);
  if (shortcut_ != nullptr) shortcut_->collect_buffers(out);
  if (activation_ != nullptr) activation_->collect_buffers(out);
}

void Residual::set_training(bool training) {
  Module::set_training(training);
  main_->set_training(training);
  if (shortcut_ != nullptr) shortcut_->set_training(training);
  if (activation_ != nullptr) activation_->set_training(training);
}

void Residual::visit(const std::function<void(Module&)>& fn) {
  fn(*this);
  main_->visit(fn);
  if (shortcut_ != nullptr) shortcut_->visit(fn);
  if (activation_ != nullptr) activation_->visit(fn);
}

}  // namespace ccq::nn
