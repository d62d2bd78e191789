#pragma once

// Shared vocabulary of the shipped vgpu-grade task suite.
//
// Each tasks/task_<id>.cpp derives one grading task from a Table-I
// microbenchmark pair: the task spec reuses the benchmark's deterministic
// inputs and host reference, and add_pair registers the naive half of the
// pair as a must-fail submission and the optimized half as the must-pass
// baseline submission. Submissions are ordinary KernelPlugins written
// against the <vgpu.hpp> facade — exactly what an external author would
// write.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "grade/plugin.hpp"
#include "grade/task.hpp"
#include "linalg/generate.hpp"

namespace cumb::gradetasks {

using vgpu::grade::Expectation;
using vgpu::grade::GradeContext;
using vgpu::grade::KernelPlugin;
using vgpu::grade::PluginRegistry;
using vgpu::grade::TaskData;
using vgpu::grade::TaskRegistry;
using vgpu::grade::TaskSpec;

/// Base class carrying the registry identity, so concrete plugins only
/// implement the three hooks.
class TaskPlugin : public KernelPlugin {
 public:
  TaskPlugin(std::string task, std::string name)
      : task_(std::move(task)), name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  std::string_view task() const override { return task_; }

 private:
  std::string task_;
  std::string name_;
};

/// Register `spec` and its two submissions. Plugin type P is constructible
/// from (task, name, optimized): "<id>.naive" is P(id, name, false) and must
/// fail, "<id>.optimized" is P(id, name, true), must pass and is the task's
/// baseline submission.
template <typename P>
void add_pair(TaskRegistry& tasks, PluginRegistry& plugins, TaskSpec spec) {
  const std::string id = spec.id;
  spec.baseline_submission = id + ".optimized";
  tasks.add(std::move(spec));
  for (bool optimized : {false, true}) {
    std::string name = id + (optimized ? ".optimized" : ".naive");
    plugins.add(id, name,
                optimized ? Expectation::kMustPass : Expectation::kMustFail,
                [id, name, optimized] {
                  return std::make_unique<P>(id, name, optimized);
                });
  }
}

inline DevSpan<Real> upload(vgpu::Runtime& rt, const std::vector<Real>& h) {
  DevSpan<Real> d = rt.malloc<Real>(h.size());
  rt.memcpy_h2d(d, std::span<const Real>(h));
  return d;
}

inline DevSpan<int> upload_i(vgpu::Runtime& rt, const std::vector<int>& h) {
  DevSpan<int> d = rt.malloc<int>(h.size());
  rt.memcpy_h2d(d, std::span<const int>(h));
  return d;
}

inline std::vector<Real> fetch(vgpu::Runtime& rt, DevSpan<Real> d) {
  std::vector<Real> h(d.size());
  rt.memcpy_d2h(std::span<Real>(h), d);
  return h;
}

inline std::vector<int> fetch_i(vgpu::Runtime& rt, DevSpan<int> d) {
  std::vector<int> h(d.size());
  rt.memcpy_d2h(std::span<int>(h), d);
  return h;
}

inline std::vector<double> widen(const std::vector<Real>& v) {
  return std::vector<double>(v.begin(), v.end());
}

inline std::vector<double> widen_i(const std::vector<int>& v) {
  return std::vector<double>(v.begin(), v.end());
}

}  // namespace cumb::gradetasks
