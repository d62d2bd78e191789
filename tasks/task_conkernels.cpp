// Conkernels (Table I: concurrent kernel execution). Four one-block burn
// kernels over independent buffers: the naive submission queues them all on
// the default stream (they serialize), the optimized one gives each its own
// stream so they co-reside on disjoint SMs.

#include "core/conkernels.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kKernels = 4;
constexpr int kIters = 20000;
constexpr int kTpb = 256;
constexpr Real kMul = Real{1.0000001};
constexpr Real kAdd = Real{0.0000001};

class ConkernelsPlugin : public TaskPlugin {
 public:
  ConkernelsPlugin(std::string task, std::string name, bool concurrent)
      : TaskPlugin(std::move(task), std::move(name)), concurrent_(concurrent) {}

  void setup(GradeContext& ctx) override {
    const std::vector<Real>& h0 = ctx.data.f("v0");
    for (int i = 0; i < kKernels; ++i) bufs_.push_back(upload(ctx.rt, h0));
  }

  void launch(GradeContext& ctx) override {
    LaunchConfig cfg{Dim3{1}, Dim3{kTpb}, "burn"};
    for (int i = 0; i < kKernels; ++i) {
      DevSpan<Real> b = bufs_[static_cast<std::size_t>(i)];
      auto body = [=](WarpCtx& w) { return burn_kernel(w, b, kTpb, kIters); };
      if (concurrent_)
        ctx.rt.launch(ctx.rt.create_stream(), cfg, body);
      else
        ctx.rt.launch(cfg, body);
    }
  }

  std::vector<double> verify(GradeContext& ctx) override {
    std::vector<double> out;
    for (DevSpan<Real> b : bufs_) {
      std::vector<double> part = widen(fetch(ctx.rt, b));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

 private:
  bool concurrent_;
  std::vector<DevSpan<Real>> bufs_;
};

}  // namespace

void register_conkernels(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "conkernels";
  spec.title = "Four tiny burn kernels: let them run concurrently";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["v0"] = random_vector(kTpb, 81);
    d.num["kernels"] = kKernels;
    d.num["iters"] = kIters;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> want = d.f("v0");
    for (Real& v : want)
      for (int k = 0; k < kIters; ++k)
        v = ((v * kMul + kAdd) * kMul + kAdd) * kMul + kAdd;
    std::vector<double> out;
    for (int i = 0; i < kKernels; ++i) {
      std::vector<double> part = widen(want);
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  spec.tolerance = 0;
  spec.gating_rules = {"serial-small-kernels"};
  add_pair<ConkernelsPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
