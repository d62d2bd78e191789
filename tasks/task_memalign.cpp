// MemAlign (Table I: memory alignment). Both variants compute
// y[i] += a*x[i] for i in [1, n); the naive one shifts every thread's index
// by one (each warp straddles two 128-byte segments), the optimized one
// keeps indices aligned and masks out thread 0.

#include "core/memalign.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 14;
constexpr int kTpb = 256;
constexpr Real kA = Real{1.5};

class MemalignPlugin : public TaskPlugin {
 public:
  MemalignPlugin(std::string task, std::string name, bool aligned)
      : TaskPlugin(std::move(task), std::move(name)), aligned_(aligned) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    y_ = upload(ctx.rt, ctx.data.f("y0"));
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = x_, y = y_;
    LaunchConfig cfg{Dim3{blocks_for(kN, kTpb)}, Dim3{kTpb},
                     aligned_ ? "axpy_aligned" : "axpy_misaligned"};
    if (aligned_)
      ctx.rt.launch(cfg, [=](WarpCtx& w) { return axpy_aligned(w, x, y, kN, kA); });
    else
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return axpy_misaligned(w, x, y, kN, kA); });
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, y_));
  }

 private:
  bool aligned_;
  DevSpan<Real> x_;
  DevSpan<Real> y_;
};

}  // namespace

void register_memalign(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "memalign";
  spec.title = "Offset AXPY: keep warp accesses segment-aligned";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 31);
    d.f32["y0"] = random_vector(kN, 32);
    d.num["n"] = kN;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> y = d.f("y0");
    const std::vector<Real>& x = d.f("x");
    for (std::size_t i = 1; i < y.size(); ++i) y[i] += kA * x[i];
    return widen(y);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"misaligned-global"};
  add_pair<MemalignPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
