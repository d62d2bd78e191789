// CoMem (Table I: coalesced memory access). The task is the benchmark's
// AXPY over a fixed 16-block grid; the naive submission walks a contiguous
// block per thread (uncoalesced), the optimized one strides grid-size
// (cyclic, coalesced).

#include "core/comem.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 17;
constexpr int kGrid = 16;
constexpr int kTpb = 256;
constexpr Real kA = Real{2.5};

class ComemPlugin : public TaskPlugin {
 public:
  ComemPlugin(std::string task, std::string name, bool cyclic)
      : TaskPlugin(std::move(task), std::move(name)), cyclic_(cyclic) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    y_ = upload(ctx.rt, ctx.data.f("y0"));
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = x_, y = y_;
    LaunchConfig cfg{Dim3{kGrid}, Dim3{kTpb},
                     cyclic_ ? "axpy_cyclic" : "axpy_block"};
    if (cyclic_)
      ctx.rt.launch(cfg, [=](WarpCtx& w) { return axpy_cyclic(w, x, y, kN, kA); });
    else
      ctx.rt.launch(cfg, [=](WarpCtx& w) { return axpy_block(w, x, y, kN, kA); });
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, y_));
  }

 private:
  bool cyclic_;
  DevSpan<Real> x_;
  DevSpan<Real> y_;
};

}  // namespace

void register_comem(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "comem";
  spec.title = "AXPY with a fixed 16-block grid: coalesce your global loads";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 21);
    d.f32["y0"] = random_vector(kN, 22);
    d.num["n"] = kN;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> y = d.f("y0");
    axpy_ref(d.f("x"), y, kA);
    return widen(y);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"uncoalesced-global"};
  add_pair<ComemPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
