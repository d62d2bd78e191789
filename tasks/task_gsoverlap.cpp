// GSOverlap (global->shared copies, Ampere memcpy_async). Both submissions
// stage x and y tiles in shared memory before the AXPY; the naive one copies
// through registers, the optimized one issues hardware async copies and only
// stalls at pipeline_wait. Graded on the rtx3080 profile, where the hardware
// path exists.

#include "core/gsoverlap.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 14;
constexpr int kTpb = 256;
constexpr Real kA = Real{2.0};

class GsoverlapPlugin : public TaskPlugin {
 public:
  GsoverlapPlugin(std::string task, std::string name, bool async)
      : TaskPlugin(std::move(task), std::move(name)), async_(async) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    y_ = upload(ctx.rt, ctx.data.f("y0"));
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = x_, y = y_;
    LaunchConfig cfg{Dim3{blocks_for(kN, kTpb)}, Dim3{kTpb},
                     async_ ? "axpy_staged_async" : "axpy_staged_sync"};
    if (async_)
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return axpy_staged_async(w, x, y, kN, kA); });
    else
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return axpy_staged_sync(w, x, y, kN, kA); });
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, y_));
  }

 private:
  bool async_;
  DevSpan<Real> x_;
  DevSpan<Real> y_;
};

}  // namespace

void register_gsoverlap(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "gsoverlap";
  spec.title = "Shared-staged AXPY on Ampere: use memcpy_async";
  spec.profile_name = "rtx3080";
  spec.profile = [] { return vgpu::DeviceProfile::rtx3080(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 71);
    d.f32["y0"] = random_vector(kN, 72);
    d.num["n"] = kN;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> y = d.f("y0");
    axpy_ref(d.f("x"), y, kA);
    return widen(y);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"sync-staging-no-async"};
  add_pair<GsoverlapPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
