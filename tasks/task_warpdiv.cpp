// WarpDivRedux (Table I: warp divergence). The task asks for the
// warp-uniform variant's output: z[i] = 2x+3y on even-numbered warps,
// 3x+2y on odd ones. The naive submission is authored here, against the
// facade — it still branches on thread parity (every warp takes both arms),
// the optimized one reuses the benchmark's warp-parity kernel.

#include "core/warpdiv.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 12;
constexpr int kTpb = 256;

/// Functionally identical to nowd_kernel, but the outer branch diverges on
/// thread parity: each arm re-derives the warp-uniform coefficients, so
/// every warp serializes both arms for nothing.
WarpTask parity_branch_kernel(WarpCtx& w, DevSpan<Real> x, DevSpan<Real> y,
                              DevSpan<Real> z, int n) {
  LaneI tid = w.global_tid_x();
  w.branch(tid < n, [&] {
    LaneF xv = w.load(x, tid);
    LaneF yv = w.load(y, tid);
    LaneI warp = tid / vgpu::kWarpSize;
    auto arm = [&] {
      w.branch(
          warp % 2 == 0,
          [&] {
            w.alu(2);
            w.store(z, tid, Real{2} * xv + Real{3} * yv);
          },
          [&] {
            w.alu(2);
            w.store(z, tid, Real{3} * xv + Real{2} * yv);
          });
    };
    w.branch(tid % 2 == 0, arm, arm);
  });
  co_return;
}

class WarpdivPlugin : public TaskPlugin {
 public:
  WarpdivPlugin(std::string task, std::string name, bool uniform)
      : TaskPlugin(std::move(task), std::move(name)), uniform_(uniform) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    y_ = upload(ctx.rt, ctx.data.f("y"));
    z_ = ctx.rt.malloc<Real>(kN);
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = x_, y = y_, z = z_;
    LaunchConfig cfg{Dim3{blocks_for(kN, kTpb)}, Dim3{kTpb},
                     uniform_ ? "nowd" : "parity_branch"};
    if (uniform_)
      ctx.rt.launch(cfg, [=](WarpCtx& w) { return nowd_kernel(w, x, y, z, kN); });
    else
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return parity_branch_kernel(w, x, y, z, kN); });
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, z_));
  }

 private:
  bool uniform_;
  DevSpan<Real> x_;
  DevSpan<Real> y_;
  DevSpan<Real> z_;
};

}  // namespace

void register_warpdiv(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "warpdiv";
  spec.title = "Per-warp AXPBY: keep intra-warp branches uniform";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 11);
    d.f32["y"] = random_vector(kN, 12);
    d.num["n"] = kN;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> z(kN);
    nowd_ref(d.f("x"), d.f("y"), z);
    return widen(z);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"warp-divergence"};
  add_pair<WarpdivPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
