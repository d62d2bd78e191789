// ConstPoly (constant memory broadcast). Polynomial evaluation where every
// lane reads the same coefficient each step: the naive submission keeps the
// coefficients in global memory (a full warp transaction per read), the
// optimized one uploads them to constant memory and gets the broadcast.

#include "core/readonly.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 12;
constexpr int kTerms = 4;
constexpr int kTpb = 256;

class ConstpolyPlugin : public TaskPlugin {
 public:
  ConstpolyPlugin(std::string task, std::string name, bool constant)
      : TaskPlugin(std::move(task), std::move(name)), constant_(constant) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    y_ = ctx.rt.malloc<Real>(kN);
    if (constant_)
      cc_ = ctx.rt.const_upload(std::span<const Real>(ctx.data.f("coeffs")));
    else
      cg_ = upload(ctx.rt, ctx.data.f("coeffs"));
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = x_, y = y_;
    LaunchConfig cfg{Dim3{blocks_for(kN, kTpb)}, Dim3{kTpb},
                     constant_ ? "poly_const" : "poly_global"};
    if (constant_) {
      ConstSpan<Real> cc = cc_;
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return poly_const_kernel(w, cc, kTerms, x, y, kN);
      });
    } else {
      DevSpan<Real> cg = cg_;
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return poly_global_kernel(w, cg, kTerms, x, y, kN);
      });
    }
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, y_));
  }

 private:
  bool constant_;
  DevSpan<Real> x_;
  DevSpan<Real> y_;
  DevSpan<Real> cg_;
  ConstSpan<Real> cc_;
};

}  // namespace

void register_constpoly(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "constpoly";
  spec.title = "Polynomial evaluation: put the coefficients in constant memory";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 113, Real{-1}, Real{1});
    d.f32["coeffs"] = random_vector(kTerms, 114);
    d.num["n"] = kN;
    d.num["terms"] = kTerms;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    const std::vector<Real>& hx = d.f("x");
    const std::vector<Real>& hc = d.f("coeffs");
    std::vector<Real> want(kN);
    for (int i = 0; i < kN; ++i) {
      Real acc = 0, pw = 1;
      for (int k = 0; k < kTerms; ++k) {
        acc += hc[static_cast<std::size_t>(k)] * pw;
        pw *= hx[static_cast<std::size_t>(i)];
      }
      want[static_cast<std::size_t>(i)] = acc;
    }
    return widen(want);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"missed-constant-broadcast"};
  add_pair<ConstpolyPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
