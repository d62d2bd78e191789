// ReadOnlyMem (Table I: texture memory). Matrix addition on the K80
// profile, where the dedicated texture unit gives read-only data its own
// path to DRAM: the naive submission reads A and B through plain global
// loads, the optimized one fetches both through 2-D textures.

#include "core/readonly.hpp"
#include "linalg/dense.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kNDim = 128;
constexpr std::size_t kNN = static_cast<std::size_t>(kNDim) * kNDim;

class ReadonlyPlugin : public TaskPlugin {
 public:
  ReadonlyPlugin(std::string task, std::string name, bool textured)
      : TaskPlugin(std::move(task), std::move(name)), textured_(textured) {}

  void setup(GradeContext& ctx) override {
    if (textured_) {
      ta_ = ctx.rt.texture2d(std::span<const Real>(ctx.data.f("a")), kNDim, kNDim);
      tb_ = ctx.rt.texture2d(std::span<const Real>(ctx.data.f("b")), kNDim, kNDim);
    } else {
      a_ = upload(ctx.rt, ctx.data.f("a"));
      b_ = upload(ctx.rt, ctx.data.f("b"));
    }
    c_ = ctx.rt.malloc<Real>(kNN);
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> c = c_;
    LaunchConfig cfg{Dim3{kNDim / 32, kNDim / 8}, Dim3{32, 8},
                     textured_ ? "matadd_tex2d" : "matadd_global"};
    if (textured_) {
      Texture<Real> ta = ta_, tb = tb_;
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return matadd_tex2d_kernel(w, ta, tb, c, kNDim, kNDim);
      });
    } else {
      DevSpan<Real> a = a_, b = b_;
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return matadd_global_kernel(w, a, b, c, kNDim, kNDim);
      });
    }
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, c_));
  }

 private:
  bool textured_;
  DevSpan<Real> a_;
  DevSpan<Real> b_;
  Texture<Real> ta_;
  Texture<Real> tb_;
  DevSpan<Real> c_;
};

}  // namespace

void register_readonly(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "readonly";
  spec.title = "Matrix addition on Kepler: read inputs through textures";
  spec.profile_name = "k80";
  spec.profile = [] { return vgpu::DeviceProfile::k80(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["a"] = random_vector(kNN, 111);
    d.f32["b"] = random_vector(kNN, 112);
    d.num["n"] = kNDim;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    return widen(matadd_ref(d.f("a"), d.f("b")));
  };
  spec.tolerance = 0;
  spec.gating_rules = {"read-only-no-texture"};
  add_pair<ReadonlyPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
