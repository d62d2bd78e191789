// UniMem (Table I: unified memory / access density). A strided AXPY touches
// only every 256th element: the naive submission still ships both whole
// arrays to the GPU and the whole result back; the optimized one uses
// managed memory so only the faulted pages migrate, and the host faults
// back only the pages it reads.

#include "core/unimem.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 16;
constexpr int kStride = 256;
constexpr int kM = kN / kStride;
constexpr int kTpb = 256;
constexpr Real kA = Real{1.25};

class UnimemPlugin : public TaskPlugin {
 public:
  UnimemPlugin(std::string task, std::string name, bool managed)
      : TaskPlugin(std::move(task), std::move(name)), managed_(managed) {}

  void setup(GradeContext& ctx) override {
    if (managed_) {
      xm_ = ctx.rt.malloc_managed<Real>(kN);
      ym_ = ctx.rt.malloc_managed<Real>(kN);
      ctx.rt.managed_write(xm_, std::span<const Real>(ctx.data.f("x")));
      ctx.rt.managed_write(ym_, std::span<const Real>(ctx.data.f("y0")));
    } else {
      xe_ = ctx.rt.malloc<Real>(kN);
      ye_ = ctx.rt.malloc<Real>(kN);
      got_.resize(kN);
    }
  }

  void launch(GradeContext& ctx) override {
    LaunchConfig cfg{Dim3{blocks_for(kM, kTpb)}, Dim3{kTpb}, "axpy_strided"};
    if (managed_) {
      DevSpan<Real> x = xm_, y = ym_;
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return axpy_strided_kernel(w, x, y, kM, kStride, kA);
      });
      ctx.rt.synchronize();
      ctx.rt.managed_host_touch(ym_, kStride, kM);
    } else {
      DevSpan<Real> x = xe_, y = ye_;
      ctx.rt.memcpy_h2d(x, std::span<const Real>(ctx.data.f("x")));
      ctx.rt.memcpy_h2d(y, std::span<const Real>(ctx.data.f("y0")));
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return axpy_strided_kernel(w, x, y, kM, kStride, kA);
      });
      ctx.rt.memcpy_d2h(std::span<Real>(got_), y);
    }
  }

  std::vector<double> verify(GradeContext& ctx) override {
    if (managed_) {
      got_.resize(kN);
      ctx.rt.peek(std::span<Real>(got_), ym_);
    }
    return widen(got_);
  }

 private:
  bool managed_;
  DevSpan<Real> xe_;
  DevSpan<Real> ye_;
  DevSpan<Real> xm_;
  DevSpan<Real> ym_;
  std::vector<Real> got_;
};

}  // namespace

void register_unimem(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "unimem";
  spec.title = "Sparse-touch AXPY: migrate pages on demand, not whole arrays";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 121);
    d.f32["y0"] = random_vector(kN, 122);
    d.num["n"] = kN;
    d.num["stride"] = kStride;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> y = d.f("y0");
    const std::vector<Real>& x = d.f("x");
    for (int i = 0; i < kM; ++i) {
      std::size_t idx = static_cast<std::size_t>(i) * kStride;
      y[idx] += kA * x[idx];
    }
    return widen(y);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"eager-copy-sparse-touch"};
  add_pair<UnimemPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
