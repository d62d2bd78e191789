// Shmem (Table I: shared memory). Tiled matrix multiply: the naive kernel
// re-reads every A/B element from global memory n times, the optimized one
// stages 16x16 tiles in shared memory.

#include "core/shmem_mm.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kNDim = 64;

class ShmemPlugin : public TaskPlugin {
 public:
  ShmemPlugin(std::string task, std::string name, bool shared)
      : TaskPlugin(std::move(task), std::move(name)), shared_(shared) {}

  void setup(GradeContext& ctx) override {
    a_ = upload(ctx.rt, ctx.data.f("a"));
    b_ = upload(ctx.rt, ctx.data.f("b"));
    c_ = ctx.rt.malloc<Real>(static_cast<std::size_t>(kNDim) * kNDim);
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> a = a_, b = b_, c = c_;
    LaunchConfig cfg{Dim3{kNDim / kTile, kNDim / kTile}, Dim3{kTile, kTile},
                     shared_ ? "mm_shared" : "mm_global"};
    if (shared_)
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return mm_shared_kernel(w, a, b, c, kNDim); });
    else
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return mm_global_kernel(w, a, b, c, kNDim); });
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, c_));
  }

 private:
  bool shared_;
  DevSpan<Real> a_;
  DevSpan<Real> b_;
  DevSpan<Real> c_;
};

}  // namespace

void register_shmem(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "shmem";
  spec.title = "64x64 matmul: stage reused tiles in shared memory";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    std::size_t nn = static_cast<std::size_t>(kNDim) * kNDim;
    d.f32["a"] = random_vector(nn, 61);
    d.f32["b"] = random_vector(nn, 62);
    d.num["n"] = kNDim;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    return widen(matmul_ref(d.f("a"), d.f("b"), kNDim));
  };
  // Tile-step re-association vs the reference's row order (same bound the
  // benchmark driver uses).
  spec.tolerance = 1e-4 * kNDim;
  spec.gating_rules = {"global-reuse-no-smem"};
  add_pair<ShmemPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
