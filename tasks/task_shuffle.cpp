// Shuffle (Table I: warp shuffle reduction). Same per-block reduction shape
// as bankredux: the naive submission bounces every step through shared
// memory with a barrier, the optimized one reduces each warp in registers
// with shuffle exchanges and touches shared memory once per warp.

#include "core/shuffle_reduce.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 14;
constexpr int kTpb = 256;
constexpr int kBlocks = kN / kTpb;

std::vector<double> block_sums(const std::vector<Real>& x) {
  std::vector<double> out(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    double acc = 0;
    for (int i = 0; i < kTpb; ++i)
      acc += x[static_cast<std::size_t>(b) * kTpb + static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(b)] = acc;
  }
  return out;
}

class ShufflePlugin : public TaskPlugin {
 public:
  ShufflePlugin(std::string task, std::string name, bool shuffle)
      : TaskPlugin(std::move(task), std::move(name)), shuffle_(shuffle) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    r_ = ctx.rt.malloc<Real>(kBlocks);
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = x_, r = r_;
    LaunchConfig cfg{Dim3{kBlocks}, Dim3{kTpb},
                     shuffle_ ? "reduce_shuffle" : "reduce_shared"};
    if (shuffle_)
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return reduce_shuffle_kernel(w, x, r, kN); });
    else
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return reduce_shared_kernel(w, x, r, kN); });
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, r_));
  }

 private:
  bool shuffle_;
  DevSpan<Real> x_;
  DevSpan<Real> r_;
};

}  // namespace

void register_shuffle(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "shuffle";
  spec.title = "Block reduction: exchange partials through registers";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 51);
    d.num["n"] = kN;
    return d;
  };
  spec.reference = [](const TaskData& d) { return block_sums(d.f("x")); };
  spec.tolerance = 0.05;
  spec.gating_rules = {"smem-reduction-shuffle"};
  add_pair<ShufflePlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
