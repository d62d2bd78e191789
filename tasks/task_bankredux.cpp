// BankRedux (Table I: shared memory bank conflicts). Per-block tree
// reduction, one partial per block: the naive submission uses the
// doubling-stride index (2/4/8-way bank conflicts), the optimized one the
// conflict-free halving sequential index.

#include "core/bankredux.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 14;
constexpr int kTpb = 256;
constexpr int kBlocks = kN / kTpb;

// The device tree reduction re-associates the float sum, so compare against
// per-block double accumulation with an absolute slack.
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

class BankreduxPlugin : public TaskPlugin {
 public:
  BankreduxPlugin(std::string task, std::string name, bool conflict_free)
      : TaskPlugin(std::move(task), std::move(name)),
        conflict_free_(conflict_free) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    r_ = ctx.rt.malloc<Real>(kBlocks);
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = x_, r = r_;
    LaunchConfig cfg{Dim3{kBlocks}, Dim3{kTpb},
                     conflict_free_ ? "sum" : "sum_bc"};
    if (conflict_free_)
      ctx.rt.launch(cfg, [=](WarpCtx& w) { return sum_kernel(w, x, r); });
    else
      ctx.rt.launch(cfg, [=](WarpCtx& w) { return sum_bc_kernel(w, x, r); });
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, r_));
  }

 private:
  bool conflict_free_;
  DevSpan<Real> x_;
  DevSpan<Real> r_;
};

}  // namespace

void register_bankredux(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "bankredux";
  spec.title = "Block reduction: index shared memory conflict-free";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 41);
    d.num["n"] = kN;
    return d;
  };
  spec.reference = [](const TaskData& d) { return block_sums(d.f("x")); };
  spec.tolerance = 0.05;
  spec.gating_rules = {"shared-bank-conflicts"};
  add_pair<BankreduxPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
