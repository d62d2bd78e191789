// TaskGraph (launch overhead). A chain of four small dependent AXPY steps
// executed twice: the naive submission pays kernel_launch_us eight times by
// submitting op-by-op, the optimized one instantiates the chain once and
// launches the graph per repeat.

#include <optional>

#include "core/comem.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1024;
constexpr int kChain = 4;
constexpr int kRepeats = 2;
constexpr int kTpb = 256;
constexpr Real kA = Real{0.5};

class TaskgraphPlugin : public TaskPlugin {
 public:
  TaskgraphPlugin(std::string task, std::string name, bool graph)
      : TaskPlugin(std::move(task), std::move(name)), graph_(graph) {}

  void setup(GradeContext& ctx) override {
    x_ = upload(ctx.rt, ctx.data.f("x"));
    y_ = upload(ctx.rt, ctx.data.f("y0"));
    if (graph_) {
      DevSpan<Real> x = x_, y = y_;
      LaunchConfig cfg{Dim3{blocks_for(kN, kTpb)}, Dim3{kTpb}, "axpy_step"};
      auto step = [=](WarpCtx& w) { return axpy_1per_thread(w, x, y, kN, kA); };
      vgpu::GraphBuilder builder;
      vgpu::GraphNodeId prev = -1;
      for (int k = 0; k < kChain; ++k) {
        vgpu::GraphNodeId node = builder.add_kernel(cfg, step);
        if (prev >= 0) builder.add_dependency(node, prev);
        prev = node;
      }
      exec_.emplace(builder.instantiate());
    }
  }

  void launch(GradeContext& ctx) override {
    if (graph_) {
      for (int r = 0; r < kRepeats; ++r)
        ctx.rt.launch_graph(*exec_, ctx.rt.default_stream());
    } else {
      DevSpan<Real> x = x_, y = y_;
      LaunchConfig cfg{Dim3{blocks_for(kN, kTpb)}, Dim3{kTpb}, "axpy_step"};
      auto step = [=](WarpCtx& w) { return axpy_1per_thread(w, x, y, kN, kA); };
      for (int r = 0; r < kRepeats; ++r)
        for (int k = 0; k < kChain; ++k) ctx.rt.launch(cfg, step);
    }
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen(fetch(ctx.rt, y_));
  }

 private:
  bool graph_;
  DevSpan<Real> x_;
  DevSpan<Real> y_;
  std::optional<vgpu::ExecGraph> exec_;
};

}  // namespace

void register_taskgraph(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "taskgraph";
  spec.title = "Repeated AXPY chain: submit it as an instantiated graph";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 91);
    d.f32["y0"] = random_vector(kN, 92);
    d.num["n"] = kN;
    d.num["chain"] = kChain;
    d.num["repeats"] = kRepeats;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> y = d.f("y0");
    for (int i = 0; i < kRepeats * kChain; ++i) axpy_ref(d.f("x"), y, kA);
    return widen(y);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"launch-overhead"};
  add_pair<TaskgraphPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
