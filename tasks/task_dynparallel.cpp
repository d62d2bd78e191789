// DynParallel (Table I: dynamic parallelism). Mandelbrot dwell image: the
// naive submission runs the full escape-time loop for every pixel with a
// uniform grid (most blocks finish long before the deepest one), the
// optimized Mariani-Silver submission subdivides rectangles from the device
// and fills uniform-border regions with plain stores.

#include "core/dynparallel.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kSize = 256;
constexpr int kMaxIter = 1024;

MandelFrame frame() {
  MandelFrame f;
  f.scale = 3.0f / kSize;
  return f;
}

class DynparallelPlugin : public TaskPlugin {
 public:
  DynparallelPlugin(std::string task, std::string name, bool ms)
      : TaskPlugin(std::move(task), std::move(name)), ms_(ms) {}

  void setup(GradeContext& ctx) override {
    dwell_ = ctx.rt.malloc<int>(static_cast<std::size_t>(kSize) * kSize);
  }

  void launch(GradeContext& ctx) override {
    DevSpan<int> dwell = dwell_;
    MandelFrame f = frame();
    if (ms_) {
      LaunchConfig cfg{Dim3{kMsInitDiv, kMsInitDiv}, Dim3{kMsTpb}, "mandel_ms"};
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return mandel_ms_kernel(w, dwell, kSize, f, kMaxIter, 0, 0,
                                kSize / kMsInitDiv);
      });
    } else {
      LaunchConfig cfg{Dim3{kSize / 16, kSize / 16}, Dim3{16, 16},
                       "mandel_escape"};
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return mandel_escape_kernel(w, dwell, kSize, kSize, f, kMaxIter);
      });
    }
  }

  std::vector<double> verify(GradeContext& ctx) override {
    return widen_i(fetch_i(ctx.rt, dwell_));
  }

 private:
  bool ms_;
  DevSpan<int> dwell_;
};

}  // namespace

void register_dynparallel(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "dynparallel";
  spec.title = "Mandelbrot dwell: subdivide from the device";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.num["size"] = kSize;
    d.num["max_iter"] = kMaxIter;
    return d;
  };
  spec.reference = [](const TaskData&) {
    return widen_i(mandel_ref(kSize, kSize, frame(), kMaxIter));
  };
  spec.tolerance = 0;
  spec.gating_rules = {"block-imbalance"};
  add_pair<DynparallelPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
