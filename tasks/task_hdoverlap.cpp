// HDOverlap (Table I: overlapping data transfer and compute). Whole-offload
// AXPY: the naive submission copies both arrays in, runs one kernel, and
// copies the result out, all synchronously; the optimized one splits the
// work into chunks spread over two streams with async copies so chunk c's
// kernel overlaps chunk c+1's H2D and chunk c-1's D2H.

#include "core/comem.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kN = 1 << 18;
constexpr int kChunks = 2;
constexpr int kStreams = 2;
constexpr int kTpb = 256;
constexpr Real kA = Real{3.0};
constexpr int kChunkN = kN / kChunks;

class HdoverlapPlugin : public TaskPlugin {
 public:
  HdoverlapPlugin(std::string task, std::string name, bool pipelined)
      : TaskPlugin(std::move(task), std::move(name)), pipelined_(pipelined) {}

  void setup(GradeContext& ctx) override {
    x_ = ctx.rt.malloc<Real>(kN);
    y_ = ctx.rt.malloc<Real>(kN);
    got_.resize(kN);
  }

  void launch(GradeContext& ctx) override {
    const std::vector<Real>& hx = ctx.data.f("x");
    const std::vector<Real>& hy0 = ctx.data.f("y0");
    DevSpan<Real> x = x_, y = y_;
    if (!pipelined_) {
      ctx.rt.memcpy_h2d(x, std::span<const Real>(hx));
      ctx.rt.memcpy_h2d(y, std::span<const Real>(hy0));
      LaunchConfig cfg{Dim3{blocks_for(kN, kTpb)}, Dim3{kTpb}, "axpy_sync"};
      ctx.rt.launch(cfg,
                    [=](WarpCtx& w) { return axpy_1per_thread(w, x, y, kN, kA); });
      ctx.rt.memcpy_d2h(std::span<Real>(got_), y);
      return;
    }
    std::vector<Stream*> ss;
    for (int i = 0; i < kStreams; ++i) ss.push_back(&ctx.rt.create_stream());
    for (int c = 0; c < kChunks; ++c) {
      Stream& s = *ss[static_cast<std::size_t>(c % kStreams)];
      std::size_t off = static_cast<std::size_t>(c) * kChunkN;
      DevSpan<Real> xc = x.subspan(off, kChunkN);
      DevSpan<Real> yc = y.subspan(off, kChunkN);
      ctx.rt.memcpy_h2d_async(s, xc,
                              std::span<const Real>(hx).subspan(off, kChunkN));
      ctx.rt.memcpy_h2d_async(s, yc,
                              std::span<const Real>(hy0).subspan(off, kChunkN));
      LaunchConfig ck{Dim3{blocks_for(kChunkN, kTpb)}, Dim3{kTpb}, "axpy_chunk"};
      ctx.rt.launch(
          s, ck, [=](WarpCtx& w) { return axpy_1per_thread(w, xc, yc, kChunkN, kA); });
      ctx.rt.memcpy_d2h_async(s, std::span<Real>(got_).subspan(off, kChunkN), yc);
    }
  }

  std::vector<double> verify(GradeContext&) override { return widen(got_); }

 private:
  bool pipelined_;
  DevSpan<Real> x_;
  DevSpan<Real> y_;
  std::vector<Real> got_;
};

}  // namespace

void register_hdoverlap(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "hdoverlap";
  spec.title = "AXPY offload: overlap copies with compute across streams";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["x"] = random_vector(kN, 101);
    d.f32["y0"] = random_vector(kN, 102);
    d.num["n"] = kN;
    d.num["chunks"] = kChunks;
    return d;
  };
  spec.reference = [](const TaskData& d) {
    std::vector<Real> y = d.f("y0");
    axpy_ref(d.f("x"), y, kA);
    return widen(y);
  };
  spec.tolerance = 0;
  spec.gating_rules = {"missed-copy-compute-overlap"};
  add_pair<HdoverlapPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
