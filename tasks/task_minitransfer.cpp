// MiniTransfer (Table I: avoiding useless data transfer). SpMV offload of a
// 256x256 matrix with 1024 non-zeros: the naive submission ships the whole
// dense matrix across the link, the optimized one converts to CSR on the
// host and ships only the three compressed arrays.

#include <algorithm>

#include "core/minitransfer.hpp"
#include "tasks/task_common.hpp"

namespace cumb::gradetasks {

namespace {

constexpr int kRows = 256;
constexpr long long kNnz = 1024;
constexpr int kTpb = 256;

class MinitransferPlugin : public TaskPlugin {
 public:
  MinitransferPlugin(std::string task, std::string name, bool csr)
      : TaskPlugin(std::move(task), std::move(name)), csr_(csr) {}

  void setup(GradeContext& ctx) override {
    got_.resize(kRows);
    if (csr_) {
      csr_data_ = dense_to_csr(ctx.data.f("dense"), kRows, kRows);
      rp_ = ctx.rt.malloc<int>(csr_data_.row_ptr.size());
      ci_ = ctx.rt.malloc<int>(std::max<std::size_t>(1, csr_data_.col_idx.size()));
      va_ = ctx.rt.malloc<Real>(std::max<std::size_t>(1, csr_data_.vals.size()));
    } else {
      da_ = ctx.rt.malloc<Real>(static_cast<std::size_t>(kRows) * kRows);
    }
    dx_ = ctx.rt.malloc<Real>(kRows);
    dy_ = ctx.rt.malloc<Real>(kRows);
  }

  void launch(GradeContext& ctx) override {
    DevSpan<Real> x = dx_, y = dy_;
    LaunchConfig cfg{Dim3{blocks_for(kRows, kTpb)}, Dim3{kTpb},
                     csr_ ? "spmv_csr" : "spmv_dense"};
    if (csr_) {
      ctx.rt.memcpy_h2d(rp_, std::span<const int>(csr_data_.row_ptr));
      if (!csr_data_.col_idx.empty()) {
        ctx.rt.memcpy_h2d(ci_, std::span<const int>(csr_data_.col_idx));
        ctx.rt.memcpy_h2d(va_, std::span<const Real>(csr_data_.vals));
      }
      ctx.rt.memcpy_h2d(x, std::span<const Real>(ctx.data.f("x")));
      DevSpan<int> rp = rp_, ci = ci_;
      DevSpan<Real> va = va_;
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return spmv_csr_kernel(w, rp, ci, va, x, y, kRows);
      });
    } else {
      ctx.rt.memcpy_h2d(da_, std::span<const Real>(ctx.data.f("dense")));
      ctx.rt.memcpy_h2d(x, std::span<const Real>(ctx.data.f("x")));
      DevSpan<Real> a = da_;
      ctx.rt.launch(cfg, [=](WarpCtx& w) {
        return spmv_dense_kernel(w, a, x, y, kRows, kRows);
      });
    }
    ctx.rt.memcpy_d2h(std::span<Real>(got_), y);
  }

  std::vector<double> verify(GradeContext&) override { return widen(got_); }

 private:
  bool csr_;
  Csr csr_data_;
  DevSpan<Real> da_;
  DevSpan<int> rp_;
  DevSpan<int> ci_;
  DevSpan<Real> va_;
  DevSpan<Real> dx_;
  DevSpan<Real> dy_;
  std::vector<Real> got_;
};

}  // namespace

void register_minitransfer(TaskRegistry& tasks, PluginRegistry& plugins) {
  TaskSpec spec;
  spec.id = "minitransfer";
  spec.title = "Sparse SpMV offload: ship CSR, not the dense matrix";
  spec.profile_name = "v100";
  spec.profile = [] { return vgpu::DeviceProfile::v100(); };
  spec.make_inputs = [] {
    TaskData d;
    d.f32["dense"] = random_sparse_dense(kRows, kRows, kNnz, 131);
    d.f32["x"] = random_vector(kRows, 132);
    d.num["n"] = kRows;
    d.num["nnz"] = static_cast<double>(kNnz);
    return d;
  };
  spec.reference = [](const TaskData& d) {
    Csr csr = dense_to_csr(d.f("dense"), kRows, kRows);
    return widen(spmv_ref(csr, d.f("x")));
  };
  // The dense kernel's extra zero terms don't perturb the accumulator, so
  // both kernels reproduce the CSR reference bit-exactly.
  spec.tolerance = 0;
  spec.gating_rules = {"dense-offload-sparse"};
  add_pair<MinitransferPlugin>(tasks, plugins, std::move(spec));
}

}  // namespace cumb::gradetasks
