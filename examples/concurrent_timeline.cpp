// The paper's Fig. 6 as a runnable program: launch the same small kernels
// serially and concurrently, and render the nvvp-style execution timelines
// the paper screenshots — plus a pipelined-offload trace showing copy/compute
// overlap (Fig. 14's mechanism).
//
// Build & run:   ./build/examples/concurrent_timeline

#include <cstdio>
#include <vector>

#include "core/comem.hpp"
#include "core/conkernels.hpp"
#include "linalg/generate.hpp"
#include <vgpu.hpp>

using namespace vgpu;
using cumb::Real;

namespace {

void launch_burners(Runtime& rt, int kernels, bool concurrent) {
  std::vector<DevSpan<Real>> bufs;
  auto h0 = cumb::random_vector(256, 1);
  for (int i = 0; i < kernels; ++i) {
    bufs.push_back(rt.malloc<Real>(256));
    rt.memcpy_h2d(bufs.back(), std::span<const Real>(h0));
  }
  std::vector<Stream*> streams;
  for (int i = 0; i < kernels; ++i)
    streams.push_back(concurrent ? &rt.create_stream() : &rt.default_stream());
  for (int i = 0; i < kernels; ++i) {
    DevSpan<Real> b = bufs[static_cast<std::size_t>(i)];
    rt.launch(*streams[static_cast<std::size_t>(i)],
              {Dim3{1}, Dim3{256}, "burn"},
              [=](WarpCtx& w) { return cumb::burn_kernel(w, b, 256, 20000); });
  }
  rt.synchronize();
}

}  // namespace

int main() {
  for (bool concurrent : {true, false}) {
    Runtime rt(DeviceProfile::v100());
    rt.set_prof_mode(rt.prof_mode() | ProfMode::kTrace);
    launch_burners(rt, 8, concurrent);
    std::printf("(%c) %s kernel launches:\n", concurrent ? 'a' : 'b',
                concurrent ? "concurrent (one stream per kernel)" : "serial");
    std::printf("%s\n", rt.profiler()->gantt(96).c_str());
  }

  // Bonus: the Fig. 14 mechanism — chunked copies overlapping compute.
  Runtime rt(DeviceProfile::v100());
  rt.set_prof_mode(rt.prof_mode() | ProfMode::kTrace);
  const int n = 1 << 20, chunks = 4;
  auto hx = cumb::random_vector(n, 2);
  auto x = rt.malloc<Real>(n);
  std::vector<Real> back(n);
  std::vector<Stream*> ss;
  for (int i = 0; i < chunks; ++i) ss.push_back(&rt.create_stream());
  for (int c = 0; c < chunks; ++c) {
    Stream& s = *ss[static_cast<std::size_t>(c)];
    std::size_t off = static_cast<std::size_t>(c) * (n / chunks);
    auto xc = x.subspan(off, n / chunks);
    rt.memcpy_h2d_async(s, xc, std::span<const Real>(hx).subspan(off, n / chunks));
    rt.launch(s, {Dim3{n / chunks / 256}, Dim3{256}, "axpy"},
              [=](WarpCtx& w) {
                return cumb::axpy_1per_thread(w, xc, xc, n / chunks, Real{1});
              });
    rt.memcpy_d2h_async(s, std::span<Real>(back).subspan(off, n / chunks), xc);
  }
  rt.synchronize();
  std::printf("pipelined offload (chunked copies overlap compute and the "
              "return copies):\n%s\n", rt.profiler()->gantt(96).c_str());
  return 0;
}
