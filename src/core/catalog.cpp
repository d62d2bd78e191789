#include "core/catalog.hpp"

#include "core/bankredux.hpp"
#include "core/comem.hpp"
#include "core/conkernels.hpp"
#include "core/dynparallel.hpp"
#include "core/gsoverlap.hpp"
#include "core/hdoverlap.hpp"
#include "core/histogram.hpp"
#include "core/layout.hpp"
#include "core/memalign.hpp"
#include "core/minitransfer.hpp"
#include "core/readonly.hpp"
#include "core/shmem_mm.hpp"
#include "core/shuffle_reduce.hpp"
#include "core/taskgraph.hpp"
#include "core/unimem.hpp"
#include "core/warpdiv.hpp"

namespace cumb {

namespace {

using vgpu::DeviceProfile;

// The smoke shapes keep every size constraint (comem's grid*block
// divisibility, dynparallel's pow2 floor, shmem_mm's tiling) valid, and a
// default-size serve job fast enough for interactive queues.
const PairDef kCatalog[] = {
    {"warpdiv", &DeviceProfile::v100, 1 << 12,
     [](Runtime& rt, int n) -> PairResult { return run_warpdiv(rt, n); },
     [](Runtime& rt) -> PairResult { return run_warpdiv(rt, 1 << 18); },
     "threads enter different branches", "take the warp size as the branch step",
     "1.1 (average)", 3},
    {"dynparallel", &DeviceProfile::rtx3080_scaled, 256,
     [](Runtime& rt, int n) -> PairResult { return run_dynparallel(rt, n, /*max_iter=*/256); },
     [](Runtime& rt) -> PairResult { return run_dynparallel(rt, 1024, 1024); },
     "nested parallelism (adaptive grids)", "dynamic parallelism (device-side launch)",
     "3.26 (best)", 4},
    {"conkernels", &DeviceProfile::v100, 4,  // n = concurrent kernel count.
     [](Runtime& rt, int n) -> PairResult { return run_conkernels(rt, n, /*iters=*/2000); },
     [](Runtime& rt) -> PairResult { return run_conkernels(rt, 8, 20000); },
     "multiple kernel instances on one GPU", "concurrent kernels on streams", "7 (average)", 4},
    {"taskgraph", &DeviceProfile::v100, 1024,
     [](Runtime& rt, int n) -> PairResult {
       return run_taskgraph(rt, n, /*chain_length=*/4, /*repeats=*/2);
     },
     [](Runtime& rt) -> PairResult { return run_taskgraph(rt); },
     "repeated work submission", "pre-defined task graph, run repeatedly", "programmability", 3},
    {"shmem_mm", &DeviceProfile::v100, 64,
     [](Runtime& rt, int n) -> PairResult { return run_shmem_mm(rt, n); },
     [](Runtime& rt) -> PairResult { return run_shmem_mm(rt, 256); },
     "data accessed several times", "stage reused tiles in shared memory", "1.25 (average)", 2},
    {"comem", &DeviceProfile::v100, 1 << 15,
     [](Runtime& rt, int n) -> PairResult { return run_comem(rt, n, /*grid_blocks=*/16); },
     [](Runtime& rt) -> PairResult { return run_comem(rt, 1 << 22, 1024); },
     "strided/uncoalesced access across threads", "cyclic distribution (consecutive access)",
     "18 (average)", 3},
    {"memalign", &DeviceProfile::v100, 1 << 14,
     [](Runtime& rt, int n) -> PairResult { return run_memalign(rt, n); },
     [](Runtime& rt) -> PairResult { return run_memalign(rt, 1 << 20); },
     "unaligned first address", "aligned allocation/indexing", "1.1 (average)", 1},
    {"gsoverlap", &DeviceProfile::rtx3080, 1 << 14,
     [](Runtime& rt, int n) -> PairResult { return run_gsoverlap(rt, n); },
     [](Runtime& rt) -> PairResult { return run_gsoverlap(rt, 1 << 20); },
     "global->shared copy takes much time", "memcpy_async (CUDA 11)", "1.04 (best)", 3},
    {"shuffle", &DeviceProfile::v100, 1 << 14,
     [](Runtime& rt, int n) -> PairResult { return run_shuffle_reduce(rt, n); },
     [](Runtime& rt) -> PairResult { return run_shuffle_reduce(rt, 1 << 20); },
     "data exchange between threads", "warp shuffle between registers", "1.25 (average)", 5},
    {"bankredux", &DeviceProfile::v100, 1 << 14,
     [](Runtime& rt, int n) -> PairResult { return run_bankredux(rt, n); },
     [](Runtime& rt) -> PairResult { return run_bankredux(rt, 1 << 20); },
     "threads hit different words of one bank", "sequential indexing (no conflicts)",
     "1.3 (average)", 5},
    {"hdoverlap", &DeviceProfile::v100, 1 << 16,
     [](Runtime& rt, int n) -> PairResult {
       return run_hdoverlap(rt, n, /*chunks=*/2, /*streams=*/2);
     },
     [](Runtime& rt) -> PairResult { return run_hdoverlap(rt, 1 << 20); },
     "host-device copy takes much time", "cudaMemcpyAsync + streams", "1.036 (best)", 1},
    {"readonly", &DeviceProfile::k80, 128,
     [](Runtime& rt, int n) -> PairResult { return run_readonly(rt, n); },
     [](Runtime& rt) -> PairResult { return run_readonly(rt, 512); },
     "large amount of read-only data", "constant/texture memory", "4.3 (best)", 1},
    {"unimem", &DeviceProfile::v100, 1 << 16,
     [](Runtime& rt, int n) -> PairResult { return run_unimem(rt, n, /*stride=*/256); },
     [](Runtime& rt) -> PairResult { return run_unimem(rt, 1 << 22, 4096); },
     "low memory access density", "unified memory, copy only needed pages", "3 (average)", 3},
    {"minitransfer", &DeviceProfile::v100, 256,
     [](Runtime& rt, int n) -> PairResult { return run_minitransfer(rt, n, /*nnz=*/1024); },
     [](Runtime& rt) -> PairResult { return run_minitransfer(rt, 2048, 2048LL * 16); },
     "useless data transferred", "CSR layout, transfer only non-zeros", "190 (best)", 5},
    // Companions: no Table-I row.
    {"constpoly", &DeviceProfile::v100, 1 << 12,
     [](Runtime& rt, int n) -> PairResult { return run_const_poly(rt, n, /*terms=*/4); },
     nullptr, nullptr, nullptr, nullptr, 0},
    {"histogram", &DeviceProfile::v100, 1 << 16,
     [](Runtime& rt, int n) -> PairResult { return run_histogram(rt, n); },
     nullptr, nullptr, nullptr, nullptr, 0},
    {"layout", &DeviceProfile::v100, 1 << 12,
     [](Runtime& rt, int n) -> PairResult { return run_layout(rt, n); },
     nullptr, nullptr, nullptr, nullptr, 0},
};

}  // namespace

std::span<const PairDef> catalog() { return kCatalog; }

}  // namespace cumb
