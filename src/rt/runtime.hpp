#pragma once

// vgpu::Runtime — the CUDA-runtime-shaped public API.
//
// One Runtime owns a simulated device (GpuExec), its host/device timeline,
// streams, and the unified-memory directory. The method surface mirrors the
// CUDA runtime calls the paper's benchmarks use:
//
//   cudaMalloc            -> rt.malloc<T>(n)
//   cudaMallocManaged     -> rt.malloc_managed<T>(n)
//   cudaMemcpy            -> rt.memcpy_h2d / rt.memcpy_d2h          (blocking)
//   cudaMemcpyAsync       -> rt.memcpy_h2d_async / memcpy_d2h_async
//   kernel<<<g,b,0,s>>>   -> rt.launch(s, {g, b, "name"}, fn)
//   cudaDeviceSynchronize -> rt.synchronize()
//   cudaEventRecord/...   -> rt.record_event / rt.elapsed_ms
//   cudaMemPrefetchAsync  -> rt.prefetch_to_device
//   cudaMemAdvise         -> rt.advise
//   __constant__ upload   -> rt.const_upload
//   texture objects       -> rt.texture1d / rt.texture2d
//
// Functional semantics are eager and in-order; *time* is modelled by the
// Timeline, and `rt.now_us()` / spans report simulated microseconds.
//
// Failures follow the CUDA error model (fault/error.hpp): device-class
// errors are *recorded* — per call, via get_last_error(), sticky for
// context corruption, deferred to sync points for async work — never
// thrown. Exceptions remain only for host-side programming errors. The
// VGPU_FAULT environment variable (fault/inject.hpp) deterministically
// injects such failures for robustness testing; with it unset, stats and
// simulated times are bit-identical to a fault-free build.

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "advise/advise.hpp"
#include "fault/error.hpp"
#include "fault/inject.hpp"
#include "mem/constant.hpp"
#include "prof/prof.hpp"
#include "mem/texture.hpp"
#include "rt/options.hpp"
#include "sim/device.hpp"
#include "sim/gpu.hpp"
#include "um/managed.hpp"
#include "xfer/graph.hpp"
#include "xfer/stream.hpp"
#include "xfer/timeline.hpp"

namespace vgpu {

/// What a kernel launch returns: when it ran and what it did.
struct LaunchInfo {
  Timeline::Span span;
  KernelStats stats;
  CheckReport check;  ///< vgpu-san diagnostics (empty when checking is off).
  /// How the *submission* went (kLaunchOutOfResources for a transient
  /// injected rejection, the sticky code on a poisoned context). kSuccess
  /// for a launch whose kernel fails asynchronously — that error surfaces
  /// at the next sync point, as on hardware.
  ErrorCode error = ErrorCode::kSuccess;
  double duration_us() const { return span.duration(); }
};

/// Kind of host allocation a copy reads from / writes to. Pageable copies
/// run at reduced bandwidth, and *async* copies of pageable memory silently
/// synchronize the host — exactly as the CUDA runtime behaves.
enum class HostMem { kPinned, kPageable };

class Runtime {
 public:
  /// Explicit configuration: the environment is never consulted. This is the
  /// canonical constructor; everything the VGPU_* variables used to steer is
  /// a field of RuntimeOptions.
  explicit Runtime(RuntimeOptions opts);
  /// Legacy shim: resolves ambient_options(profile) — the installed
  /// process-wide override if set_ambient_options() was called, otherwise
  /// RuntimeOptions::from_env(profile). Existing single-runtime programs
  /// keep their env-driven behavior unchanged.
  explicit Runtime(DeviceProfile profile = DeviceProfile::v100());
  /// Flushes the profiler (summary/metrics to stdout, chrome trace to the
  /// configured path) when profiling is on.
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The options this Runtime is running under. Tracks successful mutator
  /// calls, so it always describes the live configuration.
  const RuntimeOptions& options() const { return opts_; }

  /// The only live Runtime in the process, or nullptr when zero or several
  /// exist. The implicit binding the <vgpu/cuda_names.hpp> shim falls back
  /// to for single-runtime programs.
  static Runtime* sole_instance();

  // --- Configuration lifecycle ------------------------------------------------
  // Options are immutable once the first kernel (or graph) has launched:
  // the subsystems snapshot configuration at launch boundaries, and
  // mid-flight mutation raced those snapshots. A refused mutation records
  // and returns cudaErrorInvalidValue and leaves the configuration
  // untouched. Detaching an observer (prof/advise/check to kOff, fault spec
  // to "") stays legal at any time — turning evidence collection *off*
  // cannot perturb a simulation.
  /// True once the first launch/launch_graph has been submitted.
  bool configuration_locked() const { return launched_; }

  const DeviceProfile& profile() const { return profile_; }
  GpuExec& gpu() { return gpu_; }
  /// Host worker threads simulating the block loop (RuntimeOptions::
  /// sim_threads; 0 = hardware concurrency). Observational: results are
  /// bit-identical at any count.
  int sim_threads() const { return gpu_.sim_threads(); }
  ErrorCode set_sim_threads(int threads);
  /// Simulation fidelity: kExact is bit-identical to the goldens, kFast
  /// samples replay timing for speed (sim/fidelity.hpp).
  Fidelity fidelity() const { return gpu_.fidelity(); }
  ErrorCode set_fidelity(Fidelity f);

  // --- vgpu-san (cuda-memcheck equivalent) -----------------------------------
  /// Dynamic checkers for subsequent launches
  /// (e.g. set_check_mode(CheckMode::kFull)).
  CheckMode check_mode() const { return gpu_.check_mode(); }
  ErrorCode set_check_mode(CheckMode m);
  /// Diagnostics accumulated across every launch since the last clear.
  const CheckReport& check_report() const { return gpu_.check_report(); }
  void clear_check_report() { gpu_.clear_check_report(); }

  // --- vgpu-prof (nvprof equivalent) -----------------------------------------
  /// Activity tracing & metrics for every subsequent device op
  /// (e.g. set_prof_mode(ProfMode::kTrace)). Switching to kOff detaches and
  /// discards the profiler; enabling after the first launch is refused.
  ProfMode prof_mode() const { return prof_ ? prof_->mode() : ProfMode::kOff; }
  ErrorCode set_prof_mode(ProfMode m);
  /// The activity stream collector; nullptr while profiling is off.
  Profiler* profiler() { return prof_.get(); }
  const Profiler* profiler() const { return prof_.get(); }
  /// Emit the enabled profiler reports now instead of at destruction.
  void flush_prof(std::ostream& out);

  // --- vgpu-advise (performance advisor) -------------------------------------
  /// Rule-based Table-I anti-pattern diagnosis over subsequent device ops
  /// (e.g. set_advise_mode(AdviseMode::kFull)). Switching to kOff detaches
  /// and discards the advisor; enabling after the first launch is refused.
  /// Strictly observational: stats and simulated times are bit-identical on
  /// or off.
  AdviseMode advise_mode() const {
    return advise_ ? advise_->mode() : AdviseMode::kOff;
  }
  ErrorCode set_advise_mode(AdviseMode m);
  /// The evidence collector / rule engine; nullptr while advising is off.
  Advisor* advisor() { return advise_.get(); }
  const Advisor* advisor() const { return advise_.get(); }
  /// Start a new advisor evidence phase (no-op while advising is off). Rules
  /// never correlate records across phases, so callers can bracket one
  /// benchmark variant per phase and get per-variant diagnoses.
  void advise_phase(std::string name) {
    if (advise_ != nullptr) advise_->begin_phase(std::move(name));
  }
  /// Emit the advice report now instead of at destruction.
  void flush_advise(std::ostream& out);

  // --- vgpu-fault (CUDA error model + fault injection) -----------------------
  /// cudaGetLastError: latest error, then reset to kSuccess (sticky context
  /// corruption is NOT cleared — only device_reset() recovers).
  ErrorCode get_last_error() { return errors_.get_last(); }
  /// cudaPeekAtLastError: same without the reset.
  ErrorCode peek_last_error() const { return errors_.peek(); }
  /// How the most recent runtime call went — what the <vgpu/cuda_names.hpp>
  /// shim returns from each cudaXxx entry point.
  ErrorCode last_call_error() const { return errors_.call(); }
  /// cudaDeviceReset: clears sticky corruption and all deferred stream
  /// errors. Unlike hardware, the simulator keeps the heap contents —
  /// existing DevSpans stay functional after a reset (see DESIGN.md §10).
  void device_reset();
  /// Replace the fault injector with one parsed from `spec` ("" disables).
  /// RuntimeOptions::fault_spec seeds it at construction; arming a new spec
  /// after the first launch is refused ("" stays legal).
  ErrorCode set_fault_spec(std::string_view spec);
  /// Share a pre-armed injector with this Runtime, replacing the one parsed
  /// from RuntimeOptions::fault_spec. The serve retry engine hands each
  /// replay attempt's fresh Runtime the SAME injector so per-site call
  /// counters persist across attempts (a consumed `nth=N` fault stays
  /// consumed — the replay runs clean, exactly like PR 5's manual-retry
  /// recovery on a single Runtime). Same locking rule as set_fault_spec:
  /// refused with kInvalidValue once a kernel has launched.
  ErrorCode adopt_fault_injector(std::shared_ptr<FaultInjector> inj);
  /// The active injector; nullptr when fault injection is off.
  const FaultInjector* fault_injector() const { return fault_.get(); }

  /// Record how an externally-implemented runtime call went — the multi-GPU
  /// peer API (src/multi) runs its calls through the owning DeviceSet but
  /// reports them against a member device's error state, honoring sticky
  /// poisoning. Returns the code the call reports: the sticky code on a
  /// poisoned context, otherwise `e`.
  ErrorCode record_call(ErrorCode e) {
    if (!begin_op()) return errors_.call();
    errors_.fail(e);
    return errors_.call();
  }

  Timeline& timeline() { return tl_; }
  ManagedDirectory& managed() { return managed_; }

  // --- Streams ---------------------------------------------------------------
  Stream& default_stream() { return streams_.front(); }
  Stream& create_stream();

  // --- Device memory ------------------------------------------------------------
  /// cudaMalloc: an empty span (addr 0) plus a recorded
  /// cudaErrorMemoryAllocation when the device is out of memory (capacity
  /// in DeviceProfile::gmem_bytes, or an injected `oom` fault).
  template <typename T>
  DevSpan<T> malloc(std::size_t n) {
    if (!begin_op()) return {};
    if (inject_fault(FaultSite::kOom)) {
      errors_.fail(ErrorCode::kMemoryAllocation);
      return {};
    }
    DevSpan<T> s = gpu_.heap().alloc_span<T>(n);
    if (s.addr == 0) errors_.fail(ErrorCode::kMemoryAllocation);
    return s;
  }
  /// Deliberately misaligned allocation (MemAlign benchmark).
  template <typename T>
  DevSpan<T> malloc_offset(std::size_t n, std::size_t byte_offset) {
    if (!begin_op()) return {};
    DevSpan<T> s{
        gpu_.heap().alloc_offset(DeviceHeap::span_bytes<T>(n), byte_offset, 256).v, n};
    if (s.addr == 0) errors_.fail(ErrorCode::kMemoryAllocation);
    return s;
  }
  /// cudaFree: storage is not recycled (bump allocator), but the allocation
  /// is marked dead so vgpu-san memcheck flags later touches as
  /// use-after-free. Freeing a non-base address or double-freeing records
  /// cudaErrorInvalidDevicePointer.
  template <typename T>
  void free(DevSpan<T> s) {
    if (!begin_op()) return;
    if (gpu_.heap().free(s.addr) != FreeResult::kOk)
      errors_.fail(ErrorCode::kInvalidDevicePointer);
  }
  template <typename T>
  DevSpan<T> malloc_managed(std::size_t n) {
    if (!begin_op()) return {};
    if (inject_fault(FaultSite::kOom)) {
      errors_.fail(ErrorCode::kMemoryAllocation);
      return {};
    }
    DevSpan<T> s = gpu_.heap().alloc_span<T>(n, profile_.um_page_bytes);
    if (s.addr == 0) {
      errors_.fail(ErrorCode::kMemoryAllocation);
      return {};
    }
    if (!managed_.register_range(s.addr, s.bytes())) {
      errors_.fail(ErrorCode::kInvalidValue);
      return {};
    }
    return s;
  }
  template <typename T>
  ConstSpan<T> const_upload(std::span<const T> host) {
    if (!begin_op()) return {};
    ConstSpan<T> c = gpu_.constants().upload(host);
    tl_.copy_h2d(default_stream(), static_cast<double>(host.size_bytes()), /*sync=*/true);
    return c;
  }
  template <typename T>
  Texture<T> texture1d(std::span<const T> host) {
    return texture2d(host, static_cast<int>(host.size()), 1);
  }
  template <typename T>
  Texture<T> texture2d(std::span<const T> host, int width, int height) {
    DevSpan<T> d = malloc<T>(host.size());
    memcpy_h2d(d, host);
    return Texture<T>{d, width, height, gpu_.next_texture_id()};
  }

  // --- Copies (functional + timed) --------------------------------------------------
  // A null device span or a size overrun records cudaErrorInvalidValue and
  // copies nothing (CUDA validates arguments synchronously, even for async
  // copies). An injected transfer fault fails a blocking copy immediately
  // with cudaErrorUnknown; on an async copy it parks on the stream and
  // surfaces at the next sync point touching it.
  template <typename T>
  Timeline::Span memcpy_h2d(DevSpan<T> dst, std::span<const T> src,
                            HostMem mem = HostMem::kPinned) {
    if (!begin_op()) return {};
    if (dst.addr == 0 || src.size() > dst.n) {
      errors_.fail(ErrorCode::kInvalidValue);
      return {};
    }
    if (inject_fault(FaultSite::kH2D)) {
      errors_.fail(ErrorCode::kUnknown);
      return {};
    }
    gpu_.heap().copy_in(dst, src);
    return tl_.copy_h2d(default_stream(), static_cast<double>(src.size_bytes()),
                        /*sync=*/true, /*charge_submit=*/true, bw_scale(mem));
  }
  template <typename T>
  Timeline::Span memcpy_d2h(std::span<T> dst, DevSpan<T> src,
                            HostMem mem = HostMem::kPinned) {
    if (!begin_op()) return {};
    if (src.addr == 0 || dst.size() > src.n) {
      errors_.fail(ErrorCode::kInvalidValue);
      return {};
    }
    if (inject_fault(FaultSite::kD2H)) {
      errors_.fail(ErrorCode::kUnknown);
      return {};
    }
    gpu_.heap().copy_out(dst, src);
    return tl_.copy_d2h(default_stream(), static_cast<double>(dst.size_bytes()),
                        /*sync=*/true, /*charge_submit=*/true, bw_scale(mem));
  }
  template <typename T>
  Timeline::Span memcpy_h2d_async(Stream& s, DevSpan<T> dst, std::span<const T> src,
                                  HostMem mem = HostMem::kPinned) {
    if (!begin_op()) return {};
    if (dst.addr == 0 || src.size() > dst.n) {
      errors_.fail(ErrorCode::kInvalidValue);
      return {};
    }
    if (inject_fault(FaultSite::kH2D)) {
      s.defer_error(ErrorCode::kUnknown);
      return {};
    }
    gpu_.heap().copy_in(dst, src);
    // Async copies of pageable memory synchronize, like the CUDA runtime.
    return tl_.copy_h2d(s, static_cast<double>(src.size_bytes()),
                        /*sync=*/mem == HostMem::kPageable,
                        /*charge_submit=*/true, bw_scale(mem));
  }
  template <typename T>
  Timeline::Span memcpy_d2h_async(Stream& s, std::span<T> dst, DevSpan<T> src,
                                  HostMem mem = HostMem::kPinned) {
    if (!begin_op()) return {};
    if (src.addr == 0 || dst.size() > src.n) {
      errors_.fail(ErrorCode::kInvalidValue);
      return {};
    }
    if (inject_fault(FaultSite::kD2H)) {
      s.defer_error(ErrorCode::kUnknown);
      return {};
    }
    gpu_.heap().copy_out(dst, src);
    return tl_.copy_d2h(s, static_cast<double>(dst.size_bytes()),
                        /*sync=*/mem == HostMem::kPageable,
                        /*charge_submit=*/true, bw_scale(mem));
  }

  /// cudaMemset-style device-side fill: a stream op running at device-memory
  /// bandwidth, so it overlaps with other streams and appears on its stream's
  /// timeline row (not the host row) like any other device operation.
  template <typename T>
  Timeline::Span memset(Stream& s, DevSpan<T> dst, T value) {
    if (!begin_op()) return {};
    if (dst.addr == 0) {
      errors_.fail(ErrorCode::kInvalidValue);
      return {};
    }
    if (inject_fault(FaultSite::kMemset)) {  // Device-side op: deferred error.
      s.defer_error(ErrorCode::kUnknown);
      return {};
    }
    std::vector<T> fill(dst.n, value);
    gpu_.heap().copy_in(dst, std::span<const T>(fill));
    double us = static_cast<double>(dst.bytes()) / (profile_.dram_bw_gbps * 1e3);
    return tl_.memset(s, static_cast<double>(dst.bytes()), us);
  }
  template <typename T>
  Timeline::Span memset(DevSpan<T> dst, T value) {
    return memset(default_stream(), dst, value);
  }

  // --- Managed-memory host access ------------------------------------------------------
  // A host access whose page migration fails (injected `um_migrate` fault)
  // is a wild access on hardware: it records a sticky
  // cudaErrorIllegalAddress immediately and the functional bytes don't move.
  /// Host writes into a managed allocation; device-resident pages fault back.
  template <typename T>
  void managed_write(DevSpan<T> dst, std::span<const T> src) {
    if (!begin_op()) return;
    HostTouch t = managed_.on_host_access(dst.addr, src.size_bytes(), true);
    if (inject_um_fault(t.faulted_pages)) return;
    charge_host_touch(t);
    gpu_.heap().copy_in(dst, src);
  }
  template <typename T>
  void managed_read(std::span<T> dst, DevSpan<T> src) {
    if (!begin_op()) return;
    HostTouch t = managed_.on_host_access(src.addr, dst.size() * sizeof(T), false);
    if (inject_um_fault(t.faulted_pages)) return;
    charge_host_touch(t);
    gpu_.heap().copy_out(dst, src);
  }
  /// Simulate the host consuming `count` elements at `stride` from a managed
  /// span: device-resident pages fault back on first touch. Functional bytes
  /// are read separately with peek().
  template <typename T>
  void managed_host_touch(DevSpan<T> span, std::size_t stride, std::size_t count) {
    if (!begin_op()) return;
    for (std::size_t i = 0; i < count; ++i) {
      HostTouch t = managed_.on_host_access(span.addr_of(i * stride), sizeof(T), false);
      if (inject_um_fault(t.faulted_pages)) return;
      charge_host_touch(t);
    }
  }
  /// Untimed functional read, for verification/debugging only.
  template <typename T>
  void peek(std::span<T> dst, DevSpan<T> src) {
    gpu_.heap().copy_out(dst, src);
  }
  template <typename T>
  void prefetch_to_device(Stream& s, DevSpan<T> span) {
    if (!begin_op()) return;
    std::uint64_t moved = managed_.prefetch_to_device(span.addr, span.bytes());
    if (inject_um_fault(moved)) return;
    if (moved > 0) tl_.copy_h2d(s, static_cast<double>(moved), /*sync=*/false);
  }
  template <typename T>
  void advise(DevSpan<T> span, MemAdvise advice) {
    managed_.set_advise(span.addr, advice);
  }

  // --- Kernel launch -----------------------------------------------------------------
  LaunchInfo launch(Stream& s, const LaunchConfig& cfg, KernelFn fn);
  LaunchInfo launch(const LaunchConfig& cfg, KernelFn fn) {
    return launch(default_stream(), cfg, std::move(fn));
  }

  // --- Events & sync ---------------------------------------------------------------------
  // Synchronization calls are the sync points of the error model: deferred
  // (asynchronous) kernel/copy errors parked on a stream surface here — and
  // nowhere else — exactly as on hardware. Each returns the surfaced error
  // (or the sticky code on a poisoned context), and records it for
  // get_last_error().
  Event record_event(Stream& s);
  void stream_wait_event(Stream& s, const Event& e) {
    if (!begin_op()) return;
    tl_.stream_wait_event(s, e);
  }
  double elapsed_ms(const Event& start, const Event& stop) const {
    return (stop.time - start.time) * 1e-3;
  }
  ErrorCode synchronize();
  ErrorCode stream_synchronize(Stream& s);
  /// cudaEventSynchronize: also a sync point for the recording stream.
  ErrorCode event_synchronize(const Event& e);
  /// Simulated host clock, microseconds.
  double now_us() const { return tl_.host_now(); }

  // --- Graphs -------------------------------------------------------------------------------
  /// Fault injection does not reach inside instantiated graphs (their nodes
  /// bypass the per-call runtime boundary); a poisoned context still refuses
  /// the whole launch.
  Timeline::Span launch_graph(ExecGraph& g, Stream& s) {
    launched_ = true;
    if (!begin_op()) return {};
    return g.launch(gpu_, tl_, s);
  }

 private:
  double bw_scale(HostMem mem) const {
    return mem == HostMem::kPinned ? 1.0 : profile_.pageable_bw_factor;
  }

  /// Bracket a runtime call: pre-fails it with the sticky code (and skips
  /// all work) while the context is poisoned.
  bool begin_op() {
    errors_.begin_call();
    return errors_.poisoned() == ErrorCode::kSuccess;
  }
  bool inject_fault(FaultSite site) {
    return fault_ != nullptr && fault_->fire(site);
  }
  /// Decide an injected `um_migrate` failure for an access that actually
  /// migrated something; records the sticky illegal-address on fire.
  bool inject_um_fault(std::uint64_t moved) {
    if (moved == 0 || fault_ == nullptr || !fault_->armed(FaultSite::kUmMigrate))
      return false;
    if (!fault_->fire(FaultSite::kUmMigrate)) return false;
    errors_.fail(ErrorCode::kIllegalAddress);
    return true;
  }
  /// Surface a stream's deferred error into the error state (sync points).
  void surface(Stream& s) { errors_.fail(s.take_pending_error()); }

  void charge_host_touch(const HostTouch& t) {
    if (t.faulted_pages == 0) return;
    double us = static_cast<double>(t.faulted_pages) * profile_.um_host_fault_us +
                static_cast<double>(t.migrated_bytes) /
                    (profile_.um_migrate_bw_gbps * 1e3);
    double start = tl_.host_now();
    tl_.host_advance(us);
    if (prof_ != nullptr || advise_ != nullptr) {
      ActivityRecord r;
      r.kind = ActivityRecord::Kind::kUmMigration;
      r.name = "um host fault";
      r.stream = ActivityRecord::kHostStream;
      r.start_us = start;
      r.end_us = start + us;
      r.bytes = static_cast<double>(t.migrated_bytes);
      if (advise_ != nullptr) advise_->record(r);
      if (prof_ != nullptr) prof_->record(std::move(r));
    }
  }

  /// Refuse a post-launch configuration mutation: records and returns
  /// cudaErrorInvalidValue, leaving the configuration untouched.
  ErrorCode refuse_mutation() {
    errors_.begin_call();
    errors_.fail(ErrorCode::kInvalidValue);
    return errors_.call();
  }

  RuntimeOptions opts_;   // Live configuration (options() introspection).
  DeviceProfile profile_;
  GpuExec gpu_;
  Timeline tl_;
  ManagedDirectory managed_;
  ErrorState errors_;
  // Present only with a fault spec. Shared, not unique: the serve retry
  // engine re-adopts one injector across replay Runtimes (see
  // adopt_fault_injector); everyone else holds the only reference.
  std::shared_ptr<FaultInjector> fault_;
  std::unique_ptr<Profiler> prof_;  // Present only while profiling is on.
  std::unique_ptr<Advisor> advise_;  // Present only while advising is on.
  std::deque<Stream> streams_;  // Deque keeps references stable.
  int next_stream_id_ = 1;
  bool launched_ = false;  // Set by the first launch/launch_graph.
};

}  // namespace vgpu
