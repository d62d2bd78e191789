#pragma once

// Discrete-event timeline of one GPU-accelerated system.
//
// Models the resources asynchrony plays against (paper sections III-C, V-A):
//   - the host thread (submission overheads, synchronization),
//   - one H2D and one D2H DMA engine (copies in opposite directions overlap;
//     same-direction copies serialize),
//   - the SM pool (kernels from different streams co-reside on disjoint SMs —
//     the concurrent-kernels mechanism of Fig. 6).
//
// All times are microseconds since timeline start.

#include <algorithm>
#include <vector>

#include "prof/prof.hpp"
#include "sim/device.hpp"
#include "sim/gpu.hpp"
#include "xfer/stream.hpp"

namespace vgpu {

class Advisor;

/// The host thread's clock. Normally each Timeline owns one; a multi-GPU
/// DeviceSet installs a single shared instance into every member timeline so
/// submission costs and blocking waits serialize across devices exactly as
/// one host thread driving N devices would.
struct HostClock {
  double now = 0;
};

class Timeline {
 public:
  struct Span {
    double start = 0;
    double end = 0;
    double duration() const { return end - start; }
  };

  explicit Timeline(const DeviceProfile& profile)
      : profile_(profile),
        sm_free_(static_cast<std::size_t>(profile.sm_count), 0.0) {}

  // clock_ may point at own_clock_; a byte-wise copy would alias the source.
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  double host_now() const { return clock_->now; }
  void host_advance(double us) {
    clock_->now += us;
    note(clock_->now);
  }
  /// Block the host until simulated time `t` (no-op if already past it).
  void host_wait_until(double t) {
    if (t > clock_->now) clock_->now = t;
  }

  /// Share a host clock with other timelines (nullptr restores the owned
  /// clock). The incoming clock absorbs any time this timeline already spent.
  void set_host_clock(HostClock* clock) {
    if (clock != nullptr) {
      clock->now = std::max(clock->now, clock_->now);
      clock_ = clock;
    } else {
      own_clock_.now = std::max(own_clock_.now, clock_->now);
      clock_ = &own_clock_;
    }
  }

  /// Fold an externally-scheduled completion (a peer transfer landing on
  /// this device) into the device frontier.
  void note_external(double t) { note(t); }

  /// Host<->device copy on the DMA engine for that direction.
  /// `sync` makes the host block until completion (cudaMemcpy semantics).
  /// `charge_submit=false` is used by graph launches, which pay a single
  /// whole-graph overhead instead of per-op submission costs.
  /// `bw_scale` < 1 models pageable (non-pinned) host memory.
  Span copy_h2d(Stream& s, double bytes, bool sync, bool charge_submit = true,
                double bw_scale = 1.0);
  Span copy_d2h(Stream& s, double bytes, bool sync, bool charge_submit = true,
                double bw_scale = 1.0);

  /// Schedule a kernel: waits for its stream, grabs preferred_sms SM slots,
  /// and runs for run.duration_us(granted). launch_overhead_us is host time
  /// (cheaper when the launch comes from an instantiated graph).
  Span kernel(Stream& s, const KernelRun& run, double launch_overhead_us);

  /// A host callback occupying the stream (cudaLaunchHostFunc).
  Span host_op(Stream& s, double duration_us, bool charge_submit = true);

  /// Device-side fill (cudaMemsetAsync): an ordinary stream op that runs on
  /// the device for `duration_us` — it contends with nothing but its own
  /// stream and overlaps with other streams, unlike a host callback.
  Span memset(Stream& s, double bytes, double duration_us);

  /// cudaEventRecord / cudaStreamWaitEvent / cudaEventSynchronize.
  void record_event(Stream& s, Event& e);
  void stream_wait_event(Stream& s, const Event& e);
  void event_synchronize(const Event& e);

  /// cudaStreamSynchronize / cudaDeviceSynchronize.
  void stream_synchronize(Stream& s);
  void device_synchronize();

  /// Attach the vgpu-prof activity sink (nullptr to detach). Every device
  /// op the timeline schedules is recorded there in submission order.
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// Attach the vgpu-advise sink (nullptr to detach). It sees the same
  /// ActivityRecord stream the profiler does, in the same submission order.
  void set_advisor(Advisor* advisor) { advisor_ = advisor; }

 private:
  void note(double t) {
    if (t > frontier_) frontier_ = t;
  }
  /// Record a non-kernel activity on the profiler (no-op when detached).
  void prof_activity(ActivityRecord::Kind kind, const char* name,
                     const Stream& s, Span span, double bytes);
  Span copy(Stream& s, double bytes, bool sync, bool charge_submit,
            double bw_scale, double& engine_free);

  DeviceProfile profile_;  // Owned: callers may pass a temporary.
  HostClock own_clock_;
  HostClock* clock_ = &own_clock_;
  double h2d_free_ = 0;
  double d2h_free_ = 0;
  double frontier_ = 0;
  std::vector<double> sm_free_;
  Profiler* prof_ = nullptr;
  Advisor* advisor_ = nullptr;
};

}  // namespace vgpu
