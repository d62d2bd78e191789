#include "xfer/timeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "advise/advise.hpp"

namespace vgpu {

Timeline::Span Timeline::copy(Stream& s, double bytes, bool sync, bool charge_submit,
                              double bw_scale, double& engine_free) {
  if (charge_submit) host_advance(profile_.stream_op_us);
  double ready = std::max(clock_->now, s.last_end());
  double start = std::max(ready, engine_free);
  double end = start + profile_.pcie_latency_us +
               bytes / (profile_.pcie_bw_gbps * bw_scale * 1e3);
  engine_free = end;
  s.set_last_end(end);
  note(end);
  if (sync) clock_->now = std::max(clock_->now, end);
  return Span{start, end};
}

Timeline::Span Timeline::copy_h2d(Stream& s, double bytes, bool sync,
                                  bool charge_submit, double bw_scale) {
  Span span = copy(s, bytes, sync, charge_submit, bw_scale, h2d_free_);
  prof_activity(ActivityRecord::Kind::kMemcpyH2D, "h2d", s, span, bytes);
  return span;
}

Timeline::Span Timeline::copy_d2h(Stream& s, double bytes, bool sync,
                                  bool charge_submit, double bw_scale) {
  Span span = copy(s, bytes, sync, charge_submit, bw_scale, d2h_free_);
  prof_activity(ActivityRecord::Kind::kMemcpyD2H, "d2h", s, span, bytes);
  return span;
}

Timeline::Span Timeline::kernel(Stream& s, const KernelRun& run,
                                double launch_overhead_us) {
  host_advance(launch_overhead_us);
  double ready = std::max(clock_->now, s.last_end());

  int want = std::clamp(run.preferred_sms, 1, profile_.sm_count);
  // Take the `want` earliest-available SM slots.
  std::vector<std::size_t> order(sm_free_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return sm_free_[a] < sm_free_[b]; });
  double slots_ready = sm_free_[order[static_cast<std::size_t>(want - 1)]];
  double start = std::max(ready, slots_ready);
  double end = start + run.duration_us(profile_, want);
  for (int i = 0; i < want; ++i) sm_free_[order[static_cast<std::size_t>(i)]] = end;

  s.set_last_end(end);
  note(end);
  Span span{start, end};
  if (prof_ != nullptr || advisor_ != nullptr) {
    ActivityRecord r;
    r.kind = ActivityRecord::Kind::kKernel;
    r.name = run.name;
    r.stream = s.id();
    r.start_us = span.start;
    r.end_us = span.end;
    r.stats = run.stats;
    r.grid_blocks = run.level_block_cycles.empty()
                        ? 0
                        : static_cast<long long>(run.level_block_cycles[0].size());
    r.block_threads = run.threads_per_block;
    r.blocks_per_sm = run.blocks_per_sm;
    r.granted_sms = want;
    // nvprof achieved_occupancy: resident warps per SM over the hardware max.
    int warps_per_block = (run.threads_per_block + 31) / 32;
    int max_warps = profile_.max_threads_per_sm / 32;
    r.achieved_occupancy =
        max_warps > 0
            ? std::min(1.0, static_cast<double>(run.blocks_per_sm) *
                                warps_per_block / max_warps)
            : 0.0;
    r.launch_overhead_us = launch_overhead_us;
    r.sm_slack = run.sm_slack(profile_, want);
    r.shared_bytes = run.shared_bytes;
    r.coalesce_hits = run.coalesce_hits;
    r.coalesce_misses = run.coalesce_misses;
    if (advisor_ != nullptr) advisor_->record(r);
    if (prof_ != nullptr) prof_->record(std::move(r));
  }
  return span;
}

Timeline::Span Timeline::memset(Stream& s, double bytes, double duration_us) {
  host_advance(profile_.stream_op_us);
  double start = std::max(clock_->now, s.last_end());
  double end = start + duration_us;
  s.set_last_end(end);
  note(end);
  Span span{start, end};
  prof_activity(ActivityRecord::Kind::kMemset, "memset", s, span, bytes);
  return span;
}

Timeline::Span Timeline::host_op(Stream& s, double duration_us, bool charge_submit) {
  if (charge_submit) host_advance(profile_.stream_op_us);
  double start = std::max(clock_->now, s.last_end());
  double end = start + duration_us;
  s.set_last_end(end);
  note(end);
  Span span{start, end};
  prof_activity(ActivityRecord::Kind::kHostFunc, "host", s, span, 0);
  return span;
}

void Timeline::record_event(Stream& s, Event& e) {
  host_advance(profile_.stream_op_us * 0.25);
  e.time = s.last_end();
  e.recorded = true;
  prof_activity(ActivityRecord::Kind::kEventRecord, "event", s,
                Span{e.time, e.time}, 0);
}

void Timeline::stream_wait_event(Stream& s, const Event& e) {
  if (!e.recorded) throw std::logic_error("waiting on unrecorded event");
  s.wait_until(e.time);
}

void Timeline::event_synchronize(const Event& e) {
  if (!e.recorded) throw std::logic_error("synchronizing on unrecorded event");
  clock_->now = std::max(clock_->now, e.time);
}

void Timeline::stream_synchronize(Stream& s) {
  clock_->now = std::max(clock_->now, s.last_end());
}

void Timeline::device_synchronize() { clock_->now = std::max(clock_->now, frontier_); }

void Timeline::prof_activity(ActivityRecord::Kind kind, const char* name,
                             const Stream& s, Span span, double bytes) {
  if (prof_ == nullptr && advisor_ == nullptr) return;
  ActivityRecord r;
  r.kind = kind;
  r.name = name;
  r.stream = s.id();
  r.start_us = span.start;
  r.end_us = span.end;
  r.bytes = bytes;
  if (advisor_ != nullptr) advisor_->record(r);
  if (prof_ != nullptr) prof_->record(std::move(r));
}

}  // namespace vgpu
