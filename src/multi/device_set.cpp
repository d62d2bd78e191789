#include "multi/device_set.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "grade/json.hpp"

namespace vgpu {

DeviceSet::DeviceSet(RuntimeOptions opts) {
  topo_ = opts.topology.empty() ? Topology::pcie_switch(opts.devices)
                                : Topology::parse(opts.topology);
  if (opts.devices != 1 && opts.devices != topo_.devices())
    throw std::invalid_argument(
        "DeviceSet: devices=" + std::to_string(opts.devices) +
        " contradicts topology '" + topo_.to_string() + "'");

  fault_ = FaultInjector::from_spec(opts.fault_spec);
  trace_path_ = opts.trace_path;

  int n = topo_.devices();
  devices_.reserve(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    RuntimeOptions member = opts;
    member.devices = 1;
    member.topology.clear();
    // The DeviceSet owns the merged trace file; members keep their records
    // in memory but never write their own.
    member.trace_path.clear();
    // One advise JSON sink can't serve N advisors; device 0 keeps it.
    if (d != 0) member.advise_json_path.clear();
    if (fault_ != nullptr) member.fault_spec = fault_->filtered_spec(d);
    devices_.push_back(std::make_unique<Runtime>(std::move(member)));
    devices_.back()->timeline().set_host_clock(&clock_);
  }
  peer_.assign(static_cast<std::size_t>(n),
               std::vector<bool>(static_cast<std::size_t>(n), false));
  link_free_.assign(topo_.links().size(), 0.0);
}

DeviceSet::~DeviceSet() {
  if (trace_path_.empty()) return;
  bool any_trace = false;
  for (auto& d : devices_)
    if (d->profiler() != nullptr &&
        prof_has(d->profiler()->mode(), ProfMode::kTrace))
      any_trace = true;
  if (any_trace) write_chrome_trace(trace_path_);
}

ErrorCode DeviceSet::set_device(int ordinal) {
  if (ordinal < 0 || ordinal >= device_count())
    return current().record_call(ErrorCode::kInvalidDevice);
  current_ = ordinal;
  return current().record_call(ErrorCode::kSuccess);
}

bool DeviceSet::can_access_peer(int device, int peer) const {
  return device >= 0 && device < device_count() && peer >= 0 &&
         peer < device_count() && device != peer;
}

ErrorCode DeviceSet::enable_peer_access(int dev, int peer) {
  Runtime& rec = dev >= 0 && dev < device_count() ? device(dev) : *devices_[0];
  if (!can_access_peer(dev, peer))
    return rec.record_call(ErrorCode::kInvalidDevice);
  if (peer_enabled_at(dev, peer))
    return rec.record_call(ErrorCode::kPeerAccessAlreadyEnabled);
  peer_[static_cast<std::size_t>(dev)][static_cast<std::size_t>(peer)] = true;
  return rec.record_call(ErrorCode::kSuccess);
}

ErrorCode DeviceSet::disable_peer_access(int dev, int peer) {
  Runtime& rec = dev >= 0 && dev < device_count() ? device(dev) : *devices_[0];
  if (!can_access_peer(dev, peer))
    return rec.record_call(ErrorCode::kInvalidDevice);
  if (!peer_enabled_at(dev, peer))
    return rec.record_call(ErrorCode::kPeerAccessNotEnabled);
  peer_[static_cast<std::size_t>(dev)][static_cast<std::size_t>(peer)] = false;
  return rec.record_call(ErrorCode::kSuccess);
}

bool DeviceSet::peer_enabled(int dev, int peer) const {
  return can_access_peer(dev, peer) && peer_enabled_at(dev, peer);
}

bool DeviceSet::check_peer_op(int dst_dev, int src_dev, bool args_ok) {
  bool src_ok = src_dev >= 0 && src_dev < device_count();
  bool dst_ok = dst_dev >= 0 && dst_dev < device_count();
  if (!src_ok || !dst_ok || src_dev == dst_dev) {
    Runtime& rec = src_ok ? device(src_dev) : *devices_[0];
    rec.record_call(ErrorCode::kInvalidDevice);
    return false;
  }
  if (!args_ok) {
    device(src_dev).record_call(ErrorCode::kInvalidValue);
    return false;
  }
  // Brackets the call: pre-fails (and skips the transfer) on a poisoned
  // source context, like every Runtime entry point.
  return device(src_dev).record_call(ErrorCode::kSuccess) ==
         ErrorCode::kSuccess;
}

Timeline::Span DeviceSet::route_transfer(int src_dev, int dst_dev,
                                         double bytes, double t) {
  Timeline::Span span{t, t};
  bool first = true;
  for (std::size_t h : topo_.route(src_dev, dst_dev)) {
    const Link& link = topo_.links()[h];
    double start = std::max(t, link_free_[h]);
    double end = start + link.transfer_us(bytes);
    link_free_[h] = end;
    link_spans_.push_back(LinkSpan{h, src_dev, dst_dev, start, end, bytes});
    if (first) {
      span.start = start;
      first = false;
    }
    t = end;
  }
  span.end = t;
  return span;
}

Timeline::Span DeviceSet::memcpy_peer_impl_untyped(int dst_dev, int src_dev,
                                                   double bytes, Stream* stream) {
  Runtime& srt = device(src_dev);
  Runtime& drt = device(dst_dev);
  Stream& s = stream != nullptr ? *stream : srt.default_stream();
  bool sync = stream == nullptr;
  bool direct = peer_enabled_at(src_dev, dst_dev);
  Timeline::Span span;
  if (direct) {
    srt.timeline().host_advance(srt.profile().stream_op_us);
    double ready = std::max(clock_.now, s.last_end());
    span = route_transfer(src_dev, dst_dev, bytes, ready);
    s.set_last_end(span.end);
    srt.timeline().note_external(span.end);
    drt.timeline().note_external(span.end);
    if (sync) srt.timeline().host_wait_until(span.end);
  } else {
    // Host-staged bounce: a blocking D2H on the source's engine, then an H2D
    // on the destination's — two PCIe traversals with the host in the
    // middle. (Even the async form blocks on the D2H leg: without peer
    // mappings the runtime has to stage through an unpinned host bounce
    // buffer, which is exactly the anti-pattern the advisor prices.)
    Timeline::Span a = srt.timeline().copy_d2h(s, bytes, /*sync=*/true);
    Timeline::Span b =
        drt.timeline().copy_h2d(drt.default_stream(), bytes, /*sync=*/sync);
    span = Timeline::Span{a.start, b.end};
  }
  record_p2p(src_dev, dst_dev, bytes, span, stream, /*staged=*/!direct);
  return span;
}

void DeviceSet::atomic_round_trip(int src_dev, int dst_dev, double bytes) {
  Runtime& srt = device(src_dev);
  srt.timeline().host_advance(srt.profile().stream_op_us);
  Timeline::Span fwd = route_transfer(src_dev, dst_dev, bytes, clock_.now);
  Timeline::Span back = route_transfer(dst_dev, src_dev, 0.0, fwd.end);
  device(dst_dev).timeline().note_external(fwd.end);
  srt.timeline().note_external(back.end);
  srt.timeline().host_wait_until(back.end);
}

void DeviceSet::record_p2p(int src_dev, int dst_dev, double bytes,
                           Timeline::Span span, Stream* stream, bool staged) {
  Runtime& srt = device(src_dev);
  Profiler* prof = srt.profiler();
  Advisor* adv = srt.advisor();
  if (prof == nullptr && adv == nullptr) return;
  ActivityRecord r;
  r.kind = ActivityRecord::Kind::kMemcpyP2P;
  r.name = staged ? "p2p staged" : "p2p";
  r.stream = stream != nullptr ? stream->id() : srt.default_stream().id();
  r.start_us = span.start;
  r.end_us = span.end;
  r.bytes = bytes;
  r.peer_device = dst_dev;
  r.peer_staged = staged;
  r.peer_direct_us = topo_.ideal_transfer_us(src_dev, dst_dev, bytes);
  if (adv != nullptr) adv->record(r);
  if (prof != nullptr) prof->record(std::move(r));
}

ErrorCode DeviceSet::synchronize_all() {
  ErrorCode first = ErrorCode::kSuccess;
  for (auto& d : devices_) {
    ErrorCode e = d->synchronize();
    if (first == ErrorCode::kSuccess) first = e;
  }
  return first;
}

std::string DeviceSet::chrome_trace_json() const {
  // Each device is its own process (pid = ordinal) holding its profiler's
  // rows; the interconnect is a final process with one row per topology link.
  grade::JsonWriter w;
  w.begin_object()
      .key("otherData").begin_object()
      .kv("tool", "vgpu-multi").kv("time_unit", "us")
      .end_object()
      .kv("displayTimeUnit", "ms")
      .key("traceEvents").begin_array();
  auto metadata = [&w](int pid, int tid, const char* name, const std::string& label) {
    w.begin_object()
        .kv("ph", "M").kv("pid", pid).kv("tid", tid).kv("name", name)
        .key("args").begin_object().kv("name", label).end_object()
        .end_object();
  };

  int n = device_count();
  for (int d = 0; d < n; ++d) {
    metadata(d, 0, "process_name", "device " + std::to_string(d));
    if (const Profiler* prof = devices_[static_cast<std::size_t>(d)]->profiler())
      prof->write_trace_events(w, d);
  }

  int link_pid = n;
  metadata(link_pid, 0, "process_name", "interconnect");
  const auto& links = topo_.links();
  for (std::size_t l = 0; l < links.size(); ++l)
    metadata(link_pid, static_cast<int>(l), "thread_name", links[l].display_name(n));
  for (const LinkSpan& ls : link_spans_) {
    w.begin_object()
        .kv("ph", "X").kv("pid", link_pid).kv("tid", static_cast<int>(ls.link))
        .kv("name", 'd' + std::to_string(ls.src) + "-d" + std::to_string(ls.dst))
        .kv("cat", "link").kv("ts", ls.start_us).kv("dur", ls.end_us - ls.start_us)
        .key("args").begin_object()
        .kv("bytes", static_cast<std::int64_t>(ls.bytes))
        .end_object()
        .end_object();
  }
  w.end_array().end_object();
  return w.str() + "\n";
}

bool DeviceSet::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json();
  return static_cast<bool>(f);
}

}  // namespace vgpu
