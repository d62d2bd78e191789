#include "multi/topology.hpp"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace vgpu {

namespace {

[[noreturn]] void bad_spec(std::string_view what, std::string_view token) {
  throw std::invalid_argument("VGPU_TOPOLOGY: " + std::string(what) + ": '" +
                              std::string(token) + "'");
}

double parse_positive(std::string_view t) {
  double v = 0;
  auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec != std::errc{} || p != t.data() + t.size() || v <= 0.0)
    bad_spec("bad value (expected a positive number)", t);
  return v;
}

}  // namespace

const char* link_kind_name(LinkKind k) {
  switch (k) {
    case LinkKind::kPcie: return "pcie";
    case LinkKind::kNvlink: return "nvlink";
  }
  return "?";
}

std::string Link::display_name(int device_count) const {
  auto node = [device_count](int id) {
    return id == device_count ? std::string("sw") : 'd' + std::to_string(id);
  };
  return std::string("link ") + link_kind_name(kind) + ' ' + node(a) + '-' +
         node(b);
}

Topology Topology::parse(std::string_view spec) {
  std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) bad_spec("missing ':'", spec);
  std::string_view kind = spec.substr(0, colon);

  Topology t;
  if (kind == "pcie") {
    t.shape_ = Shape::kPcieSwitch;
    t.bw_gbps_ = 12.0;
    t.latency_us_ = 2.0;
  } else if (kind == "nvlink") {
    t.shape_ = Shape::kNvlinkRing;
    t.bw_gbps_ = 50.0;
    t.latency_us_ = 1.0;
  } else if (kind == "mesh") {
    t.shape_ = Shape::kMesh;
    t.bw_gbps_ = 50.0;
    t.latency_us_ = 1.0;
  } else {
    bad_spec("unknown kind (expected pcie|nvlink|mesh)", kind);
  }

  std::string_view rest = spec.substr(colon + 1);
  std::size_t comma = rest.find(',');
  std::string_view count = rest.substr(0, comma);
  int n = 0;
  auto [p, ec] = std::from_chars(count.data(), count.data() + count.size(), n);
  if (ec != std::errc{} || p != count.data() + count.size())
    bad_spec("bad device count", count);
  if (n < 1 || n > 64) bad_spec("device count out of range (1..64)", count);
  t.devices_ = n;

  rest = comma == std::string_view::npos ? std::string_view{}
                                         : rest.substr(comma + 1);
  while (!rest.empty()) {
    comma = rest.find(',');
    std::string_view param = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (param.starts_with("bw=")) {
      t.bw_gbps_ = parse_positive(param.substr(3));
    } else if (param.starts_with("lat=")) {
      t.latency_us_ = parse_positive(param.substr(4));
    } else {
      bad_spec("unknown parameter (expected bw=|lat=)", param);
    }
  }
  t.build_links();
  return t;
}

Topology Topology::pcie_switch(int devices) {
  std::string spec = "pcie:" + std::to_string(devices);
  return parse(spec);
}

Topology Topology::nvlink_ring(int devices) {
  std::string spec = "nvlink:" + std::to_string(devices);
  return parse(spec);
}

Topology Topology::mesh(int devices) {
  std::string spec = "mesh:" + std::to_string(devices);
  return parse(spec);
}

void Topology::build_links() {
  links_.clear();
  LinkKind kind =
      shape_ == Shape::kPcieSwitch ? LinkKind::kPcie : LinkKind::kNvlink;
  auto add = [&](int a, int b) {
    links_.push_back(Link{a, b, kind, bw_gbps_, latency_us_});
  };
  switch (shape_) {
    case Shape::kPcieSwitch:
      // One root-port link per device into the virtual switch (node id
      // devices_). A single device still gets its link: it carries nothing,
      // but keeps link indices aligned with device ordinals.
      for (int d = 0; d < devices_; ++d) add(d, devices_);
      break;
    case Shape::kNvlinkRing:
      if (devices_ == 2) {
        add(0, 1);  // A two-device "ring" collapses to one link.
      } else {
        for (int d = 0; d < devices_; ++d) add(d, (d + 1) % devices_);
      }
      break;
    case Shape::kMesh:
      for (int a = 0; a < devices_; ++a)
        for (int b = a + 1; b < devices_; ++b) add(a, b);
      break;
  }
}

std::vector<std::size_t> Topology::route(int src, int dst) const {
  if (src < 0 || src >= devices_ || dst < 0 || dst >= devices_)
    throw std::out_of_range("Topology::route: device ordinal out of range");
  if (src == dst)
    throw std::invalid_argument("Topology::route: src == dst");

  std::vector<std::size_t> hops;
  switch (shape_) {
    case Shape::kPcieSwitch:
      // Link i is device i's root port (see build_links).
      hops.push_back(static_cast<std::size_t>(src));
      hops.push_back(static_cast<std::size_t>(dst));
      break;
    case Shape::kNvlinkRing: {
      if (devices_ == 2) {
        hops.push_back(0);
        break;
      }
      // Link d joins d and d+1. Walk whichever direction is shorter;
      // clockwise (ascending ordinals) wins ties for determinism.
      int cw = (dst - src + devices_) % devices_;
      int ccw = devices_ - cw;
      if (cw <= ccw) {
        for (int d = src; d != dst; d = (d + 1) % devices_)
          hops.push_back(static_cast<std::size_t>(d));
      } else {
        for (int d = src; d != dst; d = (d - 1 + devices_) % devices_)
          hops.push_back(static_cast<std::size_t>((d - 1 + devices_) % devices_));
      }
      break;
    }
    case Shape::kMesh: {
      int lo = src < dst ? src : dst;
      int hi = src < dst ? dst : src;
      // Links were appended in (a, b) lexicographic order: device a owns a
      // block of (devices_ - 1 - a) links starting after all earlier blocks.
      std::size_t base = 0;
      for (int a = 0; a < lo; ++a)
        base += static_cast<std::size_t>(devices_ - 1 - a);
      hops.push_back(base + static_cast<std::size_t>(hi - lo - 1));
      break;
    }
  }
  return hops;
}

double Topology::ideal_transfer_us(int src, int dst, double bytes) const {
  double us = 0;
  for (std::size_t h : route(src, dst)) us += links_[h].transfer_us(bytes);
  return us;
}

std::string Topology::to_string() const {
  const char* kind = shape_ == Shape::kPcieSwitch  ? "pcie"
                     : shape_ == Shape::kNvlinkRing ? "nvlink"
                                                    : "mesh";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << kind << ':' << devices_ << ",bw=" << bw_gbps_ << ",lat=" << latency_us_;
  return os.str();
}

}  // namespace vgpu
