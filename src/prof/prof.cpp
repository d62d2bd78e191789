#include "prof/prof.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "grade/json.hpp"

namespace vgpu {

namespace {

ProfMode parse_token(std::string_view t) {
  if (t == "off" || t == "0" || t == "none") return ProfMode::kOff;
  if (t == "summary") return ProfMode::kSummary;
  if (t == "trace") return ProfMode::kTrace;
  if (t == "metrics") return ProfMode::kMetrics;
  if (t == "full" || t == "all" || t == "on" || t == "1") return ProfMode::kFull;
  throw std::invalid_argument("unknown VGPU_PROF token: '" + std::string(t) +
                              "' (expected off|summary|trace|metrics|full)");
}

/// "412.50us", "1.234ms", "2.100s" — the nvprof column format.
std::string fmt_us(double us) {
  char buf[32];
  if (us >= 1e6)
    std::snprintf(buf, sizeof buf, "%.3fs", us * 1e-6);
  else if (us >= 1e3)
    std::snprintf(buf, sizeof buf, "%.3fms", us * 1e-3);
  else
    std::snprintf(buf, sizeof buf, "%.2fus", us);
  return buf;
}

/// bytes / us -> "11.25GB/s".
std::string fmt_throughput(double bytes, double us) {
  char buf[32];
  double gbps = us > 0 ? bytes / us * 1e-3 : 0;
  std::snprintf(buf, sizeof buf, "%.2fGB/s", gbps);
  return buf;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Display name of a non-kernel activity in the summary table, matching the
/// bracketed rows nvprof prints.
const char* summary_row_name(ActivityRecord::Kind k) {
  switch (k) {
    case ActivityRecord::Kind::kMemcpyH2D: return "[CUDA memcpy HtoD]";
    case ActivityRecord::Kind::kMemcpyD2H: return "[CUDA memcpy DtoH]";
    case ActivityRecord::Kind::kMemset: return "[CUDA memset]";
    case ActivityRecord::Kind::kUmMigration: return "[Unified Memory migration]";
    case ActivityRecord::Kind::kHostFunc: return "[host function]";
    case ActivityRecord::Kind::kMemcpyP2P: return "[CUDA memcpy PtoP]";
    default: return "?";
  }
}

/// chrome://tracing row (tid) layout: streams first, then the copy engines
/// and the host/UM row, mirroring the nvvp timeline.
constexpr int kTidH2D = 1000;
constexpr int kTidD2H = 1001;
constexpr int kTidHost = 1002;
constexpr int kTidP2P = 1003;

int chrome_tid(const ActivityRecord& r) {
  switch (r.kind) {
    case ActivityRecord::Kind::kMemcpyH2D: return kTidH2D;
    case ActivityRecord::Kind::kMemcpyD2H: return kTidD2H;
    case ActivityRecord::Kind::kUmMigration: return kTidHost;
    case ActivityRecord::Kind::kMemcpyP2P: return kTidP2P;
    default:
      return r.stream == ActivityRecord::kHostStream ? kTidHost : r.stream;
  }
}

const char* chrome_category(ActivityRecord::Kind k) {
  switch (k) {
    case ActivityRecord::Kind::kKernel: return "kernel";
    case ActivityRecord::Kind::kMemcpyH2D: return "memcpy_h2d";
    case ActivityRecord::Kind::kMemcpyD2H: return "memcpy_d2h";
    case ActivityRecord::Kind::kMemset: return "memset";
    case ActivityRecord::Kind::kUmMigration: return "um";
    case ActivityRecord::Kind::kHostFunc: return "host";
    case ActivityRecord::Kind::kEventRecord: return "event";
    case ActivityRecord::Kind::kMemcpyP2P: return "memcpy_p2p";
  }
  return "?";
}

/// Process-wide trace-file numbering: the first flush keeps the configured
/// name, later flushes (e.g. one Runtime per benchmark configuration) insert
/// ".N" before the extension so no trace overwrites another.
std::string next_trace_path(const std::string& base) {
  static std::atomic<int> counter{0};
  int n = counter.fetch_add(1);
  if (n == 0) return base;
  std::size_t slash = base.find_last_of('/');
  std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + "." + std::to_string(n);
  return base.substr(0, dot) + "." + std::to_string(n) + base.substr(dot);
}

}  // namespace

ProfMode parse_prof_mode(std::string_view s) {
  ProfMode m = ProfMode::kOff;
  while (!s.empty()) {
    std::size_t comma = s.find(',');
    m = m | parse_token(s.substr(0, comma));
    s = comma == std::string_view::npos ? std::string_view{} : s.substr(comma + 1);
  }
  return m;
}

std::vector<Metric> derived_metrics(const ActivityRecord& k) {
  const KernelStats& s = k.stats;
  std::vector<Metric> m;
  m.push_back({"warp_execution_efficiency", s.warp_execution_efficiency(), "%"});
  m.push_back({"gld_transactions_per_request",
               ratio(s.gld_transactions, s.gld_requests), ""});
  m.push_back({"gst_transactions_per_request",
               ratio(s.gst_transactions, s.gst_requests), ""});
  // Shared-memory requests replay once per extra conflicting pass, so
  // transactions = accesses + conflicts (nvprof's shared_*_transactions).
  std::uint64_t smem_accesses = s.smem_loads + s.smem_stores;
  m.push_back({"shared_transactions_per_request",
               ratio(smem_accesses + s.bank_conflicts, smem_accesses), ""});
  m.push_back({"shared_bank_conflicts", static_cast<double>(s.bank_conflicts), ""});
  m.push_back({"achieved_occupancy", k.achieved_occupancy, ""});
  m.push_back({"global_hit_rate", 100.0 * ratio(s.l1_hits, s.l1_hits + s.l1_misses),
               "%"});
  m.push_back({"l2_hit_rate", 100.0 * ratio(s.l2_hits, s.l2_hits + s.l2_misses),
               "%"});
  // Simulator self-metric (no nvprof analogue): how often the coalescing
  // analysis was served from the per-warp memo instead of recomputed.
  m.push_back({"coalesce_cache_hit_rate",
               100.0 * ratio(k.coalesce_hits, k.coalesce_hits + k.coalesce_misses),
               "%"});
  double dur = k.duration_us();
  m.push_back({"dram_read_throughput",
               dur > 0 ? static_cast<double>(s.dram_read_bytes) / dur * 1e-3 : 0,
               "GB/s"});
  m.push_back({"dram_write_throughput",
               dur > 0 ? static_cast<double>(s.dram_write_bytes) / dur * 1e-3 : 0,
               "GB/s"});
  return m;
}

void Profiler::record(ActivityRecord r) {
  r.correlation = next_correlation_++;
  records_.push_back(std::move(r));
  flushed_ = false;
}

void Profiler::clear() {
  records_.clear();
  next_correlation_ = 1;
  flushed_ = false;
}

std::string Profiler::summary() const {
  // Aggregate kernels by name and non-kernels by kind.
  struct Row {
    std::string name;
    int calls = 0;
    double total = 0, min = 0, max = 0;
    double bytes = 0;
    bool is_copy = false;
  };
  std::map<std::string, Row> kernels;
  std::map<ActivityRecord::Kind, Row> others;
  double gpu_total = 0;
  for (const ActivityRecord& r : records_) {
    if (r.kind == ActivityRecord::Kind::kEventRecord) continue;
    Row* row;
    if (r.kind == ActivityRecord::Kind::kKernel) {
      row = &kernels.try_emplace(r.name, Row{r.name, 0, 0, 0, 0, 0, false})
                 .first->second;
    } else {
      row = &others.try_emplace(r.kind, Row{summary_row_name(r.kind), 0, 0, 0, 0,
                                            0, true}).first->second;
    }
    double d = r.duration_us();
    if (row->calls == 0) {
      row->min = row->max = d;
    } else {
      row->min = std::min(row->min, d);
      row->max = std::max(row->max, d);
    }
    ++row->calls;
    row->total += d;
    row->bytes += r.bytes;
    gpu_total += d;
  }

  std::vector<Row> rows;
  for (auto& [name, row] : kernels) rows.push_back(row);
  for (auto& [kind, row] : others) rows.push_back(row);
  // nvprof orders by share of total GPU time, largest first.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.total != b.total) return a.total > b.total;
    return a.name < b.name;
  });

  std::ostringstream os;
  os << "==vgpu-prof== GPU activities:\n";
  char line[256];
  std::snprintf(line, sizeof line, "%8s  %10s  %6s  %10s  %10s  %10s  %s\n",
                "Time(%)", "Time", "Calls", "Avg", "Min", "Max", "Name");
  os << line;
  for (const Row& r : rows) {
    double pct = gpu_total > 0 ? 100.0 * r.total / gpu_total : 0;
    std::string name = r.name;
    if (r.is_copy && r.bytes > 0)
      name += " (" + fmt_throughput(r.bytes, r.total) + ")";
    std::snprintf(line, sizeof line, "%7.2f%%  %10s  %6d  %10s  %10s  %10s  %s\n",
                  pct, fmt_us(r.total).c_str(), r.calls,
                  fmt_us(r.total / r.calls).c_str(), fmt_us(r.min).c_str(),
                  fmt_us(r.max).c_str(), name.c_str());
    os << line;
  }
  return os.str();
}

std::vector<KernelAggregate> aggregate_kernel_records(
    const std::vector<ActivityRecord>& records) {
  // One aggregate record per kernel name, in first-launch order: summed
  // stats and spans, duration-weighted achieved occupancy.
  std::vector<KernelAggregate> agg;
  std::map<std::string, std::size_t> index;
  std::map<std::string, double> occ_weight;
  for (const ActivityRecord& r : records) {
    if (r.kind != ActivityRecord::Kind::kKernel) continue;
    auto [it, fresh] = index.try_emplace(r.name, agg.size());
    if (fresh) {
      agg.push_back(KernelAggregate{r, 0});
      agg.back().record.achieved_occupancy = 0;
      agg.back().record.end_us = r.start_us;  // Accumulates summed duration below.
      occ_weight[r.name] = 0;
    } else {
      ActivityRecord& a = agg[it->second].record;
      a.stats += r.stats;
      a.coalesce_hits += r.coalesce_hits;
      a.coalesce_misses += r.coalesce_misses;
    }
    KernelAggregate& ka = agg[it->second];
    ka.record.end_us += r.duration_us();
    ka.record.achieved_occupancy += r.achieved_occupancy * r.duration_us();
    occ_weight[r.name] += r.duration_us();
    ++ka.calls;
  }
  for (KernelAggregate& ka : agg) {
    double w = occ_weight[ka.record.name];
    ka.record.achieved_occupancy = w > 0 ? ka.record.achieved_occupancy / w : 0;
  }
  return agg;
}

std::string Profiler::metrics_report() const {
  std::ostringstream os;
  os << "==vgpu-prof== Metric results:\n";
  for (const KernelAggregate& ka : aggregate_kernel_records(records_)) {
    const ActivityRecord& a = ka.record;
    os << "Kernel: " << a.name << " (" << ka.calls << " invocation"
       << (ka.calls == 1 ? "" : "s") << ")\n";
    char line[160];
    for (const Metric& m : derived_metrics(a)) {
      std::snprintf(line, sizeof line, "    %-34s  %12.4f%s\n", m.name.c_str(),
                    m.value, m.unit);
      os << line;
    }
  }
  return os.str();
}

std::string Profiler::chrome_trace_json() const {
  grade::JsonWriter w;
  w.begin_object()
      .key("otherData").begin_object()
      .kv("tool", "vgpu-prof").kv("time_unit", "us")
      .end_object()
      .kv("displayTimeUnit", "ms")
      .key("traceEvents").begin_array();
  write_trace_events(w, 0);
  w.end_array().end_object();
  return w.str() + "\n";
}

void Profiler::write_trace_events(grade::JsonWriter& w, int pid) const {
  // Row labels (thread_name metadata), streams first then the engines.
  std::vector<int> tids;
  for (const ActivityRecord& r : records_) {
    int tid = chrome_tid(r);
    if (std::find(tids.begin(), tids.end(), tid) == tids.end()) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size(); ++i) {
    int tid = tids[i];
    std::string label;
    if (tid == kTidH2D) label = "MemCpy (HtoD)";
    else if (tid == kTidD2H) label = "MemCpy (DtoH)";
    else if (tid == kTidHost) label = "Host / Unified Memory";
    else if (tid == kTidP2P) label = "MemCpy (PtoP)";
    else label = "Stream " + std::to_string(tid);
    w.begin_object()
        .kv("ph", "M").kv("pid", pid).kv("tid", tid).kv("name", "thread_name")
        .key("args").begin_object().kv("name", label).end_object()
        .end_object();
    w.begin_object()
        .kv("ph", "M").kv("pid", pid).kv("tid", tid)
        .kv("name", "thread_sort_index")
        .key("args").begin_object().kv("sort_index", static_cast<int>(i)).end_object()
        .end_object();
  }

  for (const ActivityRecord& r : records_) {
    bool instant = r.kind == ActivityRecord::Kind::kEventRecord;
    w.begin_object()
        .kv("ph", instant ? "i" : "X").kv("pid", pid).kv("tid", chrome_tid(r))
        .kv("name", r.name).kv("cat", chrome_category(r.kind))
        .kv("ts", r.start_us);
    if (instant) {
      w.kv("s", "t").end_object();
      continue;
    }
    w.kv("dur", r.duration_us())
        .key("args").begin_object()
        .kv("stream", r.stream)
        .kv("correlation", std::uint64_t{r.correlation});
    if (r.bytes > 0) w.kv("bytes", static_cast<std::int64_t>(r.bytes));
    if (r.kind == ActivityRecord::Kind::kMemcpyP2P)
      w.kv("peer_device", r.peer_device).kv("staged", r.peer_staged);
    if (r.kind == ActivityRecord::Kind::kKernel) {
      w.kv("grid", static_cast<std::int64_t>(r.grid_blocks))
          .kv("block", r.block_threads)
          .kv("granted_sms", r.granted_sms)
          .kv("warp_execution_efficiency", r.stats.warp_execution_efficiency())
          .kv("gld_transactions", r.stats.gld_transactions)
          .kv("gst_transactions", r.stats.gst_transactions)
          .kv("shared_bank_conflicts", r.stats.bank_conflicts)
          .kv("achieved_occupancy", r.achieved_occupancy);
    }
    w.end_object().end_object();
  }
}

std::string Profiler::gantt(int width) const {
  auto drawn = [](const ActivityRecord& r) {
    return r.kind != ActivityRecord::Kind::kEventRecord;
  };
  bool any = false;
  double t0 = 0, t1 = 0;
  for (const ActivityRecord& r : records_) {
    if (!drawn(r)) continue;
    t0 = any ? std::min(t0, r.start_us) : r.start_us;
    t1 = any ? std::max(t1, r.end_us) : r.end_us;
    any = true;
  }
  if (!any) return "(empty trace)\n";
  if (t1 <= t0) t1 = t0 + 1;
  double scale = width / (t1 - t0);

  auto glyph = [](ActivityRecord::Kind k) {
    switch (k) {
      case ActivityRecord::Kind::kKernel: return '#';
      case ActivityRecord::Kind::kMemcpyH2D: return '>';
      case ActivityRecord::Kind::kMemcpyD2H: return '<';
      case ActivityRecord::Kind::kMemset: return 'm';
      default: return '@';
    }
  };

  // Group by stream id, preserving numeric order.
  std::map<int, std::string> rows;
  for (const ActivityRecord& r : records_) {
    if (!drawn(r)) continue;
    std::string& row = rows.try_emplace(r.stream, std::string(
        static_cast<std::size_t>(width), '.')).first->second;
    int b = static_cast<int>((r.start_us - t0) * scale);
    int e = std::max(b + 1, static_cast<int>((r.end_us - t0) * scale));
    for (int i = b; i < e && i < width; ++i) row[static_cast<std::size_t>(i)] = glyph(r.kind);
  }

  std::ostringstream os;
  char hdr[128];
  std::snprintf(hdr, sizeof hdr,
                "timeline %.1f..%.1f us  (#=kernel >=H2D <=D2H m=memset @=host)\n",
                t0, t1);
  os << hdr;
  for (auto& [stream, row] : rows) {
    char label[32];
    std::snprintf(label, sizeof label, "stream %2d |", stream);
    os << label << row << "|\n";
  }
  return os.str();
}

bool Profiler::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json();
  return static_cast<bool>(f);
}

void Profiler::flush(std::ostream& out) {
  if (flushed_ || records_.empty()) return;
  flushed_ = true;
  if (prof_has(mode_, ProfMode::kSummary)) out << summary();
  if (prof_has(mode_, ProfMode::kMetrics)) out << metrics_report();
  if (prof_has(mode_, ProfMode::kTrace) && !trace_path_.empty()) {
    std::string path = next_trace_path(trace_path_);
    if (write_chrome_trace(path))
      out << "==vgpu-prof== wrote chrome://tracing JSON to " << path << "\n";
    else
      out << "==vgpu-prof== FAILED to write trace to " << path << "\n";
  }
}

}  // namespace vgpu
