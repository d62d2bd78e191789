#pragma once

// Host wall-clock spans recorded by the benchmark around its calls into each
// vgpu layer. Nothing here reaches into src/: a span brackets one public call
// (Runtime construction, a cumb::run_* pair, run_grade, JobServer::run, ...)
// from the outside.
//
// A span is named "<layer>.<call>" after the module under src/ it enters
// ("core.comem", "grade.run_grade", "serve.run"); the benchmark's own work
// is layer "bench". Spans nest through a stack of open scopes, so each one
// knows its parent, and carry the item they served (a pair, a verdict, a
// job). Everything stays in memory until the run ends, then is written as
// chrome://tracing JSON and folded into a per-layer self-time table.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;  ///< "<layer>.<call>".
  std::string item;  ///< Pair, verdict or job the call served.
  double start_ms = 0;
  double end_ms = 0;  ///< Both relative to the tracer's origin.
  int parent = -1;    ///< Index of the enclosing span, -1 for a root.
  /// Part of the interval the block engine reported through
  /// GpuExec::phase_times() (execute + merge). The self-time table moves it
  /// from the span's own layer to "sim".
  double sim_ms = 0;

  double ms() const { return end_ms - start_ms; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span on construction and closes it on destruction or close().
  /// With a null tracer it records nothing, so untraced runs pay only the
  /// null check.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::string item = {});
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close now; returns the span's duration in ms (0 with a null tracer).
    double close();
    /// Attribute `ms` of this span to the block engine (see Span::sim_ms).
    void add_sim_ms(double ms);

   private:
    Tracer* t_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer under the root spans named `root`, averaged over
  /// those roots: a span's duration minus the part its direct children
  /// cover.
  std::map<std::string, double> self_ms_by_layer(const std::string& root) const;

  /// Write every span as chrome://tracing "complete" events. Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< Stack of open span indices.
};

}  // namespace perfbench
