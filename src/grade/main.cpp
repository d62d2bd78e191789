// vgpu-grade: grade kernel submissions against the task suite.
//
//   vgpu-grade --list
//   vgpu-grade --task=comem --submission=comem.naive [--out=verdict.json]
//   vgpu-grade --all [--out-dir=DIR] [--check] [--check-threads=1,8]
//   vgpu-grade --update-baselines
//
// Common options: --baselines=PATH (default: the tasks/baselines.txt this
// binary was configured with), --threads=N, --fidelity=exact|fast,
// --fault=SPEC (vgpu-fault injection), --no-perf.
//
// --check is the closed loop the CI grade job runs: every registered
// must-fail (naive) submission has to fail its verdict, every must-pass
// (optimized) one has to pass clean; --check-threads additionally asserts
// the verdict JSON is byte-identical at every listed VGPU_THREADS count.
//
// Exit status: 0 success (and, with --check, all expectations held),
// 1 graded-fail on a single run, 2 error verdict / bad usage / check
// violation.

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "grade/grade.hpp"

#ifndef GRADE_BASELINES_PATH
#define GRADE_BASELINES_PATH ""
#endif

namespace vgpu::grade {
/// Provided by the task-suite library the binary links (tasks/suite.cpp).
void register_suite(TaskRegistry& tasks, PluginRegistry& plugins);
}  // namespace vgpu::grade

namespace {

using namespace vgpu;
using namespace vgpu::grade;

struct Cli {
  bool list = false;
  bool all = false;
  bool check = false;
  bool update_baselines = false;
  bool no_perf = false;
  std::string task;
  std::string submission;
  std::string out;
  std::string out_dir;
  std::string baselines_path = GRADE_BASELINES_PATH;
  std::string fault;
  std::string fidelity;
  std::vector<int> check_threads;
  int threads = 0;
};

bool take(std::string_view arg, std::string_view flag, std::string* value) {
  if (arg.size() <= flag.size() + 1 || arg.substr(0, flag.size()) != flag ||
      arg[flag.size()] != '=')
    return false;
  *value = std::string(arg.substr(flag.size() + 1));
  return true;
}

/// Parse all of `text` as a base-10 int in [lo, hi]; false on anything else.
bool parse_int(std::string_view text, int lo, int hi, int* out) {
  int v = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < lo || v > hi)
    return false;
  *out = v;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --list | --task=ID --submission=NAME [--out=PATH]\n"
               "       %s --all [--out-dir=DIR] [--check] [--check-threads=1,8]\n"
               "       %s --update-baselines\n"
               "options: --baselines=PATH --threads=N --fidelity=exact|fast\n"
               "         --fault=SPEC --no-perf\n",
               argv0, argv0, argv0);
  return 2;
}

bool parse_cli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string value;
    if (arg == "--list") cli->list = true;
    else if (arg == "--all") cli->all = true;
    else if (arg == "--check") cli->check = true;
    else if (arg == "--update-baselines") cli->update_baselines = true;
    else if (arg == "--no-perf") cli->no_perf = true;
    else if (take(arg, "--task", &cli->task)) {}
    else if (take(arg, "--submission", &cli->submission)) {}
    else if (take(arg, "--out", &cli->out)) {}
    else if (take(arg, "--out-dir", &cli->out_dir)) {}
    else if (take(arg, "--baselines", &cli->baselines_path)) {}
    else if (take(arg, "--fault", &cli->fault)) {}
    else if (take(arg, "--fidelity", &cli->fidelity)) {}
    else if (take(arg, "--threads", &value)) {
      if (!parse_int(value, 0, 256, &cli->threads)) {
        std::fprintf(stderr, "bad --threads (want 0..256): %s\n", argv[i]);
        return false;
      }
    } else if (take(arg, "--check-threads", &value)) {
      std::string_view rest = value;
      while (true) {
        std::size_t comma = rest.find(',');
        int n = 0;
        if (!parse_int(rest.substr(0, comma), 1, 256, &n)) {
          std::fprintf(stderr, "bad --check-threads (want N,N,... in 1..256): %s\n",
                       argv[i]);
          return false;
        }
        cli->check_threads.push_back(n);
        if (comma == std::string_view::npos) break;
        rest = rest.substr(comma + 1);
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

const char* expect_name(Expectation e) {
  switch (e) {
    case Expectation::kMustPass: return "must-pass";
    case Expectation::kMustFail: return "must-fail";
    case Expectation::kNone: return "ungated";
  }
  return "ungated";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) return usage(argv[0]);

  TaskRegistry tasks;
  PluginRegistry plugins;
  register_suite(tasks, plugins);

  if (cli.list) {
    for (const std::string& id : tasks.ids()) {
      const TaskSpec* spec = tasks.find(id);
      std::printf("%-14s [%s] %s\n", id.c_str(), spec->profile_name.c_str(),
                  spec->title.c_str());
      for (const std::string& name : plugins.names()) {
        const PluginEntry* e = plugins.find(name);
        if (e->task == id)
          std::printf("    %-24s %s\n", name.c_str(), expect_name(e->expect));
      }
    }
    return 0;
  }

  GradeOptions opts;
  opts.threads = cli.threads;
  opts.fault_spec = cli.fault;
  opts.skip_perf = cli.no_perf;
  if (!cli.fidelity.empty()) {
    try {
      opts.fidelity = fidelity_from_string(cli.fidelity.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--fidelity: %s\n", e.what());
      return 2;
    }
  }

  std::map<std::string, PerfBaseline> baselines;
  if (!cli.update_baselines && !cli.baselines_path.empty()) {
    try {
      baselines = load_baselines(cli.baselines_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  opts.baselines = &baselines;

  if (cli.update_baselines) {
    // Measure each task's committed reference submission under exact
    // fidelity and rewrite the baselines file.
    GradeOptions base_opts = opts;
    base_opts.skip_perf = true;
    base_opts.fidelity = Fidelity::kExact;
    std::map<std::string, PerfBaseline> fresh;
    for (const std::string& id : tasks.ids()) {
      const TaskSpec* spec = tasks.find(id);
      if (spec->baseline_submission.empty()) continue;
      Verdict v =
          run_grade(tasks, plugins, id, spec->baseline_submission, base_opts);
      if (v.status != "graded" || !v.functional_pass || !v.san_pass ||
          !v.errors_pass) {
        std::fprintf(stderr,
                     "baseline run %s (%s) did not grade clean:\n%s",
                     spec->baseline_submission.c_str(), id.c_str(),
                     to_json(v).c_str());
        return 2;
      }
      fresh[id] = v.measured;
      std::printf("%-14s <- %s\n", id.c_str(),
                  spec->baseline_submission.c_str());
    }
    if (!save_baselines(cli.baselines_path, fresh)) {
      std::fprintf(stderr, "cannot write %s\n", cli.baselines_path.c_str());
      return 2;
    }
    std::printf("wrote %zu baselines to %s\n", fresh.size(),
                cli.baselines_path.c_str());
    return 0;
  }

  if (!cli.all) {
    if (cli.task.empty() || cli.submission.empty()) return usage(argv[0]);
    Verdict v = run_grade(tasks, plugins, cli.task, cli.submission, opts);
    std::string json = to_json(v);
    if (!cli.out.empty()) {
      if (!write_file(cli.out, json)) {
        std::fprintf(stderr, "cannot write %s\n", cli.out.c_str());
        return 2;
      }
    } else {
      std::fputs(json.c_str(), stdout);
    }
    if (v.status != "graded") return 2;
    return v.pass ? 0 : 1;
  }

  // --all: grade every registered submission of every task.
  int violations = 0;
  int errors = 0;
  for (const std::string& name : plugins.names()) {
    const PluginEntry* entry = plugins.find(name);
    Verdict v = run_grade(tasks, plugins, entry->task, name, opts);
    std::string json = to_json(v);

    // Determinism sweep: the verdict must be byte-identical at every
    // requested simulator thread count.
    bool deterministic = true;
    for (int t : cli.check_threads) {
      GradeOptions topts = opts;
      topts.threads = t;
      std::string other = to_json(run_grade(tasks, plugins, entry->task, name, topts));
      if (other != json) {
        deterministic = false;
        std::printf("%-24s DETERMINISM VIOLATION at %d threads\n",
                    name.c_str(), t);
      }
    }

    if (!cli.out_dir.empty()) {
      std::string path = cli.out_dir + "/" + name + ".json";
      if (!write_file(path, json)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
    }

    const char* result = v.status != "graded" ? "ERROR"
                         : v.pass            ? "PASS"
                                             : "FAIL";
    bool ok = true;
    if (v.status != "graded") {
      ++errors;
      ok = false;
    } else if (cli.check) {
      if (entry->expect == Expectation::kMustPass && !v.pass) ok = false;
      if (entry->expect == Expectation::kMustFail && v.pass) ok = false;
    }
    if (!ok || !deterministic) ++violations;
    std::printf("%-24s %-5s (%s)%s\n", name.c_str(), result,
                expect_name(entry->expect),
                ok ? "" : "  ** EXPECTATION VIOLATED **");
    if (!ok && v.status != "graded")
      std::printf("    error in %s: %s\n", v.error_stage.c_str(),
                  v.error_message.c_str());
  }
  if (violations > 0 || errors > 0) {
    std::fprintf(stderr, "%d violation(s)\n", violations);
    return 2;
  }
  return 0;
}
