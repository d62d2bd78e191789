// vgpu-grade closed-loop suite: golden verdict JSONs for one naive and one
// optimized submission, byte-identity of verdicts across VGPU_THREADS,
// fast-fidelity stability of the functional/san/error gates, and the
// structured error-verdict contract (bad ids, throwing hooks, injected OOM).
// Regenerate the goldens after an intentional model change with
//
//   ./tests/grade_test --update_goldens

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "grade/grade.hpp"
#include "tasks/suite.hpp"

namespace {

using namespace vgpu::grade;

bool g_update = false;

/// The shipped suite's tasks and plugins, registered once and owned here.
struct Suite {
  TaskRegistry tasks;
  PluginRegistry plugins;
  Suite() { cumb::gradetasks::register_all(tasks, plugins); }
};

const Suite& suite() {
  static const Suite s;
  return s;
}

const TaskRegistry& tasks() { return suite().tasks; }
const PluginRegistry& plugins() { return suite().plugins; }

const std::map<std::string, PerfBaseline>& baselines() {
  static const std::map<std::string, PerfBaseline> b = load_baselines(GRADE_BASELINES_PATH);
  return b;
}

/// Exact-fidelity options with the committed baselines — the configuration
/// the goldens are pinned to.
GradeOptions exact_opts(int threads = 0) {
  GradeOptions o;
  o.threads = threads;
  o.fidelity = vgpu::Fidelity::kExact;
  o.baselines = &baselines();
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void check_golden(const char* path, const std::string& json) {
  if (g_update) {
    std::ofstream out(path);
    out << json;
    return;
  }
  std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << path << " missing — regenerate with --update_goldens";
  EXPECT_EQ(json, want) << "verdict drifted from " << path
                        << " — review, then --update_goldens";
}

// --- Golden verdicts ---------------------------------------------------------

TEST(GradeGolden, NaiveVerdictMatchesGolden) {
  Verdict v = run_grade(tasks(), plugins(), "comem", "comem.naive", exact_opts());
  EXPECT_EQ(v.status, "graded");
  EXPECT_FALSE(v.pass);  // Fires uncoalesced-global and misses the perf bar.
  check_golden(GOLDEN_VERDICT_NAIVE_PATH, to_json(v));
}

TEST(GradeGolden, OptimizedVerdictMatchesGolden) {
  Verdict v =
      run_grade(tasks(), plugins(), "comem", "comem.optimized", exact_opts());
  EXPECT_EQ(v.status, "graded");
  EXPECT_TRUE(v.pass);
  check_golden(GOLDEN_VERDICT_OPT_PATH, to_json(v));
}

// --- Determinism -------------------------------------------------------------

TEST(GradeDeterminism, VerdictBytesIdenticalAcrossSimThreads) {
  for (const char* sub : {"comem.naive", "comem.optimized"}) {
    std::string at1 =
        to_json(run_grade(tasks(), plugins(), "comem", sub, exact_opts(1)));
    std::string at8 =
        to_json(run_grade(tasks(), plugins(), "comem", sub, exact_opts(8)));
    EXPECT_EQ(at1, at8) << sub;
  }
}

TEST(GradeDeterminism, FastFidelityKeepsFunctionalSanAndErrorGates) {
  // Fast fidelity may move timing (and thus perf/advise outcomes), but the
  // functional, sanitizer, and error-discipline gates must not move.
  for (const char* sub : {"comem.naive", "comem.optimized"}) {
    Verdict exact =
        run_grade(tasks(), plugins(), "comem", sub, exact_opts());
    GradeOptions fast_opts = exact_opts();
    fast_opts.fidelity = vgpu::Fidelity::kFast;
    Verdict fast = run_grade(tasks(), plugins(), "comem", sub, fast_opts);

    EXPECT_EQ(fast.status, "graded") << sub;
    EXPECT_EQ(fast.fidelity, "fast") << sub;
    EXPECT_EQ(fast.functional_pass, exact.functional_pass) << sub;
    EXPECT_EQ(fast.max_error, exact.max_error) << sub;
    EXPECT_EQ(fast.returned_values, exact.returned_values) << sub;
    EXPECT_EQ(fast.san_pass, exact.san_pass) << sub;
    EXPECT_EQ(fast.san.to_string(), exact.san.to_string()) << sub;
    EXPECT_EQ(fast.errors_pass, exact.errors_pass) << sub;
    EXPECT_EQ(fast.sync_error, exact.sync_error) << sub;
    EXPECT_EQ(fast.last_error, exact.last_error) << sub;
  }
}

// --- Error verdicts ----------------------------------------------------------

TEST(GradeErrors, UnknownTaskIsSpecError) {
  Verdict v = run_grade(tasks(), plugins(), "nosuch", "comem.naive");
  EXPECT_EQ(v.status, "error");
  EXPECT_EQ(v.error_stage, "spec");
  EXPECT_FALSE(v.pass);
}

TEST(GradeErrors, UnknownSubmissionIsSpecError) {
  Verdict v = run_grade(tasks(), plugins(), "comem", "nosuch.sub");
  EXPECT_EQ(v.status, "error");
  EXPECT_EQ(v.error_stage, "spec");
}

TEST(GradeErrors, SubmissionForOtherTaskIsSpecError) {
  Verdict v = run_grade(tasks(), plugins(), "comem", "warpdiv.naive");
  EXPECT_EQ(v.status, "error");
  EXPECT_EQ(v.error_stage, "spec");
}

class ThrowingPlugin : public KernelPlugin {
 public:
  std::string_view name() const override { return "throwy.naive"; }
  std::string_view task() const override { return "throwy"; }
  void setup(GradeContext&) override {}
  void launch(GradeContext&) override {
    throw std::runtime_error("kernel author bug");
  }
  std::vector<double> verify(GradeContext&) override { return {}; }
};

TEST(GradeErrors, ThrowingLaunchHookIsLaunchError) {
  TaskRegistry t;
  PluginRegistry p;
  TaskSpec spec;
  spec.id = "throwy";
  spec.title = "throws from launch";
  spec.profile_name = "test_tiny";
  spec.profile = [] { return vgpu::DeviceProfile::test_tiny(); };
  spec.make_inputs = [] { return TaskData{}; };
  spec.reference = [](const TaskData&) { return std::vector<double>{}; };
  t.add(std::move(spec));
  p.add("throwy", "throwy.naive", Expectation::kNone,
        [] { return std::make_unique<ThrowingPlugin>(); });

  Verdict v = run_grade(t, p, "throwy", "throwy.naive");
  EXPECT_EQ(v.status, "error");
  EXPECT_EQ(v.error_stage, "launch");
  EXPECT_NE(v.error_message.find("kernel author bug"), std::string::npos);
  EXPECT_FALSE(v.pass);
}

TEST(GradeErrors, InjectedOomInSetupIsStructuredSetupError) {
  GradeOptions opts = exact_opts();
  opts.fault_spec = "oom:nth=1";
  Verdict v = run_grade(tasks(), plugins(), "comem", "comem.naive", opts);
  EXPECT_EQ(v.status, "error");
  EXPECT_EQ(v.error_stage, "setup");
  // CUDA last-error semantics: the OOM'd allocation returns a null span,
  // the plugin then memcpies into it, and the most recent error wins —
  // exactly what cudaGetLastError would report after this setup sequence.
  EXPECT_EQ(v.error_code, "cudaErrorInvalidValue");
  EXPECT_FALSE(v.pass);
}

TEST(GradeErrors, MalformedFaultSpecIsStructuredSpecError) {
  GradeOptions opts = exact_opts();
  opts.fault_spec = "garbage";
  Verdict v = run_grade(tasks(), plugins(), "comem", "comem.naive", opts);
  EXPECT_EQ(v.status, "error");
  EXPECT_EQ(v.error_stage, "spec");
  EXPECT_NE(v.error_message.find("VGPU_FAULT"), std::string::npos) << v.error_message;
  EXPECT_FALSE(v.pass);
}

// --- Baselines file I/O ------------------------------------------------------

TEST(GradeBaselines, RoundTripPreservesEveryField) {
  std::map<std::string, PerfBaseline> in;
  in["alpha"] = PerfBaseline{123.456, 1024, 2048, 7.5};
  in["beta"] = PerfBaseline{0.1, 0, 4096, 1e-3};
  std::string path = ::testing::TempDir() + "grade_baselines_roundtrip.txt";
  ASSERT_TRUE(save_baselines(path, in));
  auto out = load_baselines(path);
  ASSERT_EQ(out.size(), in.size());
  for (const auto& [k, b] : in) {
    ASSERT_TRUE(out.count(k)) << k;
    EXPECT_EQ(out[k].kernel_cycles, b.kernel_cycles) << k;
    EXPECT_EQ(out[k].dram_bytes, b.dram_bytes) << k;
    EXPECT_EQ(out[k].xfer_bytes, b.xfer_bytes) << k;
    EXPECT_EQ(out[k].sim_time_us, b.sim_time_us) << k;
  }
}

TEST(GradeBaselines, MissingFileIsEmptyAndMalformedThrows) {
  EXPECT_TRUE(load_baselines("/nonexistent/grade_baselines.txt").empty());
  std::string path = ::testing::TempDir() + "grade_baselines_malformed.txt";
  {
    std::ofstream out(path);
    out << "comem 1.0 not_a_number 0 2.0\n";
  }
  EXPECT_THROW(load_baselines(path), std::runtime_error);
}

TEST(GradeBaselines, CommittedBaselinesCoverEveryTask) {
  for (const std::string& id : tasks().ids())
    EXPECT_TRUE(baselines().count(id)) << id << " missing from baselines.txt";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update_goldens") {
      g_update = true;
      for (int j = i; j < argc - 1; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
