// Table I: the summary table of all fourteen microbenchmarks, with the
// paper's claimed speedups next to the speedups measured on this simulator.
// Runs every Table-I row of the pair catalog once at its representative
// (scaled-down) size.
//
// --smoke shrinks every benchmark to its catalog smoke size so the binary
// doubles as a ctest smoke run: functional verification still covers all
// fourteen pairs, but the speedup column is not meaningful at these sizes.

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/catalog.hpp"
#include "core/report.hpp"

using namespace cumb;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  std::vector<Table1Row> rows;
  bool all_verified = true;
  for (const PairDef& row : catalog()) {
    if (!row.in_table1()) continue;
    Runtime rt(row.profile());
    PairResult r = smoke ? row.run(rt, row.smoke_n) : row.full(rt);
    rows.push_back(Table1Row{r.name, row.pattern, row.technique, row.paper,
                             r.speedup(), row.programmability});
    all_verified = all_verified && r.results_match;
  }

  std::printf("# Table I - CUDAMicroBench summary (paper speedup vs measured on "
              "the vgpu simulator)\n\n%s\nfunctional verification: %s\n",
              format_table1(rows).c_str(), all_verified ? "ALL PASSED" : "FAILURES");
  return all_verified ? 0 : 1;
}
