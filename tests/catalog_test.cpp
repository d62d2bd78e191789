// Pair-catalog tests: the row layout every consumer relies on, and the
// Table I that bench/table1_summary --smoke renders from it, pinned
// byte-for-byte (row order, paper texts, measured speedups) against
// golden_table1_smoke.txt.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "core/report.hpp"

namespace {

using namespace cumb;

TEST(Catalog, FourteenTableIRowsThenThreeCompanions) {
  std::span<const PairDef> rows = catalog();
  ASSERT_EQ(rows.size(), 17u);
  std::set<std::string> ids;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PairDef& row = rows[i];
    EXPECT_TRUE(ids.insert(row.id).second) << "duplicate id " << row.id;
    EXPECT_EQ(row.in_table1(), i < 14) << row.id;
    EXPECT_GT(row.smoke_n, 0) << row.id;
    EXPECT_NE(row.run, nullptr) << row.id;
    EXPECT_NE(row.profile, nullptr) << row.id;
    bool texts = row.pattern != nullptr && row.technique != nullptr &&
                 row.paper != nullptr && row.programmability > 0;
    EXPECT_EQ(texts, row.in_table1()) << row.id;
  }
  EXPECT_STREQ(rows[14].id, "constpoly");
  EXPECT_STREQ(rows[15].id, "histogram");
  EXPECT_STREQ(rows[16].id, "layout");
}

TEST(Catalog, Table1SmokeMatchesGolden) {
  std::vector<Table1Row> rows;
  for (const PairDef& row : catalog()) {
    if (!row.in_table1()) continue;
    Runtime rt(vgpu::RuntimeOptions::defaults(row.profile()));
    PairResult r = row.run(rt, row.smoke_n);
    EXPECT_TRUE(r.results_match) << row.id;
    rows.push_back(Table1Row{r.name, row.pattern, row.technique, row.paper,
                             r.speedup(), row.programmability});
  }
  std::ifstream in(GOLDEN_TABLE1_SMOKE_PATH);
  ASSERT_TRUE(in) << "missing " << GOLDEN_TABLE1_SMOKE_PATH;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(format_table1(rows), golden.str());
}

}  // namespace
