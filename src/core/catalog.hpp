#pragma once

// The pair catalog: every naive-vs-optimized pair of the reproduction, once.
//
// One row per pair: the 14 Table-I pairs in the paper's order, then the
// ConstPoly, histogram and layout companions. bench/table1_summary renders
// the Table-I rows, and vgpu-serve registers every row as "bench:<id>".
// Adding a pair means adding one row here (and, for grading, one
// tasks/task_<id>.cpp).

#include <span>

#include "core/common.hpp"

namespace cumb {

/// One naive-vs-optimized pair and everything its consumers need.
struct PairDef {
  const char* id;                    ///< Serve id: the job kernel is "bench:<id>".
  vgpu::DeviceProfile (*profile)();  ///< Device of the Table-I run (v100 for companions).
  int smoke_n;                       ///< table1_summary --smoke and serve default size.
  /// The pair at size n; secondary arguments are fixed at the smoke shape.
  PairResult (*run)(Runtime& rt, int n);
  /// The pair at its Table-I size. Null for the three companions, which have
  /// no Table-I row; their texts below are null too, programmability 0.
  PairResult (*full)(Runtime& rt);
  const char* pattern;      ///< "Pattern of Performance Inefficiency".
  const char* technique;    ///< "Optimization techniques".
  const char* paper;        ///< The paper's speedup column.
  int programmability;      ///< Paper's 1-5 difficulty score.

  /// Whether the pair has a Table-I row (full and the texts are set).
  bool in_table1() const { return full != nullptr; }
};

/// Every pair, Table-I rows first in paper order.
std::span<const PairDef> catalog();

}  // namespace cumb
