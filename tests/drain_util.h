// Drain helpers shared by the executor suites: a NextBatch drain of a
// physical tree into a sorted row multiset (checking the pipeline's
// never-empty invariant on the way), and the set-of-tuples view that
// compares such a multiset with the naive evaluator
// (algebra::EvalLogical), the executor's independent oracle.
#ifndef VODAK_TESTS_DRAIN_UTIL_H_
#define VODAK_TESTS_DRAIN_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exec/physical.h"
#include "exec/row_hash.h"

namespace vodak {
namespace testing {

/// Opens `root`, drains it through NextBatch and returns the rows in
/// canonical (sorted) multiset order.
inline std::vector<exec::Row> BatchDrainSorted(exec::PhysOperator* root) {
  std::vector<exec::Row> rows;
  Status open = root->Open();
  EXPECT_TRUE(open.ok()) << open.ToString();
  if (!open.ok()) return rows;
  exec::RowBatch batch;
  exec::Row row;
  for (;;) {
    auto more = root->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    EXPECT_GT(batch.active_rows(), 0u)
        << "NextBatch returned true with no live rows";
    // Row hand-off is a density boundary.
    batch.Compact();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      batch.CopyRowTo(r, &row);
      rows.push_back(row);
    }
  }
  root->Close();
  exec::SortRows(&rows);
  return rows;
}

/// The rows as a SET of TUPLEs over `refs` — EvalLogical's result shape.
inline Value RowsToSet(const std::vector<std::string>& refs,
                       const std::vector<exec::Row>& rows) {
  std::vector<Value> tuples;
  tuples.reserve(rows.size());
  for (const exec::Row& row : rows) {
    ValueTuple fields;
    fields.reserve(refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      fields.emplace_back(refs[i], row[i]);
    }
    tuples.push_back(Value::Tuple(std::move(fields)));
  }
  return Value::Set(std::move(tuples));
}

/// Multiset equality of two sorted row vectors, reporting the first
/// differing row under `label`.
inline void ExpectSameRows(const std::vector<exec::Row>& want,
                           const std::vector<exec::Row>& got,
                           const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(exec::RowEq()(want[i], got[i]))
        << label << ": row " << i << " differs";
  }
}

}  // namespace testing
}  // namespace vodak

#endif  // VODAK_TESTS_DRAIN_UTIL_H_
