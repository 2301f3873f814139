#ifndef VODAK_EXEC_ROW_HASH_H_
#define VODAK_EXEC_ROW_HASH_H_

#include <algorithm>
#include <vector>

#include "common/string_util.h"
#include "exec/row_batch.h"

namespace vodak {
namespace exec {

/// Row hashing/equality/ordering shared by the physical operators (hash
/// join tables, dedup sets) and the parity tests.

inline uint64_t HashRow(const Row& row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

struct RowHash {
  size_t operator()(const Row& row) const {
    return static_cast<size_t>(HashRow(row));
  }
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (Value::Compare(a[i], b[i]) != 0) return false;
    }
    return true;
  }
};

/// Lexicographic total order over rows (Value::Compare per column).
inline bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    int c = Value::Compare(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

/// Sorts `rows` into the RowLess order (canonical multiset form).
inline void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Row& a, const Row& b) { return RowLess(a, b); });
}

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_ROW_HASH_H_
