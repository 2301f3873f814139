// Seeded random VQL query generator shared by the differential suites
// (tests/exec_diff_test.cc and tests/segment_diff_test.cc): ACCESS
// queries over a dedicated "Item" class with nested AND/OR/NOT
// predicates, arithmetic maps, tuple projections and a NULL-heavy
// property, so generated corpora exercise three-valued predicate
// semantics, selection-vector narrowing and project-dedup without ever
// generating a query whose semantics differ between the batch pipeline
// and the row-mode oracle (no division, no arithmetic on nullable
// properties — those would inject TypeErrors rather than result
// differences).
// Seeds come from tests/test_seed.h: any failing query replays with
// --seed=N / VODAK_TEST_SEED=N plus the printed query text.
#ifndef VODAK_TESTS_QUERY_GEN_H_
#define VODAK_TESTS_QUERY_GEN_H_

#include <random>
#include <string>

namespace vodak {
namespace testing {

/// The generator's schema contract: callers must define a class named
/// Item with int properties v1 (dense ascending), v2 (small residues),
/// v3 (NULL-heavy: left unset on a fraction of objects) and bucket
/// (small residues). ExecDiffTest::SetUp in exec_diff_test.cc is the
/// reference population.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  /// One random ACCESS query over Item. Shapes covered: bare scans,
  /// predicate chains (nested AND/OR/NOT over total-order compares and
  /// arithmetic operands, two-sided ranges over one property), maps
  /// hidden inside projected expressions, single-value and tuple
  /// projections — every query is valid VQL and error-free on any Item
  /// corpus.
  std::string NextQuery() {
    std::string query = "ACCESS " + Projection() + " FROM a IN Item";
    if (Pick(8) != 0) query += " WHERE " + Condition(0);
    return query;
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }

  std::string Projection() {
    switch (Pick(6)) {
      case 0:
        return "a";
      case 1:
        return "a.v1";
      case 2:
        // The NULL-heavy column: projected NILs must survive all
        // three engines identically.
        return "a.v3";
      case 3:
        return "[x: a.v1, y: a.bucket]";
      case 4:
        // A map riding inside the projection (binds a fresh reference
        // in the translated plan).
        return "a.v1 + a.v2";
      default:
        return "[x: a.v2, y: a.v3]";
    }
  }

  /// A comparison operand: a property, or arithmetic over the
  /// never-NULL properties (arithmetic on v3 could raise a TypeError,
  /// which is an error-path difference, not a result difference — the
  /// differential corpus stays inside defined behavior).
  std::string Operand() {
    switch (Pick(5)) {
      case 0:
        return "a.v1";
      case 1:
        return "a.v2";
      case 2:
        return "a.v3";  // compares against NIL are total, never error
      case 3:
        return "a.v1 + " + std::to_string(Pick(50));
      default:
        return "a.v2 * " + std::to_string(1 + Pick(5));
    }
  }

  std::string Compare() {
    static const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    const std::string op = kOps[Pick(6)];
    const std::string constant =
        std::to_string(Pick(250) - (Pick(4) == 0 ? 250 : 0));
    // Constant on either side: the Filter's shared-operand compares
    // have a dedicated const-on-the-left path that must stay covered.
    if (Pick(4) == 0) return constant + " " + op + " " + Operand();
    return Operand() + " " + op + " " + constant;
  }

  /// A two-sided range over one property: the shape whose compares a
  /// Filter applies to one read of the property.
  std::string Range() {
    static const char* kProps[] = {"a.v1", "a.v2", "a.v3"};
    const std::string prop = kProps[Pick(3)];
    const int low = Pick(200) - 10;
    const std::string high = std::to_string(low + Pick(80));
    return "(" + prop + " >= " + std::to_string(low) + " AND " +
           (Pick(2) == 0 ? prop + " <= " + high : high + " >= " + prop) +
           ")";
  }

  /// Nested AND/OR/NOT tree, depth-bounded. NULL-heavy operands make
  /// the three-valued corner (NIL compares, NIL predicate results)
  /// common rather than rare.
  std::string Condition(int depth) {
    if (depth >= 3 || Pick(3) == 0) return Compare();
    switch (Pick(4)) {
      case 0:
        return "(" + Condition(depth + 1) + " AND " +
               Condition(depth + 1) + ")";
      case 1:
        return "(" + Condition(depth + 1) + " OR " +
               Condition(depth + 1) + ")";
      case 2:
        return Range();
      default:
        return "(NOT " + Condition(depth + 1) + ")";
    }
  }

  std::mt19937_64 rng_;
};

}  // namespace testing
}  // namespace vodak

#endif  // VODAK_TESTS_QUERY_GEN_H_
