#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/eval.h"
#include "algebra/translate.h"
#include "engine/database.h"
#include "exec/physical.h"
#include "vql/parser.h"
#include "workload/document_db.h"

#include "drain_util.h"

namespace vodak {
namespace exec {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 6;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 2;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    eval_ = std::make_unique<ExprEvaluator>(&db_.catalog(), &db_.store(),
                                            &db_.methods());
    exec_ctx_.catalog = &db_.catalog();
    exec_ctx_.store = &db_.store();
    exec_ctx_.methods = &db_.methods();
  }

  /// Builds, executes and compares against the naive algebra evaluator.
  void CheckAgainstEval(const algebra::LogicalRef& plan) {
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok()) << phys.status().ToString();
    auto rows = ExecuteToSet(phys.value().get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    auto expected = algebra::EvalLogical(plan, *eval_);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(rows.value(), expected.value());
  }

  algebra::LogicalRef Translate(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok());
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = TranslateQuery(*ctx_, bound.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.value();
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
  ExecContext exec_ctx_;
};

TEST_F(ExecTest, ExtentScanProducesExtent) {
  auto plan = ctx_->Get("d", "Document").value();
  CheckAgainstEval(plan);
}

TEST_F(ExecTest, MethodScanMatchesSetEvaluation) {
  auto plan = ctx_->ExprSource(
                      "p",
                      vql::ParseExpr(
                          "Paragraph->retrieve_by_string('implementation')")
                          .value())
                  .value();
  CheckAgainstEval(plan);
}

TEST_F(ExecTest, FilterKeepsOnlyMatches) {
  auto get = ctx_->Get("p", "Paragraph").value();
  auto plan =
      ctx_->Select(vql::ParseExpr("p.number == 1").value(), get).value();
  CheckAgainstEval(plan);
}

TEST_F(ExecTest, HashJoinEqualsNestedLoopOnEquiJoin) {
  auto docs = ctx_->Get("d", "Document").value();
  auto secs = ctx_->Get("s", "Section").value();
  // s.document == d is NOT a bare-var equality, so it runs as NL join;
  // wrap the equivalent natural join and compare.
  auto nl = ctx_->Join(vql::ParseExpr("s.document == d").value(), docs,
                       secs)
                .value();
  CheckAgainstEval(nl);

  auto mapped =
      ctx_->Map("d", vql::ParseExpr("s.document").value(),
                ctx_->Get("s", "Section").value())
          .value();
  auto nj = ctx_->NaturalJoin(mapped, ctx_->Get("d", "Document").value())
                .value();
  CheckAgainstEval(nj);
}

TEST_F(ExecTest, BareVarEqualityUsesHashJoin) {
  auto mapped =
      ctx_->Map("x", vql::ParseExpr("s.document").value(),
                ctx_->Get("s", "Section").value())
          .value();
  auto join = ctx_->Join(vql::ParseExpr("x == d").value(), mapped,
                         ctx_->Get("d", "Document").value())
                  .value();
  auto phys = BuildPhysical(join, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ(phys.value()->name(), "HashJoin");
  CheckAgainstEval(join);
}

TEST_F(ExecTest, CrossJoinViaTrueCondition) {
  auto join = ctx_->Join(Expr::Const(Value::Bool(true)),
                         ctx_->Get("d", "Document").value(),
                         ctx_->Get("s", "Section").value())
                  .value();
  CheckAgainstEval(join);
}

TEST_F(ExecTest, MapAndFlatten) {
  auto get = ctx_->Get("d", "Document").value();
  auto map = ctx_->Map("t", vql::ParseExpr("d.title").value(), get).value();
  CheckAgainstEval(map);
  auto flat = ctx_->Flat("s", vql::ParseExpr("d.sections").value(),
                         ctx_->Get("d", "Document").value())
                  .value();
  CheckAgainstEval(flat);
}

TEST_F(ExecTest, ProjectDeduplicates) {
  auto get = ctx_->Get("p", "Paragraph").value();
  auto map =
      ctx_->Map("n", vql::ParseExpr("p.number").value(), get).value();
  auto proj = ctx_->Project({"n"}, map).value();
  auto phys = BuildPhysical(proj, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  auto rows = ExecuteToSet(phys.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().AsSet().size(), 2u);  // paragraph numbers 0..1
  CheckAgainstEval(proj);
}

TEST_F(ExecTest, FullQueriesMatchAlgebraEvaluator) {
  for (const char* query : {
           "ACCESS p FROM p IN Paragraph WHERE "
           "p->contains_string('implementation')",
           "ACCESS [a: p.number, b: q.number] FROM p IN Paragraph, "
           "q IN Paragraph WHERE p->sameDocument(q)",
           "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
           "WHERE p->contains_string('implementation')",
       }) {
    CheckAgainstEval(Translate(query));
  }
}

TEST_F(ExecTest, ExecuteColumnUnwrapsTuples) {
  auto plan = Translate("ACCESS d.title FROM d IN Document");
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  auto column = ExecuteColumn(phys.value().get(), "$out");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column.value().AsSet().size(), 6u);
  EXPECT_TRUE(column.value().AsSet()[0].is_string());
  EXPECT_FALSE(ExecuteColumn(phys.value().get(), "ghost").ok());
}

TEST_F(ExecTest, RowsProducedCountersTrack) {
  auto plan = Translate("ACCESS p FROM p IN Paragraph");
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(ExecuteToSet(phys.value().get()).ok());
  EXPECT_EQ(phys.value()->rows_produced(), 24u);
}

TEST_F(ExecTest, ExplainShowsOperatorTree) {
  auto plan = Translate(
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0");
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  std::string explain = ExplainPhysical(*phys.value());
  EXPECT_NE(explain.find("Project"), std::string::npos);
  EXPECT_NE(explain.find("Filter"), std::string::npos);
  EXPECT_NE(explain.find("ExtentScan(p IN Paragraph [source: extent])"),
            std::string::npos);
}

TEST_F(ExecTest, RestrictedAlgebraDecomposition) {
  // §6.1: complex parameters decompose into atomic operator chains.
  vql::Binder binder(&db_.catalog());
  TypeRef t;
  auto bound = binder.BindExpr(
      vql::ParseExpr("p.section.document").value(),
      {{"p", Type::OidOf("Paragraph")}}, &t);
  ASSERT_TRUE(bound.ok());
  std::string chain = DecomposeToRestrictedOps(bound.value());
  EXPECT_EQ(chain,
            "map_property<t1, section, p>; "
            "map_property<t2, document, t1>");

  auto call = binder.BindExpr(
      vql::ParseExpr("p->contains_string('x')").value(),
      {{"p", Type::OidOf("Paragraph")}}, &t);
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(DecomposeToRestrictedOps(call.value()),
            "map_method<t1, contains_string, p, 'x'>");

  auto cls = binder.BindExpr(
      vql::ParseExpr("Document->select_by_index('T')").value(), {}, &t);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(DecomposeToRestrictedOps(cls.value()),
            "method_get<t1, Document, select_by_index, 'T'>");

  EXPECT_EQ(DecomposeToRestrictedOps(Expr::Var("p")), "atom p");
}

// ------------------------------------------ typed ProjectDedup keys

/// A corpus whose projected columns exercise each of ProjectDedup's
/// keys: INT and REAL that compare equal, equal strings in distinct
/// allocations, OIDs of two classes, and the NIL and set-valued columns
/// that take the Row fallback. kItems spans three batches, and every
/// column repeats its values across them.
class TypedDedupTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kItems = 2 * kDefaultBatchSize + 500;
  static constexpr uint32_t kIds = kDefaultBatchSize + 300;

  void SetUp() override {
    auto other = catalog_.DefineClass("Other");
    ASSERT_TRUE(other.ok());
    const uint32_t other_id = other.value()->class_id();
    ASSERT_EQ(store_.RegisterClass("Other", 0), other_id);
    auto item = catalog_.DefineClass("Item");
    ASSERT_TRUE(item.ok());
    for (const char* prop : {"num", "str", "ref", "nil", "bag", "id"}) {
      ASSERT_TRUE(item.value()->AddProperty(prop, Type::Any()).ok());
    }
    const uint32_t item_id = item.value()->class_id();
    ASSERT_EQ(store_.RegisterClass("Item", 6), item_id);

    std::vector<Oid> others;
    for (int i = 0; i < 5; ++i) {
      others.push_back(store_.CreateObject(other_id).value());
    }
    std::vector<Oid> items;
    for (uint32_t i = 0; i < kItems; ++i) {
      items.push_back(store_.CreateObject(item_id).value());
    }
    for (uint32_t i = 0; i < kItems; ++i) {
      const Oid oid = items[i];
      // num: k in 0..3 as INT in one run of four rows and as REAL in
      // the next, plus -0.0 against 0.0 and INT 0.
      const int k = static_cast<int>(i % 4);
      Value num = (i / 4) % 2 == 0 ? Value::Int(k) : Value::Real(k);
      if (i % 9 == 0) num = Value::Real(-0.0);
      ASSERT_TRUE(store_.SetProperty(oid, 0, num).ok());
      const std::string str = i % 5 == 0 ? "" : "s" + std::to_string(i % 6);
      ASSERT_TRUE(store_.SetProperty(oid, 1, Value::String(str)).ok());
      const Oid ref = i % 2 == 0 ? items[i % 7] : others[i % 5];
      ASSERT_TRUE(store_.SetProperty(oid, 2, Value::OfOid(ref)).ok());
      // Slot 3 (nil) stays unset.
      ASSERT_TRUE(store_.SetProperty(
          oid, 4, Value::Set({Value::Int(i % 3), Value::Int(i % 2)})).ok());
      ASSERT_TRUE(store_.SetProperty(oid, 5, Value::Int(i % kIds)).ok());
    }
  }

  /// The tree's answer, which must equal the row-mode interpreter's.
  Value TreeMatchingOracle(const std::string& query) {
    engine::Database session(&catalog_, &store_, &methods_);
    engine::PlanOptions no_opt;
    no_opt.optimize = false;
    auto tree = session.Run(query, no_opt);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    auto naive = session.RunNaive(query);
    EXPECT_TRUE(naive.ok()) << naive.status().ToString();
    if (!tree.ok() || !naive.ok()) return Value();
    EXPECT_EQ(tree.value().result, naive.value())
        << "tree " << tree.value().result.ToString() << "\n  naive "
        << naive.value().ToString();
    return tree.value().result;
  }

  /// Rows the Project root emits for `query` (no Value::Set after it).
  std::vector<Row> ProjectRows(const std::string& query) {
    algebra::AlgebraContext ctx(&catalog_);
    auto q = vql::ParseQuery(query);
    EXPECT_TRUE(q.ok());
    vql::Binder binder(&catalog_);
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = TranslateQuery(ctx, bound.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    ExecContext exec_ctx;
    exec_ctx.catalog = &catalog_;
    exec_ctx.store = &store_;
    exec_ctx.methods = &methods_;
    auto phys = BuildPhysical(plan.value(), exec_ctx);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    return vodak::testing::BatchDrainSorted(phys.value().get());
  }

  Catalog catalog_;
  ObjectStore store_;
  MethodRegistry methods_;
};

TEST_F(TypedDedupTest, IntAndRealThatCompareEqualGiveOneElement) {
  // The project keys INT k and REAL k apart (the REALs, -0.0 with
  // them, go through the Row set); Value::Set collapses each pair.
  Value got = TreeMatchingOracle("ACCESS x.num FROM x IN Item");
  EXPECT_EQ(got.AsSet().size(), 4u) << got.ToString();
  EXPECT_EQ(ProjectRows("ACCESS x.num FROM x IN Item").size(), 8u);
}

TEST_F(TypedDedupTest, EqualStringsFromDistinctAllocationsDedup) {
  Value got = TreeMatchingOracle("ACCESS x.str FROM x IN Item");
  EXPECT_EQ(got.ToString(), "{'', 's0', 's1', 's2', 's3', 's4', 's5'}");
  EXPECT_EQ(ProjectRows("ACCESS x.str FROM x IN Item").size(), 7u);
}

TEST_F(TypedDedupTest, OidsOfTwoClassesDedup) {
  Value got = TreeMatchingOracle("ACCESS x.ref FROM x IN Item");
  EXPECT_EQ(got.AsSet().size(), 7u + 5u);
  EXPECT_EQ(ProjectRows("ACCESS x.ref FROM x IN Item").size(), 12u);
}

TEST_F(TypedDedupTest, DuplicatesStraddlingBatchesDedup) {
  // Item i and item i + kIds share an id and sit in different batches.
  Value got = TreeMatchingOracle("ACCESS x.id FROM x IN Item");
  EXPECT_EQ(got.AsSet().size(), kIds);
  std::vector<Row> rows = ProjectRows("ACCESS x.id FROM x IN Item");
  ASSERT_EQ(rows.size(), kIds);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), static_cast<int64_t>(i));
  }
}

TEST_F(TypedDedupTest, NilAndSetValuedColumnsTakeTheRowPath) {
  EXPECT_EQ(TreeMatchingOracle("ACCESS x.nil FROM x IN Item").ToString(),
            "{NIL}");
  EXPECT_EQ(TreeMatchingOracle("ACCESS x.bag FROM x IN Item").ToString(),
            "{{0}, {0, 1}, {0, 2}, {1}, {1, 2}}");
}

}  // namespace
}  // namespace exec
}  // namespace vodak
