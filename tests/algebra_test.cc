#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "algebra/logical.h"
#include "algebra/translate.h"
#include "vql/interpreter.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace algebra {
namespace {

class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 5;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 2;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<AlgebraContext>(&db_.catalog());
    eval_ = std::make_unique<ExprEvaluator>(&db_.catalog(), &db_.store(),
                                            &db_.methods());
  }

  /// Parses, binds and translates a VQL query.
  LogicalRef Translate(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = TranslateQuery(*ctx_, bound.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.value();
  }

  workload::DocumentDb db_;
  std::unique_ptr<AlgebraContext> ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
};

TEST_F(AlgebraTest, GetProducesExtentTuples) {
  auto get = ctx_->Get("d", "Document");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value()->schema().at("d")->ToString(), "Document");
  Value result = EvalLogical(get.value(), *eval_).value();
  EXPECT_EQ(result.AsSet().size(), 5u);
  EXPECT_TRUE(result.AsSet()[0].GetField("d").value().is_oid());
}

TEST_F(AlgebraTest, GetUnknownClassFails) {
  EXPECT_FALSE(ctx_->Get("x", "Nope").ok());
}

TEST_F(AlgebraTest, SelectFilters) {
  auto get = ctx_->Get("d", "Document").value();
  auto cond = vql::ParseExpr("d.title == 'Query Optimization'").value();
  auto sel = ctx_->Select(cond, get);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  Value result = EvalLogical(sel.value(), *eval_).value();
  EXPECT_EQ(result.AsSet().size(), 1u);
}

TEST_F(AlgebraTest, SelectTypeChecked) {
  auto get = ctx_->Get("d", "Document").value();
  EXPECT_FALSE(ctx_->Select(vql::ParseExpr("d.title").value(), get).ok());
  EXPECT_FALSE(ctx_->Select(vql::ParseExpr("x.title == 'a'").value(), get)
                   .ok());
}

TEST_F(AlgebraTest, MapExtendsSchema) {
  auto get = ctx_->Get("p", "Paragraph").value();
  auto map =
      ctx_->Map("n", vql::ParseExpr("p.number").value(), get);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value()->schema().size(), 2u);
  EXPECT_EQ(map.value()->schema().at("n")->kind(), TypeKind::kInt);
  Value rows = EvalLogical(map.value(), *eval_).value();
  for (const Value& row : rows.AsSet()) {
    EXPECT_TRUE(row.GetField("n").value().is_int());
  }
}

TEST_F(AlgebraTest, MapRejectsDuplicateRef) {
  auto get = ctx_->Get("p", "Paragraph").value();
  EXPECT_FALSE(
      ctx_->Map("p", vql::ParseExpr("p.number").value(), get).ok());
}

TEST_F(AlgebraTest, FlatUnnestsSetValues) {
  auto get = ctx_->Get("d", "Document").value();
  auto flat =
      ctx_->Flat("s", vql::ParseExpr("d.sections").value(), get);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat.value()->schema().at("s")->ToString(), "Section");
  Value rows = EvalLogical(flat.value(), *eval_).value();
  EXPECT_EQ(rows.AsSet().size(), 5u * 2u);
}

TEST_F(AlgebraTest, FlatRejectsScalarExpression) {
  auto get = ctx_->Get("d", "Document").value();
  EXPECT_FALSE(
      ctx_->Flat("t", vql::ParseExpr("d.title").value(), get).ok());
}

TEST_F(AlgebraTest, JoinConditionSpansInputs) {
  auto docs = ctx_->Get("d", "Document").value();
  auto secs = ctx_->Get("s", "Section").value();
  auto join =
      ctx_->Join(vql::ParseExpr("s.document == d").value(), docs, secs);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  Value rows = EvalLogical(join.value(), *eval_).value();
  EXPECT_EQ(rows.AsSet().size(), 5u * 2u);  // each section matches its doc
}

TEST_F(AlgebraTest, JoinRejectsSharedRefs) {
  auto a = ctx_->Get("d", "Document").value();
  auto b = ctx_->Get("d", "Document").value();
  EXPECT_FALSE(
      ctx_->Join(Expr::Const(Value::Bool(true)), a, b).ok());
}

TEST_F(AlgebraTest, NaturalJoinIntersectsOnSharedRefs) {
  auto all = ctx_->Get("p", "Paragraph").value();
  auto some = ctx_->ExprSource(
      "p",
      vql::ParseExpr("Paragraph->retrieve_by_string('implementation')")
          .value());
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  auto nj = ctx_->NaturalJoin(all, some.value());
  ASSERT_TRUE(nj.ok());
  Value rows = EvalLogical(nj.value(), *eval_).value();
  Value direct = EvalLogical(some.value(), *eval_).value();
  EXPECT_EQ(rows, direct);  // join with the full extent adds nothing
}

TEST_F(AlgebraTest, NaturalJoinRequiresSharedRef) {
  auto docs = ctx_->Get("d", "Document").value();
  auto secs = ctx_->Get("s", "Section").value();
  EXPECT_FALSE(ctx_->NaturalJoin(docs, secs).ok());
}

TEST_F(AlgebraTest, ExprSourceMustBeClosedAndSetValued) {
  EXPECT_FALSE(
      ctx_->ExprSource("p", vql::ParseExpr("d.sections").value()).ok());
  EXPECT_FALSE(ctx_->ExprSource("p", vql::ParseExpr("1 + 2").value()).ok());
}

TEST_F(AlgebraTest, ProjectDedups) {
  auto get = ctx_->Get("p", "Paragraph").value();
  auto map = ctx_->Map("n", vql::ParseExpr("p.number").value(), get).value();
  auto proj = ctx_->Project({"n"}, map);
  ASSERT_TRUE(proj.ok());
  // Paragraph numbers are 0..1 per section; distinct values only.
  Value rows = EvalLogical(proj.value(), *eval_).value();
  EXPECT_EQ(rows.AsSet().size(), 2u);
}

TEST_F(AlgebraTest, ProjectValidatesRefs) {
  auto get = ctx_->Get("p", "Paragraph").value();
  EXPECT_FALSE(ctx_->Project({"ghost"}, get).ok());
  EXPECT_FALSE(ctx_->Project({}, get).ok());
}

TEST_F(AlgebraTest, HashingAndEquality) {
  auto a = ctx_->Get("p", "Paragraph").value();
  auto b = ctx_->Get("p", "Paragraph").value();
  auto c = ctx_->Get("q", "Paragraph").value();
  EXPECT_TRUE(LogicalNode::Equals(a, b));
  EXPECT_EQ(a->Hash(), b->Hash());
  EXPECT_FALSE(LogicalNode::Equals(a, c));

  auto cond = vql::ParseExpr("p.number == 1").value();
  auto s1 = ctx_->Select(cond, a).value();
  auto s2 = ctx_->Select(cond, b).value();
  EXPECT_TRUE(LogicalNode::Equals(s1, s2));
  EXPECT_EQ(s1->Hash(), s2->Hash());
}

TEST_F(AlgebraTest, WithInputsRebuilds) {
  auto get_p = ctx_->Get("p", "Paragraph").value();
  auto sel =
      ctx_->Select(vql::ParseExpr("p.number == 0").value(), get_p).value();
  // Swap in a different input with the same schema.
  auto source = ctx_->ExprSource(
      "p", vql::ParseExpr(
               "Paragraph->retrieve_by_string('implementation')")
               .value())
                    .value();
  auto rebuilt = ctx_->WithInputs(*sel, {source});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt.value()->op(), LogicalOp::kSelect);
  EXPECT_EQ(rebuilt.value()->input(0)->op(), LogicalOp::kExprSource);
}

TEST_F(AlgebraTest, TranslationShapeFollowsSection41) {
  LogicalRef plan = Translate(
      "ACCESS p FROM p IN Paragraph "
      "WHERE p->contains_string('implementation')");
  // project<p>(select<...>(get<p, Paragraph>)).
  EXPECT_EQ(plan->op(), LogicalOp::kProject);
  EXPECT_EQ(plan->input(0)->op(), LogicalOp::kSelect);
  EXPECT_EQ(plan->input(0)->input(0)->op(), LogicalOp::kGet);
}

TEST_F(AlgebraTest, TranslationBuildsCrossProductsForMultipleRanges) {
  LogicalRef plan = Translate(
      "ACCESS [a: p.number, b: q.number] "
      "FROM p IN Paragraph, q IN Paragraph WHERE p->sameDocument(q)");
  EXPECT_EQ(plan->op(), LogicalOp::kProject);
  EXPECT_EQ(plan->input(0)->op(), LogicalOp::kMap);
  EXPECT_EQ(plan->input(0)->input(0)->op(), LogicalOp::kSelect);
  EXPECT_EQ(plan->input(0)->input(0)->input(0)->op(), LogicalOp::kJoin);
}

TEST_F(AlgebraTest, TranslationUsesFlatForDependentRanges) {
  LogicalRef plan = Translate(
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs()");
  EXPECT_EQ(plan->op(), LogicalOp::kProject);
  EXPECT_EQ(plan->input(0)->op(), LogicalOp::kMap);
  EXPECT_EQ(plan->input(0)->input(0)->op(), LogicalOp::kFlat);
}

TEST_F(AlgebraTest, TranslatedPlansMatchInterpreter) {
  const std::vector<std::string> queries = {
      "ACCESS p FROM p IN Paragraph",
      "ACCESS d.title FROM d IN Document",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      "ACCESS [a: p.number] FROM p IN Paragraph WHERE p.number == 0",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
      "WHERE p->contains_string('implementation')",
      "ACCESS [p: p.number, q: q.number] FROM p IN Paragraph, "
      "q IN Paragraph WHERE p->sameDocument(q)",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation') AND "
      "(p->document()).title == 'Query Optimization'",
  };
  vql::Binder binder(&db_.catalog());
  vql::Interpreter interp(&db_.catalog(), &db_.store(), &db_.methods());
  for (const auto& text : queries) {
    auto q = vql::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    auto bound = binder.Bind(q.value());
    ASSERT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    auto plan = TranslateQuery(*ctx_, bound.value());
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    auto expected = interp.Run(bound.value());
    ASSERT_TRUE(expected.ok()) << text;
    auto actual = EvalLogicalColumn(plan.value(),
                                    ResultRef(bound.value()), *eval_);
    ASSERT_TRUE(actual.ok()) << text << ": " << actual.status().ToString();
    EXPECT_EQ(actual.value(), expected.value()) << text;
  }
}

TEST_F(AlgebraTest, TreePrinting) {
  LogicalRef plan = Translate(
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0");
  std::string tree = plan->ToTreeString();
  EXPECT_NE(tree.find("project<p>"), std::string::npos);
  EXPECT_NE(tree.find("select<"), std::string::npos);
  EXPECT_NE(tree.find("get<p, Paragraph>"), std::string::npos);
}

}  // namespace
}  // namespace algebra
}  // namespace vodak
