// Batch-pipeline parity for the vectorized executor: every physical
// plan, drained through NextBatch, must agree with the naive logical
// evaluator (algebra::EvalLogical, the independent oracle) and honor
// the never-empty-batch invariant. Randomized VQL queries sweep scans,
// filters, maps, flattens and both join algorithms; targeted cases pin
// the nested-loop join and set-operator batch edges (selected inputs,
// inner sides wider than a batch, empty sides, the TRUE cross product,
// overlapping set-op inputs, an empty extent) and the join's
// cancel/deadline polling; ExecuteColumn's value sets are checked
// against the row-mode interpreter as well.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algebra/eval.h"
#include "algebra/translate.h"
#include "exec/physical.h"
#include "vql/binder.h"
#include "vql/interpreter.h"
#include "vql/parser.h"
#include "workload/document_db.h"

#include "drain_util.h"
#include "test_seed.h"

namespace vodak {
namespace exec {
namespace {

using vodak::testing::BatchDrainSorted;
using vodak::testing::RowsToSet;

class ExecBatchTest : public ::testing::Test {
 protected:
  void SetUp() override { Populate(8); }

  /// (Re)builds the corpus: `documents` documents of 2 sections x 3
  /// paragraphs (paragraph numbers 0..2, section numbers 0..1).
  void Populate(uint32_t documents) {
    db_ = std::make_unique<workload::DocumentDb>();
    ASSERT_TRUE(db_->Init().ok());
    workload::CorpusParams params;
    params.num_documents = documents;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_->Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_->catalog());
    eval_ = std::make_unique<ExprEvaluator>(&db_->catalog(), &db_->store(),
                                            &db_->methods());
    exec_ctx_.catalog = &db_->catalog();
    exec_ctx_.store = &db_->store();
    exec_ctx_.methods = &db_->methods();
  }

  ExprRef Parse(const std::string& text) {
    auto e = vql::ParseExpr(text);
    EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    return e.value();
  }
  algebra::LogicalRef Get(const std::string& ref, const std::string& cls) {
    return ctx_->Get(ref, cls).value();
  }
  algebra::LogicalRef Select(const std::string& cond,
                             algebra::LogicalRef input) {
    return ctx_->Select(Parse(cond), std::move(input)).value();
  }

  /// Drains the plan through the batch pipeline and demands set-level
  /// agreement with the naive §4.1 evaluator, both for the raw batch
  /// multiset and for ExecuteToSet. Returns the drained multiset size.
  size_t CheckParity(const algebra::LogicalRef& plan,
                     const std::string& label) {
    auto phys = BuildPhysical(plan, exec_ctx_);
    EXPECT_TRUE(phys.ok()) << label << ": " << phys.status().ToString();
    if (!phys.ok()) return 0;
    std::vector<Row> rows = BatchDrainSorted(phys.value().get());

    auto oracle = algebra::EvalLogical(plan, *eval_);
    EXPECT_TRUE(oracle.ok()) << label << ": "
                             << oracle.status().ToString();
    if (!oracle.ok()) return rows.size();
    EXPECT_EQ(RowsToSet(phys.value()->refs(), rows), oracle.value())
        << label << " (batch multiset vs EvalLogical)";
    auto batch_set = ExecuteToSet(phys.value().get());
    EXPECT_TRUE(batch_set.ok()) << label;
    if (batch_set.ok()) {
      EXPECT_EQ(batch_set.value(), oracle.value()) << label;
    }
    return rows.size();
  }

  void CheckQueryParity(const std::string& text,
                        vql::BoundQuery* bound_out = nullptr,
                        algebra::LogicalRef* plan_out = nullptr) {
    auto q = vql::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    vql::Binder binder(&db_->catalog());
    auto bound = binder.Bind(q.value());
    ASSERT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    auto plan = algebra::TranslateQuery(*ctx_, bound.value());
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    CheckParity(plan.value(), text);
    if (bound_out != nullptr) *bound_out = std::move(bound).value();
    if (plan_out != nullptr) *plan_out = plan.value();
  }

  /// The nested-loop join of the cancel/deadline checks: paragraphs
  /// against sections on a non-equality condition, so a single left
  /// batch fans out into many output batches.
  algebra::LogicalRef WideJoin() {
    return ctx_
        ->Join(Parse("p.number < s.number"), Get("p", "Paragraph"),
               Get("s", "Section"))
        .value();
  }

  std::unique_ptr<workload::DocumentDb> db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
  ExecContext exec_ctx_;
};

/// Random VQL query over the document schema: 1-2 ranges (independent,
/// dependent or self-join) with 1-2 predicates and a random access
/// expression. Every generated query binds successfully.
std::string RandomQuery(std::mt19937* rng) {
  auto pick = [rng](int n) {
    return static_cast<int>((*rng)() % static_cast<uint32_t>(n));
  };
  std::string from;
  std::vector<std::string> paragraph_vars;
  std::vector<std::string> preds;
  switch (pick(6)) {
    case 0:
      from = "p IN Paragraph";
      paragraph_vars = {"p"};
      break;
    case 1:
      from = "s IN Section";
      preds.push_back("s.number == " + std::to_string(pick(3)));
      break;
    case 2:
      from = "d IN Document";
      preds.push_back("d.title == 'Title " + std::to_string(pick(8)) +
                      "'");
      break;
    case 3:
      from = "p IN Paragraph, q IN Paragraph";
      paragraph_vars = {"p", "q"};
      preds.push_back(pick(2) == 0 ? "p == q" : "p->sameDocument(q)");
      break;
    case 4:
      from = "d IN Document, p IN d->paragraphs()";
      paragraph_vars = {"p"};
      break;
    default:
      from = "s IN Section, p IN Paragraph";
      paragraph_vars = {"p"};
      preds.push_back("p.section == s");
      break;
  }
  for (const std::string& v : paragraph_vars) {
    switch (pick(4)) {
      case 0:
        preds.push_back(v + ".number == " + std::to_string(pick(4)));
        break;
      case 1:
        preds.push_back(v + ".number > " + std::to_string(pick(3)));
        break;
      case 2:
        preds.push_back(v + "->contains_string('implementation')");
        break;
      default:
        preds.push_back(v + "->wordCount() > 20");
        break;
    }
  }
  std::string where;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i > 0) where += pick(3) == 0 ? " OR " : " AND ";
    where += preds[i];
  }
  std::string var = from.substr(0, 1);
  std::string access = var;
  if ((var == "p" || var == "s") && pick(2) == 0) access = var + ".number";
  return "ACCESS " + access + " FROM " + from +
         (where.empty() ? "" : " WHERE " + where);
}

TEST_F(ExecBatchTest, RandomizedQueriesOracleParity) {
  // Seeded from --seed= / VODAK_TEST_SEED (tests/test_seed.h); the
  // fallback reproduces the historical fixed sweep.
  std::mt19937 rng(static_cast<std::mt19937::result_type>(
      vodak::testing::TestSeed()));
  for (int i = 0; i < 60; ++i) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE("query #" + std::to_string(i) + ": " + query);
    CheckQueryParity(query);
  }
}

TEST_F(ExecBatchTest, PaperQueriesOracleParity) {
  const std::vector<std::string> queries = {
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation') AND "
      "(p->document()).title == 'Query Optimization'",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')",
      "ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
      "Document->select_by_index('Title 1')",
      "ACCESS [a: p.number, b: q.number] FROM p IN Paragraph, "
      "q IN Paragraph WHERE p->sameDocument(q) AND p.number == 0 "
      "AND q.number == 0",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    CheckQueryParity(query);
  }
}

TEST_F(ExecBatchTest, ProjectOverNaturalJoinOracleParity) {
  auto low = ctx_->Select(vql::ParseExpr("p.number == 0").value(),
                          ctx_->Get("p", "Paragraph").value())
                 .value();
  auto impl =
      ctx_->Select(
              vql::ParseExpr("p->contains_string('implementation')")
                  .value(),
              ctx_->Get("p", "Paragraph").value())
          .value();
  CheckParity(ctx_->Project({"p"}, ctx_->NaturalJoin(low, impl).value())
                  .value(),
              "project-over-natural-join");
}

TEST_F(ExecBatchTest, FlattenAndMapOracleParity) {
  auto docs = ctx_->Get("d", "Document").value();
  auto flat = ctx_->Flat("p", vql::ParseExpr("d->paragraphs()").value(),
                         docs)
                  .value();
  auto mapped =
      ctx_->Map("n", vql::ParseExpr("p.number + 1").value(), flat)
          .value();
  CheckParity(mapped, "map-over-flat");
}

TEST_F(ExecBatchTest, ConstOperandSetOpsDoNotTakeComparisonFastPath) {
  // IS-IN with a constant right operand must keep set-membership
  // semantics, not degrade to a total-order comparison (regression test
  // for the fused compare-to-const selection fast path: kIsIn passes
  // IsComparisonOp but must not pass the fast path's guard).
  auto get = ctx_->Get("p", "Paragraph").value();
  ExprRef cond = Expr::Binary(
      BinOp::kIsIn, Expr::Path("p", {"number"}),
      Expr::Const(Value::Set({Value::Int(0), Value::Int(2)})));
  auto plan = ctx_->Select(cond, get).value();
  CheckParity(plan, "p.number IS-IN {0, 2}");

  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  auto result = ExecuteToSet(phys.value().get());
  ASSERT_TRUE(result.ok());
  // 2 of the 3 paragraph numbers per section match across the corpus.
  EXPECT_EQ(result.value().AsSet().size(), 8u * 2u * 2u);

  // And a well-typed constant-base IS-IN agrees with the oracle.
  CheckQueryParity(
      "ACCESS p FROM p IN Paragraph WHERE "
      "p IS-IN Paragraph->retrieve_by_string('implementation')");
}

TEST_F(ExecBatchTest, ColumnDrainMatchesRowModeInterpreter) {
  // ExecuteColumn's value set against the row-mode interpreter, which
  // shares no batched-evaluation code with the executor: scans,
  // dependent ranges, self-joins, method predicates, an index scan,
  // and projections whose values repeat across rows (the dedup).
  const std::vector<std::string> queries = {
      "ACCESS p FROM p IN Paragraph",
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
      "ACCESS d.title FROM d IN Document",
      "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 20",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')",
      "ACCESS p FROM p IN Paragraph, q IN Paragraph WHERE "
      "p->sameDocument(q) AND p.number == 0 AND q.number > 0",
      "ACCESS p FROM s IN Section, p IN Paragraph WHERE p.section == s",
      "ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
      "Document->select_by_index('Title 1')",
  };
  vql::Interpreter interpreter(&db_->catalog(), &db_->store(),
                               &db_->methods());
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    vql::BoundQuery bound;
    algebra::LogicalRef plan;
    CheckQueryParity(query, &bound, &plan);
    ASSERT_NE(plan, nullptr);
    auto oracle = interpreter.Run(bound);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok()) << phys.status().ToString();
    auto got = ExecuteColumn(phys.value().get(), algebra::ResultRef(bound));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), oracle.value());
  }
}

TEST_F(ExecBatchTest, EmptyExtentDrainsNothing) {
  workload::DocumentDb empty_db;
  ASSERT_TRUE(empty_db.Init().ok());  // classes registered, no objects
  algebra::AlgebraContext ctx(&empty_db.catalog());
  ExecContext exec_ctx;
  exec_ctx.catalog = &empty_db.catalog();
  exec_ctx.store = &empty_db.store();
  exec_ctx.methods = &empty_db.methods();
  auto phys = BuildPhysical(ctx.Get("p", "Paragraph").value(), exec_ctx);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EXPECT_TRUE(BatchDrainSorted(phys.value().get()).empty());
}

TEST_F(ExecBatchTest, ScanBatchesRespectDefaultBatchSize) {
  auto plan = ctx_->Get("p", "Paragraph").value();
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(phys.value()->Open().ok());
  RowBatch batch;
  size_t total = 0;
  for (;;) {
    auto more = phys.value()->NextBatch(&batch);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_LE(batch.num_rows(), kDefaultBatchSize);
    EXPECT_EQ(batch.num_columns(), 1u);
    total += batch.num_rows();
  }
  phys.value()->Close();
  EXPECT_EQ(total, 8u * 2u * 3u);
  // Exhausted stream keeps reporting end-of-stream with an empty batch.
  auto again = phys.value()->NextBatch(&batch);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
  EXPECT_TRUE(batch.empty());
}

// ------------------------------------------- nested-loop join batches

TEST_F(ExecBatchTest, NestedLoopJoinOverSelectedLeftInput) {
  // The left input is a filter (a selected batch): only its live rows
  // may pair up.
  auto left = Select("p.number == 0", Get("p", "Paragraph"));
  EXPECT_GT(CheckParity(ctx_->Join(Parse("p.number < s.number"), left,
                                   Get("s", "Section"))
                            .value(),
                        "nlj over selected left"),
            0u);
  // Both sides selected, condition over both.
  auto right = Select("s.number == 1", Get("s", "Section"));
  CheckParity(
      ctx_->Join(Parse("p.section.document == s.document"), left, right)
          .value(),
      "nlj over selected left and right");
}

TEST_F(ExecBatchTest, NestedLoopJoinOverFullAndFilteredOuter) {
  // The unfiltered outer scan, and a filtered outer under a path
  // condition and under the TRUE cross product.
  EXPECT_GT(CheckParity(WideJoin(), "nlj"), 0u);
  auto low = Select("p.number <= 1", Get("p", "Paragraph"));
  EXPECT_GT(CheckParity(ctx_->Join(Parse("p.section == s"), low,
                                   Get("s", "Section"))
                            .value(),
                        "nlj over filtered outer"),
            0u);
  EXPECT_EQ(CheckParity(ctx_->Join(Parse("TRUE"), low, Get("s", "Section"))
                            .value(),
                        "cross product over filtered outer"),
            (8u * 2u * 2u) * (8u * 2u));
}

TEST_F(ExecBatchTest, NestedLoopJoinInnerSideWiderThanABatch) {
  Populate(200);  // 1200 paragraphs: the inner side spans two batches
  ASSERT_GT(200u * 2u * 3u, kDefaultBatchSize);
  // Each left row's pairs cross an output-batch boundary; the join
  // must resume mid-row.
  auto docs = Select("d.title == 'Title 1' OR d.title == 'Title 2'",
                     Get("d", "Document"));
  EXPECT_EQ(CheckParity(ctx_->Join(Parse("p.section.document == d"), docs,
                                   Get("p", "Paragraph"))
                            .value(),
                        "nlj, inner > batch"),
            2u * 2u * 3u);
  EXPECT_EQ(CheckParity(ctx_->Join(Parse("TRUE"), docs,
                                   Get("p", "Paragraph"))
                            .value(),
                        "cross product, inner > batch"),
            2u * 1200u);
}

TEST_F(ExecBatchTest, NestedLoopJoinEmptySides) {
  auto none = Select("s.number == 99", Get("s", "Section"));
  EXPECT_EQ(CheckParity(ctx_->Join(Parse("p.number < s.number"),
                                   Get("p", "Paragraph"), none)
                            .value(),
                        "nlj, empty inner"),
            0u);
  auto no_paragraphs = Select("p.number == 99", Get("p", "Paragraph"));
  EXPECT_EQ(CheckParity(ctx_->Join(Parse("TRUE"), no_paragraphs,
                                   Get("s", "Section"))
                            .value(),
                        "cross product, empty left"),
            0u);
}

TEST_F(ExecBatchTest, NestedLoopJoinTrueCrossProduct) {
  auto left = Select("p.number == 0", Get("p", "Paragraph"));
  EXPECT_EQ(CheckParity(ctx_->Join(Parse("TRUE"), left,
                                   Get("s", "Section"))
                            .value(),
                        "cross product"),
            (8u * 2u) * (8u * 2u));
}

TEST_F(ExecBatchTest, NestedLoopJoinPollsCancelPerOutputBatch) {
  // One left batch (1024 paragraphs) pairs with 400 sections: hundreds
  // of output batches between two scan-leaf polls. The join itself
  // must observe a cancel on its very next batch.
  Populate(200);
  CancellationToken cancel;
  ExecContext ctx = exec_ctx_;
  ctx.cancel = &cancel;
  auto phys = BuildPhysical(WideJoin(), ctx);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  ASSERT_TRUE(phys.value()->Open().ok());
  RowBatch batch;
  auto first = phys.value()->NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value());
  cancel.Cancel();
  auto next = phys.value()->NextBatch(&batch);
  ASSERT_FALSE(next.ok()) << "join emitted a batch after Cancel()";
  EXPECT_EQ(next.status().code(), StatusCode::kCancelled)
      << next.status().ToString();
  phys.value()->Close();
}

TEST_F(ExecBatchTest, NestedLoopJoinPollsDeadlinePerOutputBatch) {
  Populate(200);
  ExecContext ctx = exec_ctx_;
  ctx.deadline = Deadline::After(500);
  auto phys = BuildPhysical(WideJoin(), ctx);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  ASSERT_TRUE(phys.value()->Open().ok());
  RowBatch batch;
  auto first = phys.value()->NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value());
  std::this_thread::sleep_until(ctx.deadline.at +
                                std::chrono::milliseconds(5));
  auto next = phys.value()->NextBatch(&batch);
  ASSERT_FALSE(next.ok()) << "join emitted a batch past its deadline";
  EXPECT_EQ(next.status().code(), StatusCode::kDeadlineExceeded)
      << next.status().ToString();
  phys.value()->Close();
}

}  // namespace
}  // namespace exec
}  // namespace vodak

int main(int argc, char** argv) {
  return vodak::testing::RunAllTestsWithSeed(argc, argv,
                                             /*fallback=*/20260726);
}
