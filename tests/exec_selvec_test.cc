// Selection-vector pipeline (docs/ARCHITECTURE.md §"Selection
// vectors"): filters mark survivors in a RowBatch selection vector
// instead of compacting columns, downstream operators iterate the
// selection view, and density is restored only at the explicit
// Compact() boundaries. These tests pin the edge cases — empty and full
// selections, selections surviving through hash-join probe and
// project-dedup, set parity against the naive logical evaluator
// (serially and under threads {1, 4}), the copy-counter bound on a
// selection chain (no more value moves than scanned rows), and the
// tripwire that batch method bodies only ever see selected rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/eval.h"
#include "algebra/translate.h"
#include "common/copy_stats.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "vql/parser.h"
#include "workload/document_db.h"

#include "drain_util.h"

namespace vodak {
namespace exec {
namespace {

class ExecSelvecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 8;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;  // paragraph numbers 0..2
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    eval_ = std::make_unique<ExprEvaluator>(&db_.catalog(), &db_.store(),
                                            &db_.methods());
    exec_ctx_ = ExecContext{&db_.catalog(), &db_.store(), &db_.methods()};
  }

  ExprRef Parse(const std::string& text) {
    auto e = vql::ParseExpr(text);
    EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    return e.value();
  }

  /// A selection chain: a mapped column followed by a stack of cheap
  /// predicates, each its own Filter operator (the shape the semantic
  /// optimizer's method rewriting produces).
  algebra::LogicalRef ChainPlan() {
    auto get = ctx_->Get("p", "Paragraph").value();
    auto mapped = ctx_->Map("n", Parse("p.number"), get).value();
    auto f1 = ctx_->Select(Parse("n >= 1"), mapped).value();
    return ctx_->Select(Parse("n <= 1"), f1).value();
  }

  /// Drains a plan through NextBatch, sorted.
  std::vector<Row> BatchDrainSorted(const algebra::LogicalRef& plan) {
    auto phys = BuildPhysical(plan, exec_ctx_);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    if (!phys.ok()) return {};
    return vodak::testing::BatchDrainSorted(phys.value().get());
  }

  /// The naive logical evaluator's result, as a set of tuples.
  Value Oracle(const algebra::LogicalRef& plan) {
    auto oracle = algebra::EvalLogical(plan, *eval_);
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    return oracle.ok() ? oracle.value() : Value::Null();
  }

  /// The marking pipeline vs the naive logical evaluator (set).
  void CheckOracleParity(const algebra::LogicalRef& plan,
                         const std::string& label) {
    std::vector<Row> marked = BatchDrainSorted(plan);
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok());
    EXPECT_EQ(vodak::testing::RowsToSet(phys.value()->refs(), marked),
              Oracle(plan))
        << label << " (marking pipeline vs EvalLogical)";
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
  ExecContext exec_ctx_;
};

TEST_F(ExecSelvecTest, RowBatchSelectionUnit) {
  RowBatch batch;
  batch.Reset(2);
  for (int i = 0; i < 6; ++i) {
    batch.column(0).push_back(Value::Int(i));
    batch.column(1).push_back(Value::Int(10 * i));
  }
  batch.set_num_rows(6);
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.active_rows(), 6u);

  // Full survival of a dense batch stays dense (no selection alloc).
  EXPECT_EQ(batch.IntersectSelection(std::vector<char>(6, 1)), 6u);
  EXPECT_FALSE(batch.has_selection());

  // Mark rows {1, 3, 5}; storage is untouched.
  std::vector<char> keep = {0, 1, 0, 1, 0, 1};
  EXPECT_EQ(batch.IntersectSelection(keep), 3u);
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.num_rows(), 6u);
  EXPECT_EQ(batch.active_rows(), 3u);
  EXPECT_EQ(batch.RowAt(0), 1u);
  EXPECT_EQ(batch.RowAt(2), 5u);
  EXPECT_EQ(batch.column(0)[0].AsInt(), 0);  // row 0 not moved

  // Intersect again over the *active* rows: drop the middle survivor.
  EXPECT_EQ(batch.IntersectSelection({1, 0, 1}), 2u);
  EXPECT_EQ(batch.RowAt(0), 1u);
  EXPECT_EQ(batch.RowAt(1), 5u);

  // Compact gathers the survivors dense and counts the value moves.
  BatchCopyStats::Reset();
  batch.Compact();
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.column(0)[0].AsInt(), 1);
  EXPECT_EQ(batch.column(1)[1].AsInt(), 50);
  // Both surviving rows moved (1 -> 0, 5 -> 1), two columns each.
  EXPECT_EQ(BatchCopyStats::compact_moves.load(), 4u);
}

TEST_F(ExecSelvecTest, EmptySelectionEndsTheStream) {
  RowBatch batch;
  batch.Reset(1);
  batch.column(0).push_back(Value::Int(7));
  batch.set_num_rows(1);
  EXPECT_EQ(batch.IntersectSelection({0}), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.active_rows(), 0u);
  batch.Compact();
  EXPECT_EQ(batch.num_rows(), 0u);

  // A filter that rejects every row keeps looping past the all-masked
  // batches and reports end of stream — never a true return with zero
  // live rows.
  auto plan = ctx_->Select(Parse("p.number == 99"),
                           ctx_->Get("p", "Paragraph").value())
                  .value();
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(phys.value()->Open().ok());
  RowBatch out;
  auto more = phys.value()->NextBatch(&out);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  phys.value()->Close();
  auto result = ExecuteToSet(phys.value().get());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().AsSet().empty());
}

TEST_F(ExecSelvecTest, FullSelectionStaysDense) {
  // An all-true predicate must not allocate a selection: the batch
  // stays dense and downstream operators see it exactly as before.
  auto plan = ctx_->Select(Parse("p.number >= 0"),
                           ctx_->Get("p", "Paragraph").value())
                  .value();
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(phys.value()->Open().ok());
  RowBatch batch;
  size_t total = 0;
  for (;;) {
    auto more = phys.value()->NextBatch(&batch);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_FALSE(batch.has_selection())
        << "full-survival batches must stay dense";
    total += batch.active_rows();
  }
  phys.value()->Close();
  EXPECT_EQ(total, 8u * 2u * 3u);
}

TEST_F(ExecSelvecTest, FilterEmitsMarkedNotMovedBatches) {
  auto plan = ctx_->Select(Parse("p.number >= 1"),
                           ctx_->Get("p", "Paragraph").value())
                  .value();
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(phys.value()->Open().ok());
  RowBatch batch;
  auto more = phys.value()->NextBatch(&batch);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(more.value());
  // 2 of 3 paragraph numbers survive; the batch keeps its full column
  // storage and marks the survivors.
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.num_rows(), 8u * 2u * 3u);
  EXPECT_EQ(batch.active_rows(), 8u * 2u * 2u);
  for (size_t i = 0; i < batch.active_rows(); ++i) {
    EXPECT_GE(batch.column(0)[batch.RowAt(i)].AsOid().local, 0u);
  }
  phys.value()->Close();
}

TEST_F(ExecSelvecTest, SelectionChainParity) {
  CheckOracleParity(ChainPlan(), "map + two-filter chain");

  // Property-predicate chain without the map (each filter gathers the
  // receiver column through the selection).
  auto get = ctx_->Get("p", "Paragraph").value();
  auto f1 = ctx_->Select(Parse("p.number >= 1"), get).value();
  auto f2 = ctx_->Select(Parse("p.number <= 1"), f1).value();
  CheckOracleParity(f2, "property-predicate chain");

  // Chain feeding a flatten (selection consumed by fan-out).
  auto docs = ctx_->Get("d", "Document").value();
  auto fd = ctx_->Select(Parse("d.title == 'Title 1'"), docs).value();
  auto flat = ctx_->Flat("p", Parse("d->paragraphs()"), fd).value();
  CheckOracleParity(flat, "filter into flatten");
}

TEST_F(ExecSelvecTest, SelectionSurvivesJoinProbeAndProjectDedup) {
  // Both join inputs are filter chains (selected batches); the probe
  // side is iterated through its selection, the build side compacts at
  // the density boundary, and the project dedups only the live rows.
  auto low = ctx_->Select(Parse("p.number == 0"),
                          ctx_->Get("p", "Paragraph").value())
                 .value();
  auto impl = ctx_->Select(Parse("p->contains_string('implementation')"),
                           ctx_->Get("p", "Paragraph").value())
                  .value();
  auto join = ctx_->NaturalJoin(low, impl).value();
  CheckOracleParity(join, "join over filtered inputs");
  CheckOracleParity(ctx_->Project({"p"}, join).value(),
                      "project-dedup over join");
}

TEST_F(ExecSelvecTest, ParallelChainParityAtThreads1And4) {
  const algebra::LogicalRef plan = ChainPlan();
  const Value oracle = Oracle(plan);
  ASSERT_FALSE(oracle.AsSet().empty());
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  for (size_t threads : {1u, 4u}) {
    ParallelOptions options;
    options.threads = threads;
    auto rows = ParallelDrainRows(plan, exec_ctx_, options);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    // The chain's rows are distinct, so the multiset has the set's size.
    ASSERT_EQ(rows.value().size(), oracle.AsSet().size())
        << "threads=" << threads;
    EXPECT_EQ(vodak::testing::RowsToSet(phys.value()->refs(), rows.value()),
              oracle)
        << "threads=" << threads << " vs EvalLogical";
  }
}

TEST_F(ExecSelvecTest, BareVariableChainMovesNothing) {
  // Bare-variable predicates read the selection view in place and
  // ExecuteColumn reads the live rows through it: the marking chain
  // moves no value at all.
  auto phys = BuildPhysical(ChainPlan(), exec_ctx_);
  ASSERT_TRUE(phys.ok());
  BatchCopyStats::Reset();
  auto result = ExecuteColumn(phys.value().get(), "p");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().AsSet().empty());
  EXPECT_EQ(BatchCopyStats::TotalMoves(), 0u);
}

TEST_F(ExecSelvecTest, SelectionChainMovesAtMostOneValuePerScannedRow) {
  // The copy-tax bound: a chain carrying three columns (p, n, s) through
  // three filters (75% / 50% / 25% cumulative survivors over paragraph
  // numbers 0..3), compacted once per batch at the drain boundary, moves
  // no more values than the paragraphs it scanned. A filter that
  // compacted its survivors would pay a move per carried column per
  // surviving row at every predicate and break the bound.
  workload::DocumentDb db;
  ASSERT_TRUE(db.Init().ok());
  workload::CorpusParams params;
  params.num_documents = 100;
  params.sections_per_document = 3;
  params.paragraphs_per_section = 4;
  ASSERT_TRUE(db.Populate(params).ok());
  const uint64_t paragraphs = 100u * 3u * 4u;

  algebra::AlgebraContext ctx(&db.catalog());
  auto chain = ctx.Get("p", "Paragraph").value();
  chain = ctx.Map("n", Parse("p.number"), chain).value();
  chain = ctx.Map("s", Parse("p.section"), chain).value();
  chain = ctx.Select(Parse("n >= 1"), chain).value();
  chain = ctx.Select(Parse("n <= 2"), chain).value();
  chain = ctx.Select(Parse("n >= 2"), chain).value();
  ExecContext chain_ctx;
  chain_ctx.catalog = &db.catalog();
  chain_ctx.store = &db.store();
  chain_ctx.methods = &db.methods();
  auto phys = BuildPhysical(chain, chain_ctx);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();

  BatchCopyStats::Reset();
  const std::vector<Row> rows =
      vodak::testing::BatchDrainSorted(phys.value().get());
  const uint64_t moves = BatchCopyStats::TotalMoves();
  EXPECT_EQ(rows.size(), paragraphs / 4);
  EXPECT_LE(moves, paragraphs);
}

TEST_F(ExecSelvecTest, BatchMethodBodiesOnlySeeSelectedRows) {
  // Tripwire: a batch-native method downstream of a selection filter
  // must be dispatched with exactly the selected receivers — the
  // registry's batch_rows counter counts every row handed to a
  // native_batch body, so it must equal the filter's survivor count,
  // not the scan's row count.
  auto get = ctx_->Get("p", "Paragraph").value();
  auto filtered = ctx_->Select(Parse("p.number == 0"), get).value();
  auto mapped =
      ctx_->Map("c", Parse("p->contains_string('implementation')"),
                filtered)
          .value();
  const size_t selected = 8u * 2u;   // one number-0 paragraph per section
  const size_t scanned = 8u * 2u * 3u;

  auto phys = BuildPhysical(mapped, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  db_.ResetCounters();
  auto result = ExecuteToSet(phys.value().get());
  ASSERT_TRUE(result.ok());
  const uint64_t batch_rows = db_.methods().batch_row_count(
      "Paragraph", "contains_string", MethodLevel::kInstance);
  EXPECT_EQ(batch_rows, selected)
      << "the method body saw masked-out rows";
  EXPECT_LT(batch_rows, scanned);

  // And the naive logical evaluator agrees on the result.
  EXPECT_EQ(result.value(), Oracle(mapped));
}

TEST_F(ExecSelvecTest, SelectionViewAccessorsUnit) {
  // Direct coverage of the selection-view accessors the VM and the
  // operator tree both build on (ISSUE 9 satellite): install / export
  // / transplant / clear, plus the row copy helpers.
  RowBatch batch;
  batch.Reset(2);
  Row row = {Value::Int(1), Value::Int(10)};
  batch.AppendRow(row);
  batch.AppendRow({Value::Int(2), Value::Int(20)});
  batch.AppendRow({Value::Int(3), Value::Int(30)});
  EXPECT_EQ(batch.num_rows(), 3u);

  // SetSelection installs a view without touching storage.
  batch.SetSelection({0, 2});
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.selection().size(), 2u);
  EXPECT_EQ(batch.active_rows(), 2u);
  EXPECT_EQ(batch.RowAt(1), 2u);
  EXPECT_EQ(batch.num_rows(), 3u);

  // ExportSelectionTo writes sel/sel_count into an env-shaped object.
  struct FakeEnv {
    const uint32_t* sel = nullptr;
    size_t sel_count = 0;
  } env;
  batch.ExportSelectionTo(&env);
  ASSERT_NE(env.sel, nullptr);
  EXPECT_EQ(env.sel_count, 2u);
  EXPECT_EQ(env.sel[1], 2u);

  // CopyRowTo takes *physical* indices: live row 1 is physical row 2.
  batch.CopyRowTo(batch.RowAt(1), &row);
  EXPECT_EQ(row[0].AsInt(), 3);
  EXPECT_EQ(row[1].AsInt(), 30);

  // TakeSelection transplants the vector and reverts the donor dense.
  std::vector<uint32_t> taken = batch.TakeSelection();
  EXPECT_EQ(taken, (std::vector<uint32_t>{0, 2}));
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.active_rows(), 3u);

  // Dense batches export nothing.
  FakeEnv dense_env;
  batch.ExportSelectionTo(&dense_env);
  EXPECT_EQ(dense_env.sel, nullptr);

  // ClearSelection drops an installed view.
  batch.SetSelection({1});
  batch.ClearSelection();
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.active_rows(), 3u);

  // Reset drops rows and any selection but keeps the column count it
  // was given (capacity retention is what the VM's steady-state
  // zero-allocation claim stands on).
  batch.SetSelection({0});
  batch.Reset(2);
  EXPECT_EQ(batch.num_columns(), 2u);
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_FALSE(batch.has_selection());
  EXPECT_TRUE(batch.empty());
}

TEST_F(ExecSelvecTest, NeverEmptyInvariantDirect) {
  // The never-empty invariant is on *active* rows: stored rows with an
  // empty selection count as empty (this is what makes a true
  // NextBatch return mean "there is work").
  RowBatch batch;
  batch.Reset(1);
  batch.column(0).assign(4, Value::Int(1));
  batch.set_num_rows(4);
  EXPECT_FALSE(batch.empty());
  EXPECT_EQ(batch.IntersectSelection({0, 0, 0, 0}), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.num_rows(), 4u);  // storage untouched — only the view

  // Every operator in a chain honors it: drain a plan whose middle
  // batches are fully masked and assert no true return ever carries
  // zero live rows (BatchDrainSorted checks per batch).
  auto get = ctx_->Get("p", "Paragraph").value();
  auto none = ctx_->Select(Parse("p.number == 99"), get).value();
  EXPECT_TRUE(BatchDrainSorted(none).empty());
  auto some = ctx_->Select(Parse("p.number == 2"), get).value();
  EXPECT_EQ(BatchDrainSorted(some).size(), 8u * 2u);
}

}  // namespace
}  // namespace exec
}  // namespace vodak
