// Morsel-driven parallel execution: every parallelizable plan must
// produce, at threads ∈ {1, 2, 4, 8}, the same row multiset as the
// serial NextBatch drain, the same set as the naive logical evaluator
// (algebra::EvalLogical), and the same value set as the naive
// interpreter running in row mode (which shares no batched-evaluation
// code with the executor at all). Plus unit tests for the worker pool,
// the ResolveThreads(0) convention and the morsel source, and the
// morsel boundary edge cases: empty extent, extent smaller than one
// morsel, morsel size 1.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "algebra/translate.h"
#include "engine/database.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "exec/row_hash.h"
#include "exec/worker_pool.h"
#include "vql/interpreter.h"
#include "vql/parser.h"
#include "workload/document_db.h"

#include "drain_util.h"

namespace vodak {
namespace exec {
namespace {

using vodak::testing::ExpectSameRows;

class ExecParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 9;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    eval_ = std::make_unique<ExprEvaluator>(&db_.catalog(), &db_.store(),
                                            &db_.methods());
    exec_ctx_.catalog = &db_.catalog();
    exec_ctx_.store = &db_.store();
    exec_ctx_.methods = &db_.methods();
  }

  /// The multiset reference: the serial NextBatch drain, sorted, itself
  /// checked against the naive logical evaluator at set level.
  std::vector<Row> SerialDrainSorted(const algebra::LogicalRef& plan) {
    auto phys = BuildPhysical(plan, exec_ctx_);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    if (!phys.ok()) return {};
    std::vector<Row> rows =
        vodak::testing::BatchDrainSorted(phys.value().get());
    auto oracle = algebra::EvalLogical(plan, *eval_);
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    if (oracle.ok()) {
      EXPECT_EQ(vodak::testing::RowsToSet(phys.value()->refs(), rows),
                oracle.value())
          << "serial drain vs EvalLogical";
    }
    return rows;
  }

  /// The parallel plan state for `threads` workers over morsels of at
  /// most `morsel_size` rows — how the tests drive morsel boundaries on
  /// a 54-row corpus. Null for threads <= 1 or a plan without a
  /// parallelizable driving scan (the drivers then drain serially).
  ParallelPlanStatePtr Prepare(const algebra::LogicalRef& plan,
                               size_t threads, size_t morsel_size) {
    if (threads <= 1) return nullptr;
    auto state = PrepareParallelPlan(plan, exec_ctx_, threads, morsel_size);
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    return state.ok() ? state.value() : nullptr;
  }

  std::vector<Row> ParallelDrainSorted(const algebra::LogicalRef& plan,
                                       size_t threads, size_t morsel_size,
                                       bool* parallelized = nullptr) {
    ParallelOptions options;
    options.threads = threads;
    auto rows = ParallelDrainRows(plan, exec_ctx_, options, parallelized,
                                  Prepare(plan, threads, morsel_size));
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) return {};
    std::vector<Row> sorted = std::move(rows).value();
    SortRows(&sorted);
    return sorted;
  }

  /// Parallel drains at every thread count must reproduce the serial
  /// batch multiset exactly. Returns whether threads=4 parallelized.
  bool CheckThreadSweep(const algebra::LogicalRef& plan,
                        const std::string& label,
                        size_t morsel_size = kDefaultMorselSize) {
    std::vector<Row> reference = SerialDrainSorted(plan);
    bool parallelized = false;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      bool ran_parallel = false;
      std::vector<Row> got =
          ParallelDrainSorted(plan, threads, morsel_size, &ran_parallel);
      if (threads == 4) parallelized = ran_parallel;
      ExpectSameRows(reference, got,
                     label + " at threads=" + std::to_string(threads));
    }
    return parallelized;
  }

  algebra::LogicalRef Translate(const std::string& text,
                                vql::BoundQuery* bound_out = nullptr) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    auto plan = algebra::TranslateQuery(*ctx_, bound.value());
    EXPECT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    if (bound_out != nullptr) *bound_out = std::move(bound).value();
    return plan.value();
  }

  /// Full-stack parity for one VQL query: thread-sweep multiset parity
  /// against the serial drain, plus value-set parity between the
  /// parallel column driver and the row-mode naive interpreter.
  void CheckQuery(const std::string& text,
                  size_t morsel_size = kDefaultMorselSize) {
    vql::BoundQuery bound;
    algebra::LogicalRef plan = Translate(text, &bound);
    CheckThreadSweep(plan, text, morsel_size);

    vql::Interpreter interpreter(&db_.catalog(), &db_.store(),
                                 &db_.methods());
    vql::Interpreter::Options naive;
    naive.row_mode = true;
    auto oracle = interpreter.Run(bound, naive);
    ASSERT_TRUE(oracle.ok()) << text << ": " << oracle.status().ToString();
    ParallelOptions options;
    options.threads = 4;
    auto got = ParallelExecuteColumn(plan, exec_ctx_,
                                     algebra::ResultRef(bound), options,
                                     Prepare(plan, 4, morsel_size));
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    EXPECT_EQ(oracle.value(), got.value()) << text;
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
  ExecContext exec_ctx_;
};

// ---------------------------------------------------------------- units

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnceAndIsReusable) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4u);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> hits(97);
    std::atomic<size_t> sum{0};
    pool.ParallelRun(hits.size(), [&](size_t i) {
      hits[i].fetch_add(1);
      sum.fetch_add(i);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "task " << i;
    }
    EXPECT_EQ(sum.load(), 96u * 97u / 2u);
  }
}

TEST(WorkerPoolTest, SingleLanePoolRunsOnCaller) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  size_t ran = 0;
  pool.ParallelRun(5, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;  // single-lane: no race by construction
  });
  EXPECT_EQ(ran, 5u);
}

TEST(WorkerPoolTest, MoreLanesThanTasks) {
  WorkerPool pool(8);
  std::atomic<int> ran{0};
  pool.ParallelRun(2, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
  pool.ParallelRun(0, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ResolveThreadsTest, ZeroResolvesThroughTheSingleHelper) {
  // The one shared convention (no per-call-site hardware_concurrency
  // guards): 0 -> hardware concurrency, itself guarded to at least 1,
  // everywhere — including the pool itself.
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(3), 3u);
  WorkerPool pool(0);
  EXPECT_EQ(pool.parallelism(), ResolveThreads(0));
}

TEST(MorselSourceTest, ClaimsPartitionTheRangeExactly) {
  MorselSource source;
  source.Reset(10, 3);
  Morsel m;
  std::vector<std::pair<size_t, size_t>> claims;
  while (source.Next(&m)) claims.emplace_back(m.begin, m.end);
  ASSERT_EQ(claims.size(), 4u);
  EXPECT_EQ(claims[0].first, 0u);
  EXPECT_EQ(claims[0].second, 3u);
  EXPECT_EQ(claims[3].first, 9u);
  EXPECT_EQ(claims[3].second, 10u);
  EXPECT_FALSE(source.Next(&m));  // stays drained
}

TEST(MorselSourceTest, MorselSizeOneAndEmptySource) {
  MorselSource source;
  source.Reset(3, 1);
  Morsel m;
  size_t count = 0;
  while (source.Next(&m)) {
    EXPECT_EQ(m.size(), 1u);
    ++count;
  }
  EXPECT_EQ(count, 3u);
  source.Reset(0, 16);
  EXPECT_FALSE(source.Next(&m));
  // A zero morsel size is clamped rather than looping forever.
  source.Reset(2, 0);
  ASSERT_TRUE(source.Next(&m));
  EXPECT_EQ(m.size(), 1u);
}

TEST(MorselSourceTest, ConcurrentClaimsAreDisjointAndComplete) {
  MorselSource source;
  const size_t total = 1000;
  source.Reset(total, 7);
  std::vector<std::atomic<int>> claimed(total);
  WorkerPool pool(4);
  pool.ParallelRun(4, [&](size_t) {
    Morsel m;
    while (source.Next(&m)) {
      for (size_t i = m.begin; i < m.end; ++i) claimed[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(claimed[i].load(), 1) << "row " << i;
  }
}

// ------------------------------------------------------- plan parity

TEST_F(ExecParallelTest, ScanSelectThreadSweep) {
  CheckQuery("ACCESS p FROM p IN Paragraph WHERE p.number >= 1");
}

TEST_F(ExecParallelTest, RandomizedQueriesThreadSweep) {
  // A trimmed version of exec_batch_test's query generator: scans,
  // dependent ranges, self-joins, method predicates.
  const std::vector<std::string> queries = {
      "ACCESS p FROM p IN Paragraph",
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
      "ACCESS d.title FROM d IN Document",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 20",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')",
      "ACCESS p FROM p IN Paragraph, q IN Paragraph WHERE "
      "p->sameDocument(q) AND p.number == 0 AND q.number > 0",
      "ACCESS p FROM s IN Section, p IN Paragraph WHERE p.section == s",
      "ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
      "Document->select_by_index('Title 1')",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    CheckQuery(query);
  }
}

TEST_F(ExecParallelTest, MorselBoundaryEdgeCases) {
  // Morsel size 1: every extent row is its own morsel.
  CheckQuery("ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
             /*morsel_size=*/1);
  // Extent (54 paragraphs) far smaller than one default morsel: one
  // worker claims everything, the others drain empty.
  CheckQuery("ACCESS p FROM p IN Paragraph", kDefaultMorselSize);
  // Tiny odd morsel size that does not divide the extent.
  CheckQuery("ACCESS p FROM p IN Paragraph WHERE p.number == 0",
             /*morsel_size=*/7);
}

TEST_F(ExecParallelTest, EmptyExtentParallelizes) {
  workload::DocumentDb empty_db;
  ASSERT_TRUE(empty_db.Init().ok());  // classes registered, no objects
  algebra::AlgebraContext ctx(&empty_db.catalog());
  ExecContext exec_ctx;
  exec_ctx.catalog = &empty_db.catalog();
  exec_ctx.store = &empty_db.store();
  exec_ctx.methods = &empty_db.methods();
  auto q = vql::ParseQuery("ACCESS p FROM p IN Paragraph");
  ASSERT_TRUE(q.ok());
  vql::Binder binder(&empty_db.catalog());
  auto bound = binder.Bind(q.value());
  ASSERT_TRUE(bound.ok());
  auto plan = algebra::TranslateQuery(ctx, bound.value());
  ASSERT_TRUE(plan.ok());
  ParallelOptions options;
  options.threads = 4;
  bool parallelized = false;
  auto rows =
      ParallelDrainRows(plan.value(), exec_ctx, options, &parallelized);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(parallelized);
  EXPECT_TRUE(rows.value().empty());
}

TEST_F(ExecParallelTest, ProjectDedupMergesAcrossWorkers) {
  // p.number repeats in every section, so with 1-row morsels the same
  // projected row is produced by many workers; the final dedup pass
  // must collapse them to the serial set.
  vql::BoundQuery bound;
  algebra::LogicalRef plan =
      Translate("ACCESS p.number FROM p IN Paragraph", &bound);
  bool parallelized = false;
  ParallelOptions options;
  options.threads = 4;
  auto rows = ParallelDrainRows(plan, exec_ctx_, options, &parallelized,
                                Prepare(plan, 4, /*morsel_size=*/1));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(parallelized);
  std::vector<Row> got = std::move(rows).value();
  SortRows(&got);
  ExpectSameRows(SerialDrainSorted(plan), got, "project-dedup merge");
}

TEST_F(ExecParallelTest, SharedHashJoinBuildThreadSweep) {
  // natural join probes from the driving side while the build table is
  // constructed once and shared read-only across workers.
  auto low = ctx_->Select(vql::ParseExpr("p.number == 0").value(),
                          ctx_->Get("p", "Paragraph").value())
                 .value();
  auto impl =
      ctx_->Select(
              vql::ParseExpr("p->contains_string('implementation')")
                  .value(),
              ctx_->Get("p", "Paragraph").value())
          .value();
  CheckThreadSweep(ctx_->NaturalJoin(low, impl).value(),
                   "natural-join", /*morsel_size=*/4);
  CheckThreadSweep(
      ctx_->Project({"p"}, ctx_->NaturalJoin(low, impl).value()).value(),
      "project-over-natural-join", /*morsel_size=*/4);
}

TEST_F(ExecParallelTest, SetOperatorsFallBackToSerial) {
  auto low = ctx_->Select(vql::ParseExpr("p.number == 0").value(),
                          ctx_->Get("p", "Paragraph").value())
                 .value();
  auto impl =
      ctx_->Select(
              vql::ParseExpr("p->contains_string('implementation')")
                  .value(),
              ctx_->Get("p", "Paragraph").value())
          .value();
  auto plan = ctx_->Union(low, impl).value();
  ParallelOptions options;
  options.threads = 4;
  bool parallelized = true;
  auto rows = ParallelDrainRows(plan, exec_ctx_, options, &parallelized);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(parallelized) << "set ops must take the serial fallback";
  std::vector<Row> got = std::move(rows).value();
  SortRows(&got);
  ExpectSameRows(SerialDrainSorted(plan), got, "union fallback");
}

TEST_F(ExecParallelTest, NestedLoopJoinOnDrivingPathThreadSweep) {
  // The join probes from the morsel-driven outer side while the worker
  // clones share one materialized inner side (SharedInnerRows).
  auto sections = ctx_->Get("s", "Section").value();
  auto join = [&](algebra::LogicalRef left, const std::string& cond) {
    return ctx_->Join(vql::ParseExpr(cond).value(), std::move(left),
                      sections)
        .value();
  };
  auto paragraphs = ctx_->Get("p", "Paragraph").value();
  EXPECT_TRUE(CheckThreadSweep(join(paragraphs, "p.number < s.number"),
                               "nlj", /*morsel_size=*/4));
  // A selected (filtered) outer input.
  auto low = ctx_->Select(vql::ParseExpr("p.number <= 1").value(),
                          paragraphs)
                 .value();
  EXPECT_TRUE(CheckThreadSweep(join(low, "p.section == s"),
                               "nlj over filtered outer",
                               /*morsel_size=*/4));
  EXPECT_TRUE(CheckThreadSweep(join(low, "TRUE"), "cross product",
                               /*morsel_size=*/4));
}

// ------------------------------------------------ engine + interpreter

TEST_F(ExecParallelTest, EngineThreadKnobMatchesNaive) {
  engine::Database session(&db_.catalog(), &db_.store(), &db_.methods());
  const std::string query =
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1";
  engine::PlanOptions plan;
  plan.optimize = false;
  engine::RunOptions run;
  run.threads = 4;
  auto parallel = session.Run(query, plan, run);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  auto naive = session.RunNaive(query);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(parallel.value().result, naive.value());

  // threads=0 resolves to hardware concurrency and still agrees.
  run.threads = 0;
  auto auto_threads = session.Run(query, plan, run);
  ASSERT_TRUE(auto_threads.ok());
  EXPECT_EQ(auto_threads.value().result, naive.value());
}

TEST_F(ExecParallelTest, InterpreterParallelAndRowModeAgree) {
  // The interpreter's outer-range morsels hold at least
  // min(1024, kDefaultMorselSize) rows, so this test brings a corpus
  // whose outer extents (2,100 documents, 4,200 paragraphs) split into
  // several morsels and the per-worker merge is really exercised.
  workload::DocumentDb big;
  ASSERT_TRUE(big.Init().ok());
  workload::CorpusParams params;
  params.num_documents = 2100;
  params.sections_per_document = 1;
  params.paragraphs_per_section = 2;
  params.implementation_fraction = 0.3;
  ASSERT_TRUE(big.Populate(params).ok());
  ASSERT_LT(BalancedMorselSize(params.num_documents, 2, kDefaultMorselSize),
            params.num_documents);
  vql::Interpreter interpreter(&big.catalog(), &big.store(), &big.methods());
  const std::vector<std::string> queries = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')",
  };
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    auto q = vql::ParseQuery(text);
    ASSERT_TRUE(q.ok());
    vql::Binder binder(&big.catalog());
    auto bound = binder.Bind(q.value());
    ASSERT_TRUE(bound.ok());
    auto serial = interpreter.Run(bound.value());
    ASSERT_TRUE(serial.ok());

    vql::Interpreter::Options row_mode;
    row_mode.row_mode = true;
    auto row = interpreter.Run(bound.value(), row_mode);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(serial.value(), row.value());

    for (size_t threads : {2u, 4u, 8u}) {
      vql::Interpreter::Options parallel;
      parallel.threads = threads;
      auto par = interpreter.Run(bound.value(), parallel);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_EQ(serial.value(), par.value()) << "threads=" << threads;

      parallel.row_mode = true;  // parallel + row-mode oracle compose
      auto par_row = interpreter.Run(bound.value(), parallel);
      ASSERT_TRUE(par_row.ok());
      EXPECT_EQ(serial.value(), par_row.value());
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace vodak
