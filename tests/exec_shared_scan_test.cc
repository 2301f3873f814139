// Shared scans: K concurrent queries attached to one scan must each
// produce exactly the result they produce alone — against the row-mode
// interpreter oracle AND the private-scan baseline — while the store
// pays ~1 extent pass and ~1 property-column read per source instead
// of K. Plus unit tests for the fan-out protocol (every attached
// consumer sees every morsel exactly once, late attachers circle back
// for what they missed), the materialize-once slots, the cross-query
// property-column cache, and the ResolveThreads(0) convention. Swept
// under TSan by scripts/ci.sh --tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "engine/database.h"
#include "exec/physical.h"
#include "exec/shared_scan.h"
#include "exec/worker_pool.h"
#include "objstore/property_cache.h"
#include "vql/interpreter.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace exec {
namespace {

class ExecSharedScanTest : public ::testing::Test {
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
    exec_ctx_ = ExecContext{&db_.catalog(), &db_.store(), &db_.methods()};
    session_ = std::make_unique<engine::Database>(
        &db_.catalog(), &db_.store(), &db_.methods());
    paragraph_class_ =
        db_.catalog().FindClass("Paragraph")->class_id();
  }

  /// One member of a query batch: its plan plus the reference whose
  /// column is the query result (algebra::ResultRef of the bound query).
  struct BatchQuery {
    algebra::LogicalRef plan;
    std::string result_ref;
  };

  BatchQuery MakeQuery(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    auto plan = algebra::TranslateQuery(*ctx_, bound.value());
    EXPECT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    return {plan.value(), algebra::ResultRef(bound.value())};
  }

  /// Drains `queries` as one batch the way Database::Submit does: one
  /// task per query on a `lanes`-lane pool, each through
  /// Database::DrainRead with threads = 1 and vm = kOff. With `shared`
  /// every member attaches to one SharedScanManager whose ring morsels
  /// hold `morsel_size` rows; without it each drains private cursors.
  /// results[i] belongs to queries[i]; every member must succeed.
  std::vector<Value> DrainBatch(const std::vector<BatchQuery>& queries,
                                size_t lanes, size_t morsel_size,
                                bool shared) {
    SharedScanManager manager(&db_.store(), morsel_size);
    ExecContext ctx = exec_ctx_;
    if (shared) {
      ctx.shared_scans = &manager;
      ctx.property_cache = manager.property_cache();
    }
    const engine::RunOptions run;
    std::vector<Value> results(queries.size());
    std::vector<Status> status(queries.size());
    WorkerPool pool(std::min(lanes, queries.size()));
    pool.ParallelRun(queries.size(), [&](size_t q) {
      engine::QueryStats stats;
      status[q] = session_->DrainRead(queries[q].plan, queries[q].result_ref,
                                      ctx, run, &results[q], &stats);
    });
    for (const Status& st : status) EXPECT_TRUE(st.ok()) << st.ToString();
    return results;
  }

  /// The independent oracle: the row-mode interpreter (no batched
  /// evaluation, no shared scans, no property cache).
  Value RowModeOracle(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << text;
    vql::Interpreter interpreter(&db_.catalog(), &db_.store(),
                                 &db_.methods());
    vql::Interpreter::Options row_mode;
    row_mode.row_mode = true;
    auto result = interpreter.Run(bound.value(), row_mode);
    EXPECT_TRUE(result.ok()) << text << ": "
                             << result.status().ToString();
    return result.ok() ? result.value() : Value::Null();
  }

  /// Runs `texts` concurrently in both pipeline modes and checks every
  /// query against the row-mode oracle and the private-scan baseline.
  void CheckConcurrent(const std::vector<std::string>& texts,
                       size_t threads, size_t morsel_size) {
    std::vector<BatchQuery> queries;
    queries.reserve(texts.size());
    for (const std::string& text : texts) {
      queries.push_back(MakeQuery(text));
    }
    const std::vector<Value> shared_results =
        DrainBatch(queries, threads, morsel_size, /*shared=*/true);
    const std::vector<Value> private_results =
        DrainBatch(queries, threads, morsel_size, /*shared=*/false);
    for (size_t i = 0; i < texts.size(); ++i) {
      Value oracle = RowModeOracle(texts[i]);
      EXPECT_EQ(oracle, shared_results[i])
          << texts[i] << " (shared scan, K=" << texts.size()
          << ", threads=" << threads << ")";
      EXPECT_EQ(oracle, private_results[i])
          << texts[i] << " (private baseline, K=" << texts.size() << ")";
    }
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  ExecContext exec_ctx_;
  std::unique_ptr<engine::Database> session_;
  uint32_t paragraph_class_ = 0;
};

// ----------------------------------------------------- fan-out protocol

TEST_F(ExecSharedScanTest, EveryConsumerSeesEveryMorselExactlyOnce) {
  // 54 paragraphs at morsel size 8 -> 7 morsels (the last one short).
  SharedScanManager manager(&db_.store(), /*morsel_size=*/8);
  auto c1 = manager.AttachExtent(paragraph_class_);
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  const size_t total = c1.value().scan().total();
  ASSERT_EQ(total, 54u);
  ASSERT_EQ(c1.value().scan().morsel_count(), 7u);

  auto coverage_of = [&](std::vector<Morsel> claims) {
    std::vector<int> covered(total, 0);
    for (const Morsel& m : claims) {
      for (size_t i = m.begin; i < m.end; ++i) ++covered[i];
    }
    return covered;
  };

  // c1 claims two morsels, then c2 attaches late: it must start at the
  // scan's current position (the ring clock) and circle back for the
  // prefix it missed.
  std::vector<Morsel> c1_claims;
  Morsel m;
  ASSERT_TRUE(c1.value().Next(&m));
  c1_claims.push_back(m);
  ASSERT_TRUE(c1.value().Next(&m));
  c1_claims.push_back(m);
  EXPECT_EQ(c1_claims[0].begin, 0u);
  EXPECT_EQ(c1_claims[1].begin, 8u);

  auto c2 = manager.AttachExtent(paragraph_class_);
  ASSERT_TRUE(c2.ok());
  std::vector<Morsel> c2_claims;
  ASSERT_TRUE(c2.value().Next(&m));
  c2_claims.push_back(m);
  EXPECT_EQ(m.begin, 16u) << "late attacher must join mid-scan, not at 0";

  while (c1.value().Next(&m)) c1_claims.push_back(m);
  while (c2.value().Next(&m)) c2_claims.push_back(m);
  for (int c : coverage_of(c1_claims)) EXPECT_EQ(c, 1);
  for (int c : coverage_of(c2_claims)) EXPECT_EQ(c, 1);
  // Drained consumers stay drained.
  EXPECT_FALSE(c1.value().Next(&m));
}

TEST_F(ExecSharedScanTest, ExtentMaterializesOncePerManager) {
  db_.ResetCounters();
  SharedScanManager manager(&db_.store());
  ASSERT_TRUE(manager.AttachExtent(paragraph_class_).ok());
  ASSERT_TRUE(manager.AttachExtent(paragraph_class_).ok());
  auto extent = manager.SharedExtent(paragraph_class_);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value()->size(), 54u);
  EXPECT_EQ(db_.store().stats().extent_scans.load(), 1u);
  EXPECT_EQ(manager.materialized_scans(), 1u);
}

TEST_F(ExecSharedScanTest, SourceMaterializesOncePerManager) {
  SharedScanManager manager(&db_.store(), /*morsel_size=*/4);
  std::atomic<int> evals{0};
  auto materialize = [&]() -> Result<Value> {
    evals.fetch_add(1);
    return Value::Set({Value::Int(1), Value::Int(2), Value::Int(3),
                       Value::Int(4), Value::Int(5)});
  };
  auto c1 = manager.AttachSource("five-ints", materialize);
  auto c2 = manager.AttachSource("five-ints", materialize);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(evals.load(), 1);
  for (auto* c : {&c1.value(), &c2.value()}) {
    std::vector<int> covered(5, 0);
    Morsel m;
    while (c->Next(&m)) {
      for (size_t i = m.begin; i < m.end; ++i) ++covered[i];
    }
    for (int cov : covered) EXPECT_EQ(cov, 1);
  }
}

// ------------------------------------------------ property-column cache

TEST_F(ExecSharedScanTest, PropertyCacheFillsOnceThenServesFromSnapshot) {
  const ClassDef* cls = db_.catalog().FindClass("Paragraph");
  const PropertyDef* number = cls->FindProperty("number");
  ASSERT_NE(number, nullptr);
  auto extent = db_.store().Extent(paragraph_class_);
  ASSERT_TRUE(extent.ok());
  std::vector<uint32_t> locals;
  for (const Oid& oid : extent.value()) locals.push_back(oid.local);

  db_.ResetCounters();
  PropertyColumnCache cache(&db_.store());
  cache.SeedExtent(paragraph_class_, kEpochLatest,
                   std::make_shared<const std::vector<Oid>>(extent.value()));
  std::vector<Value> first;
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, locals, 0,
                               locals.size(), &first)
                  .ok());
  std::vector<Value> second;
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, locals, 0,
                               locals.size(), &second)
                  .ok());
  // One full-column store read serves both passes.
  EXPECT_EQ(db_.store().stats().property_reads.load(), locals.size());
  EXPECT_EQ(cache.fill_count(), 1u);
  EXPECT_EQ(cache.hit_rows(), 2 * locals.size());
  ASSERT_EQ(first.size(), locals.size());
  for (size_t i = 0; i < locals.size(); ++i) {
    auto direct = db_.store().GetProperty(extent.value()[i], number->slot);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(first[i], direct.value()) << "row " << i;
    EXPECT_EQ(second[i], direct.value()) << "row " << i;
  }
}

TEST_F(ExecSharedScanTest, PropertyCacheFallsBackOutsideTheSnapshot) {
  const PropertyDef* number =
      db_.catalog().FindClass("Paragraph")->FindProperty("number");
  PropertyColumnCache cache(&db_.store());
  auto extent = db_.store().Extent(paragraph_class_);
  ASSERT_TRUE(extent.ok());
  std::vector<uint32_t> all_locals;
  for (const Oid& oid : extent.value()) all_locals.push_back(oid.local);
  cache.SeedExtent(
      paragraph_class_, kEpochLatest,
      std::make_shared<const std::vector<Oid>>(extent.value()));
  std::vector<uint32_t> warm = {all_locals.front()};
  std::vector<Value> out;
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, warm, 0, 1,
                               &out)
                  .ok());
  // An object created after the fill is outside the snapshot: the
  // cache must read through, not hand back stale absence.
  auto fresh = db_.store().CreateObject(paragraph_class_);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(db_.store()
                  .SetProperty(fresh.value(), number->slot, Value::Int(77))
                  .ok());
  std::vector<uint32_t> cold = {fresh.value().local};
  out.clear();
  ASSERT_TRUE(cache.ReadColumn(paragraph_class_, number->slot, cold, 0, 1,
                               &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Value::Int(77));
  EXPECT_GE(cache.fallback_rows(), 1u);
}

TEST_F(ExecSharedScanTest, PropertyCacheReadsThroughForUnseededClasses) {
  // A class the shared scan never materialized (no SeedExtent) must
  // not be cached: a full-column fill would cost an extent pass plus
  // an extent-sized read the private baseline never pays. The read
  // goes straight to the store instead.
  const PropertyDef* number =
      db_.catalog().FindClass("Section")->FindProperty("number");
  const uint32_t section_class =
      db_.catalog().FindClass("Section")->class_id();
  auto extent = db_.store().Extent(section_class);
  ASSERT_TRUE(extent.ok());
  std::vector<uint32_t> one = {extent.value().front().local};

  PropertyColumnCache cache(&db_.store());
  db_.ResetCounters();
  std::vector<Value> out;
  ASSERT_TRUE(
      cache.ReadColumn(section_class, number->slot, one, 0, 1, &out).ok());
  EXPECT_EQ(db_.store().stats().property_reads.load(), 1u);
  EXPECT_EQ(db_.store().stats().extent_scans.load(), 0u);
  EXPECT_EQ(cache.fill_count(), 0u);
  EXPECT_EQ(cache.fallback_rows(), 1u);
}

// -------------------------------------------- concurrent query parity

TEST_F(ExecSharedScanTest, ConcurrentQueriesMatchOracleAndBaseline) {
  // Mixed shapes: stored-property filters, method predicates, a hash
  // join across two extents, flatten + dependent range, projects.
  const std::vector<std::string> pool = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
      "ACCESS p FROM s IN Section, p IN Paragraph WHERE p.section == s",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      "ACCESS d.title FROM d IN Document",
      "ACCESS p FROM p IN Paragraph, q IN Paragraph WHERE "
      "p->sameDocument(q) AND p.number == 0 AND q.number > 0",
  };
  for (size_t k : {1u, 2u, 8u}) {
    std::vector<std::string> texts;
    for (size_t i = 0; i < k; ++i) texts.push_back(pool[i % pool.size()]);
    SCOPED_TRACE("K=" + std::to_string(k));
    CheckConcurrent(texts, /*threads=*/4, /*morsel_size=*/8);
  }
}

TEST_F(ExecSharedScanTest, SingleLaneBatchIsTheLateAttachCase) {
  // threads=1 serializes the K drains on the caller lane: query i+1
  // attaches only after query i fully drained the ring, so every
  // consumer past the first is a late attacher that wraps the whole
  // ring. Results and the single scan pass must be unaffected.
  const std::vector<std::string> texts(
      4, "ACCESS p FROM p IN Paragraph WHERE p.number >= 1");
  db_.ResetCounters();
  std::vector<BatchQuery> queries;
  for (const std::string& text : texts) queries.push_back(MakeQuery(text));
  const std::vector<Value> results = DrainBatch(
      queries, /*lanes=*/1, /*morsel_size=*/8, /*shared=*/true);
  EXPECT_EQ(db_.store().stats().extent_scans.load(), 1u);
  Value oracle = RowModeOracle(texts[0]);
  for (const Value& result : results) EXPECT_EQ(oracle, result);
}

TEST_F(ExecSharedScanTest, SharingDropsScanAndPropertyReadsToOnePass) {
  // Eight property-predicate queries over the same extent: the shared
  // batch must pay ONE extent pass and ONE p.number column read where
  // the independent baseline pays eight of each.
  const std::vector<std::string> texts = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
      "ACCESS p FROM p IN Paragraph WHERE p.number <= 2",
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 2",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 1",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 2",
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS p FROM p IN Paragraph WHERE p.number > 0",
  };
  std::vector<BatchQuery> queries;
  for (const std::string& text : texts) queries.push_back(MakeQuery(text));
  const uint64_t extent_size = 54;

  db_.ResetCounters();
  const std::vector<Value> shared_results = DrainBatch(
      queries, /*lanes=*/4, /*morsel_size=*/8, /*shared=*/true);
  const uint64_t shared_scans = db_.store().stats().extent_scans.load();
  const uint64_t shared_reads = db_.store().stats().property_reads.load();

  db_.ResetCounters();
  const std::vector<Value> private_results = DrainBatch(
      queries, /*lanes=*/4, /*morsel_size=*/8, /*shared=*/false);
  const uint64_t private_scans = db_.store().stats().extent_scans.load();
  const uint64_t private_reads = db_.store().stats().property_reads.load();

  EXPECT_EQ(shared_scans, 1u);
  EXPECT_EQ(private_scans, texts.size());
  EXPECT_EQ(shared_reads, extent_size);
  EXPECT_EQ(private_reads, texts.size() * extent_size);
  // The shared-scan gate: fewer extent passes than private cursors,
  // and at most half their property reads.
  EXPECT_LT(shared_scans, private_scans);
  EXPECT_LE(shared_reads * 2, private_reads);
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(shared_results[i], private_results[i]) << texts[i];
  }
}

TEST_F(ExecSharedScanTest, MethodScanMaterializesOnceForTheBatch) {
  // Four queries whose driving leaf is the same external method scan:
  // shared mode must dispatch retrieve_by_string once for the batch.
  auto source = ctx_->ExprSource(
      "p",
      vql::ParseExpr("Paragraph->retrieve_by_string('implementation')")
          .value());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  const std::vector<BatchQuery> queries(4, {source.value(), "p"});

  db_.ResetCounters();
  const std::vector<Value> shared_results = DrainBatch(
      queries, /*lanes=*/4, /*morsel_size=*/4, /*shared=*/true);
  EXPECT_EQ(db_.methods().invocation_count("Paragraph",
                                           "retrieve_by_string",
                                           MethodLevel::kClassObject),
            1u);

  db_.ResetCounters();
  const std::vector<Value> private_results = DrainBatch(
      queries, /*lanes=*/4, /*morsel_size=*/4, /*shared=*/false);
  EXPECT_EQ(db_.methods().invocation_count("Paragraph",
                                           "retrieve_by_string",
                                           MethodLevel::kClassObject),
            4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(shared_results[i], private_results[i]);
  }
}

// ------------------------------------------------ engine + interpreter

TEST_F(ExecSharedScanTest, EngineSubmitBatchMatchesRunAndNaive) {
  engine::Database session(&db_.catalog(), &db_.store(), &db_.methods());
  const std::vector<std::string> texts = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS d.title FROM d IN Document",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
  };
  std::vector<engine::QueryRequest> requests(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    requests[i].vql = texts[i];
    requests[i].plan.optimize = false;
  }
  engine::SubmitOptions options;
  options.lanes = 4;
  auto batch = session.Submit(requests, options);
  ASSERT_EQ(batch.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(batch[i].status.ok()) << batch[i].status.ToString();
    auto alone = session.Run(texts[i], requests[i].plan);
    ASSERT_TRUE(alone.ok()) << texts[i];
    EXPECT_EQ(alone.value().result, batch[i].result.result) << texts[i];
    auto naive = session.RunNaive(texts[i]);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(naive.value(), batch[i].result.result) << texts[i];
  }

  // The baseline flag runs the same batch over private cursors.
  options.shared_scan = false;
  auto baseline = session.Submit(requests, options);
  ASSERT_EQ(baseline.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(baseline[i].status.ok());
    EXPECT_EQ(batch[i].result.result, baseline[i].result.result);
  }

  // An empty batch is a no-op, not a pool spawn.
  EXPECT_TRUE(session.Submit({}, options).empty());
}

// ------------------------------------------------- thread resolution

TEST(ResolveThreadsTest, ZeroResolvesThroughTheSingleHelper) {
  // The one shared convention (bugfix: no per-call-site
  // hardware_concurrency guards): 0 -> hardware concurrency, itself
  // guarded to at least 1, everywhere — including the pool itself.
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(3), 3u);
  WorkerPool pool(0);
  EXPECT_EQ(pool.parallelism(), ResolveThreads(0));
}

}  // namespace
}  // namespace exec
}  // namespace vodak
