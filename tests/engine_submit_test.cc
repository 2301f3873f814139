// Tests of the PR 7 query API: Database::Submit as the one execution
// entry point — per-query outcomes, honest per-query stats, and
// cancellation / deadline propagation into a concurrent batch whose
// siblings must drain unaffected, and multi-read batches of mixed
// shapes against the row-mode oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "exec/cancellation.h"
#include "vql/interpreter.h"
#include "workload/document_db.h"

namespace vodak {
namespace engine {
namespace {

class EngineSubmitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 12;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    ASSERT_TRUE(db_.Populate(params).ok());
    session_ = std::make_unique<Database>(&db_.catalog(), &db_.store(),
                                          &db_.methods());
  }

  /// The row-mode interpreter: the fully independent oracle.
  Value Oracle(const std::string& vql) {
    auto result = session_->RunNaive(vql);
    EXPECT_TRUE(result.ok()) << vql << ": " << result.status().ToString();
    return result.ok() ? result.value() : Value();
  }

  QueryRequest Plain(const std::string& vql) {
    QueryRequest req;
    req.vql = vql;
    req.plan.optimize = false;
    return req;
  }

  workload::DocumentDb db_;
  std::unique_ptr<Database> session_;
};

const char* kQueries[] = {
    "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
    "ACCESS p.number FROM p IN Paragraph",
    "ACCESS d.title FROM d IN Document",
    "ACCESS s FROM s IN Section WHERE s.number == 1",
};

TEST_F(EngineSubmitTest, SubmitMatchesRunAndOracle) {
  std::vector<QueryRequest> requests;
  for (const char* q : kQueries) requests.push_back(Plain(q));
  SubmitOptions options;
  options.lanes = 4;
  auto outcomes = session_->Submit(requests, options);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok())
        << kQueries[i] << ": " << outcomes[i].status.ToString();
    EXPECT_EQ(outcomes[i].result.result, Oracle(kQueries[i]))
        << kQueries[i];
    auto alone = session_->Run(kQueries[i], {/*optimize=*/false});
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(alone.value().result, outcomes[i].result.result);
  }
}

TEST_F(EngineSubmitTest, StatsArePerQuery) {
  std::vector<QueryRequest> requests;
  for (const char* q : kQueries) requests.push_back(Plain(q));
  SubmitOptions options;
  options.lanes = 2;
  auto outcomes = session_->Submit(requests, options);
  ASSERT_EQ(outcomes.size(), requests.size());
  const uint64_t generation = outcomes[0].stats.generation_id;
  EXPECT_GT(generation, 0u);
  for (const QueryOutcome& o : outcomes) {
    ASSERT_TRUE(o.status.ok());
    // The old concurrent path reported the whole batch's wall time as
    // every member's execute_ms; the honest number is the member's own
    // drain time.
    EXPECT_EQ(o.result.execute_ms, o.stats.drain_ms);
    EXPECT_GT(o.stats.drain_ms, 0.0);
    EXPECT_GE(o.stats.queue_ms, 0.0);
    EXPECT_GT(o.stats.plan_ms, 0.0);
    // One Submit batch = one generation.
    EXPECT_EQ(o.stats.generation_id, generation);
  }

  // A second batch gets a strictly newer generation id.
  auto again = session_->Submit(requests, options);
  ASSERT_TRUE(again[0].status.ok());
  EXPECT_GT(again[0].stats.generation_id, generation);
}

TEST_F(EngineSubmitTest, BatchMemberExplainShowsTheTreeThatRan) {
  // A batch member's EXPLAIN renders the operator tree it drained: the
  // same private-leaf tree the query drains when it runs alone.
  std::vector<QueryRequest> requests;
  for (const char* q : kQueries) requests.push_back(Plain(q));
  SubmitOptions options;
  options.lanes = 2;
  const std::vector<QueryOutcome> batch = session_->Submit(requests, options);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].status.ok()) << batch[i].status.ToString();
    auto alone = session_->Run(kQueries[i], {/*optimize=*/false});
    ASSERT_TRUE(alone.ok());
    const std::string& explain = batch[i].result.physical_explain;
    EXPECT_NE(explain.find("[source: "), std::string::npos) << explain;
    EXPECT_EQ(explain, alone.value().physical_explain) << kQueries[i];
  }
}

TEST_F(EngineSubmitTest, ThreadsKnobDrainsTheSameSerialTree) {
  // RunOptions::threads is ignored: a lone read submitted with
  // threads = 4 returns the oracle's answer and renders exactly the
  // EXPLAIN of its threads = 1 drain.
  for (const char* q : kQueries) {
    QueryRequest four = Plain(q);
    four.run.threads = 4;
    const std::vector<QueryOutcome> got = session_->Submit({four});
    ASSERT_TRUE(got[0].status.ok()) << q << ": " << got[0].status.ToString();
    EXPECT_EQ(got[0].result.result, Oracle(q)) << q;
    const std::vector<QueryOutcome> one = session_->Submit({Plain(q)});
    ASSERT_TRUE(one[0].status.ok()) << q << ": " << one[0].status.ToString();
    EXPECT_EQ(got[0].result.physical_explain, one[0].result.physical_explain)
        << q;
  }
}

TEST_F(EngineSubmitTest, RangeCompareReadsItsPropertyOncePerRow) {
  // `p.number >= 1 AND p.number <= 1` builds one Filter that reads
  // p.number once per scanned row and applies both compares to that
  // column; one Filter per compare would read it again for every row
  // the first compare kept. Checked for the plain translation (one
  // select over an AND) and the optimized plan (stacked selects), both
  // as a lone read and as a member of a two-query batch whose sibling
  // reads no property.
  const std::string query =
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1 AND p.number <= 1";
  const uint64_t paragraphs = 12u * 2u * 3u;
  const Value expect = Oracle(query);
  ASSERT_EQ(expect.AsSet().size(), 12u * 2u);
  ASSERT_TRUE(session_->GenerateOptimizer().ok());
  const auto& reads = db_.store().stats().property_reads;
  for (bool optimize : {false, true}) {
    QueryRequest request = Plain(query);
    request.plan.optimize = optimize;

    db_.ResetCounters();
    auto alone = session_->Submit({request});
    ASSERT_TRUE(alone[0].status.ok()) << alone[0].status.ToString();
    EXPECT_EQ(alone[0].result.result, expect);
    EXPECT_EQ(reads.load(std::memory_order_relaxed), paragraphs)
        << "lone read, optimize=" << optimize << "\n"
        << alone[0].result.physical_explain;
    EXPECT_NE(alone[0].result.physical_explain.find(
                  "[reads once: p.number]"),
              std::string::npos)
        << alone[0].result.physical_explain;

    SubmitOptions two_lanes;
    two_lanes.lanes = 2;
    db_.ResetCounters();
    auto batch = session_->Submit(
        {request, Plain("ACCESS d FROM d IN Document")}, two_lanes);
    ASSERT_TRUE(batch[0].status.ok()) << batch[0].status.ToString();
    ASSERT_TRUE(batch[1].status.ok()) << batch[1].status.ToString();
    EXPECT_EQ(batch[0].result.result, expect);
    EXPECT_EQ(reads.load(std::memory_order_relaxed), paragraphs)
        << "batch member, optimize=" << optimize << "\n"
        << batch[0].result.physical_explain;
  }
}

TEST_F(EngineSubmitTest, MixedBatchesMatchTheOracle) {
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
  SubmitOptions options;
  options.lanes = 4;
  for (size_t k : {1u, 2u, 8u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    std::vector<QueryRequest> requests;
    for (size_t i = 0; i < k; ++i) {
      requests.push_back(Plain(pool[i % pool.size()]));
    }
    auto outcomes = session_->Submit(requests, options);
    ASSERT_EQ(outcomes.size(), k);
    for (size_t i = 0; i < k; ++i) {
      ASSERT_TRUE(outcomes[i].status.ok())
          << requests[i].vql << ": " << outcomes[i].status.ToString();
      EXPECT_EQ(outcomes[i].result.result, Oracle(requests[i].vql))
          << requests[i].vql;
    }
  }
}

TEST_F(EngineSubmitTest, OneLaneMultiReadBatchAgreesWithTheOracle) {
  // One lane serializes the members on the caller: each drains after
  // the previous one finished, over its own scan leaves.
  const std::string query =
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1";
  std::vector<QueryRequest> requests(4, Plain(query));
  SubmitOptions options;
  options.lanes = 1;
  const Value oracle = Oracle(query);
  for (const QueryOutcome& o : session_->Submit(requests, options)) {
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    EXPECT_EQ(o.result.result, oracle);
  }
}

TEST_F(EngineSubmitTest, SubmitBatchMatchesRunAndNaive) {
  const std::vector<std::string> texts = {
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS d.title FROM d IN Document",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
  };
  std::vector<QueryRequest> requests;
  for (const std::string& text : texts) requests.push_back(Plain(text));
  SubmitOptions options;
  options.lanes = 4;
  auto batch = session_->Submit(requests, options);
  ASSERT_EQ(batch.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(batch[i].status.ok()) << batch[i].status.ToString();
    auto alone = session_->Run(texts[i], requests[i].plan);
    ASSERT_TRUE(alone.ok()) << texts[i];
    EXPECT_EQ(alone.value().result, batch[i].result.result) << texts[i];
    auto naive = session_->RunNaive(texts[i]);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(naive.value(), batch[i].result.result) << texts[i];
  }

  // An empty batch is a no-op, not a pool spawn.
  EXPECT_TRUE(session_->Submit({}, options).empty());
}

TEST_F(EngineSubmitTest, CancelBeforeSubmitRejectsOnlyThatMember) {
  exec::CancellationToken cancelled;
  cancelled.Cancel();
  std::vector<QueryRequest> requests;
  for (const char* q : kQueries) requests.push_back(Plain(q));
  requests[1].cancel = &cancelled;
  SubmitOptions options;
  options.lanes = 4;
  auto outcomes = session_->Submit(requests, options);
  ASSERT_EQ(outcomes.size(), requests.size());
  EXPECT_EQ(outcomes[1].status.code(), StatusCode::kCancelled);
  // Rejected before planning, let alone a drain.
  EXPECT_EQ(outcomes[1].stats.generation_id, 0u);
  EXPECT_EQ(outcomes[1].stats.drain_ms, 0.0);
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    ASSERT_TRUE(outcomes[i].status.ok()) << kQueries[i];
    EXPECT_EQ(outcomes[i].result.result, Oracle(kQueries[i]));
  }
}

TEST_F(EngineSubmitTest, ExpiredDeadlineRejectedAtAdmission) {
  std::vector<QueryRequest> requests;
  for (const char* q : kQueries) requests.push_back(Plain(q));
  requests[2].deadline = exec::Deadline::After(-1.0);
  SubmitOptions options;
  options.lanes = 4;
  auto outcomes = session_->Submit(requests, options);
  EXPECT_EQ(outcomes[2].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcomes[2].stats.generation_id, 0u);
  for (size_t i : {size_t{0}, size_t{1}, size_t{3}}) {
    ASSERT_TRUE(outcomes[i].status.ok()) << kQueries[i];
    EXPECT_EQ(outcomes[i].result.result, Oracle(kQueries[i]));
  }
}

TEST_F(EngineSubmitTest, CancelMidDrainStopsAtABatchBoundary) {
  // Deterministic mid-drain cancellation at the exec level: build the
  // physical plan with a cancel token in the context, pull one batch,
  // trip the token, and the next pull must fail kCancelled.
  auto prepared =
      session_->Prepare("ACCESS p.number FROM p IN Paragraph",
                        {/*optimize=*/false});
  ASSERT_TRUE(prepared.ok());
  exec::CancellationToken token;
  exec::ExecContext ctx;
  ctx.catalog = &db_.catalog();
  ctx.store = &db_.store();
  ctx.methods = &db_.methods();
  ctx.cancel = &token;
  auto root =
      exec::BuildPhysical(prepared.value().planned.chosen_plan, ctx);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root.value()->Open().ok());
  exec::RowBatch batch;
  auto first = root.value()->NextBatch(&batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  token.Cancel();
  auto second = root.value()->NextBatch(&batch);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kCancelled);
  root.value()->Close();
}

TEST_F(EngineSubmitTest, CancelMidGenerationLeavesSiblingsExactlyOnce) {
  // Trip a member's token from another thread while the batch drains.
  // Whatever point the cancel lands at (queued, mid-drain, or already
  // finished), the siblings' results must stay correct — every row
  // delivered exactly once.
  for (int round = 0; round < 8; ++round) {
    exec::CancellationToken token;
    std::vector<QueryRequest> requests;
    for (const char* q : kQueries) requests.push_back(Plain(q));
    requests[0].cancel = &token;
    SubmitOptions options;
    options.lanes = 2;
    std::atomic<bool> go{false};
    std::thread canceller([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      token.Cancel();
    });
    go.store(true, std::memory_order_release);
    auto outcomes = session_->Submit(requests, options);
    canceller.join();
    ASSERT_EQ(outcomes.size(), requests.size());
    // The racing member either finished or was cancelled — both legal.
    EXPECT_TRUE(outcomes[0].status.ok() ||
                outcomes[0].status.code() == StatusCode::kCancelled)
        << outcomes[0].status.ToString();
    if (outcomes[0].status.ok()) {
      EXPECT_EQ(outcomes[0].result.result, Oracle(kQueries[0]));
    }
    for (size_t i = 1; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].status.ok()) << kQueries[i];
      EXPECT_EQ(outcomes[i].result.result, Oracle(kQueries[i]))
          << "sibling " << kQueries[i] << " corrupted in round " << round;
    }
  }
}

TEST_F(EngineSubmitTest, ConcurrentSubmitAndCancelUnderTsan) {
  // Hammer Submit from two threads while a third trips tokens: the
  // sanitizer sweep target (tsan leg of ci.sh). Correctness of the
  // non-cancelled members is asserted against the oracle.
  const Value expect0 = Oracle(kQueries[0]);
  const Value expect1 = Oracle(kQueries[1]);
  std::atomic<bool> stop{false};
  exec::CancellationToken tokens[2];
  std::thread canceller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      tokens[0].Cancel();
      std::this_thread::yield();
    }
  });
  auto submitter = [&](int which, const Value& expect) {
    for (int i = 0; i < 6; ++i) {
      std::vector<QueryRequest> requests;
      requests.push_back(Plain(kQueries[which]));
      requests.push_back(Plain(kQueries[2]));
      if (which == 0) requests[0].cancel = &tokens[0];
      auto outcomes = session_->Submit(requests);
      if (outcomes[0].status.ok() && which != 0) {
        EXPECT_EQ(outcomes[0].result.result, expect);
      }
    }
  };
  // Submit itself serializes planning and pool use per session; two
  // sessions over the same store exercise the concurrent-store paths.
  Database other(&db_.catalog(), &db_.store(), &db_.methods());
  std::thread t1([&] { submitter(0, expect0); });
  for (int i = 0; i < 6; ++i) {
    std::vector<QueryRequest> requests;
    requests.push_back(Plain(kQueries[1]));
    auto outcomes = other.Submit(requests);
    ASSERT_TRUE(outcomes[0].status.ok());
    EXPECT_EQ(outcomes[0].result.result, expect1);
  }
  t1.join();
  stop.store(true, std::memory_order_release);
  canceller.join();
}

}  // namespace
}  // namespace engine
}  // namespace vodak
