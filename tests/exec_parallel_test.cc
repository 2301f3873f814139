// The concurrency primitives that outlive intra-query morsel
// execution: the worker pool (Submit batches and the query service's
// generations run their lanes on it), the ResolveThreads(0)
// convention, the morsel source behind the interpreter's parallel
// outer loop, and that loop's agreement with the interpreter's serial
// and row-mode paths. The operator tree itself always drains one query
// on one thread; its oracle parity is in exec_batch_test and
// exec_diff_test.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/morsel_source.h"
#include "exec/worker_pool.h"
#include "vql/binder.h"
#include "vql/interpreter.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace exec {
namespace {

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

// ------------------------------------------------------- interpreter

TEST(ExecParallelTest, InterpreterParallelAndRowModeAgree) {
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
