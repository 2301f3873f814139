// The concurrency primitives that outlive intra-query morsel
// execution: the worker pool (Submit batches and the query service's
// generations run their lanes on it) and the ResolveThreads(0)
// convention. The operator tree itself always drains one query on one
// thread; its oracle parity is in exec_batch_test and exec_diff_test.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/worker_pool.h"

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

}  // namespace
}  // namespace exec
}  // namespace vodak
