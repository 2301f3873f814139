// The operator tree's differential proof (in the PAPERS.md "Provably
// Correct Systems" spirit): a seeded randomized VQL corpus
// (tests/query_gen.h) driven through the operator tree and the
// row-mode oracle interpreter, which must agree exactly on every
// query. A second phase repeats the differential under concurrent
// Submit writer batches: every tree read records its pinned epoch and
// is replayed post-hoc through the oracle *at that epoch*, so a tree
// that ever read across a snapshot boundary cannot pass. Runs under
// TSan in CI (`scripts/ci.sh --mvcc`) with seeds 1/2/3 plus one
// time-derived seed; any failure prints the query text and the seed
// for exact replay (--seed=N / VODAK_TEST_SEED=N).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "objstore/object_store.h"
#include "schema/catalog.h"
#include "vql/interpreter.h"

#include "query_gen.h"
#include "test_seed.h"

namespace vodak {
namespace {

constexpr int kInitialObjects = 200;
constexpr int kDiffQueries = 1000;
/// Phase 1's floor on queries whose Filter reads a shared operand once
/// (an AND of two or more compares on one property): a tenth of the
/// corpus. Seeds 1-8 give 18-22%.
constexpr int kMinReadsOnce = kDiffQueries / 10;
constexpr int kBuckets = 4;
constexpr int kWriterRounds = 40;
constexpr int kReaders = 3;
constexpr int kReaderIters = 25;

/// One tree read under concurrent writes: enough to replay it at the
/// exact snapshot it pinned.
struct ReadRecord {
  int reader = 0;
  int iter = 0;
  std::string query;
  Epoch epoch = kEpochLatest;
  Value result;
};

class ExecDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cls = catalog_.DefineClass("Item");
    ASSERT_TRUE(cls.ok());
    ASSERT_TRUE(cls.value()->AddProperty("v1", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("v2", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("v3", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("bucket", Type::Int()).ok());
    class_id_ = cls.value()->class_id();
    ASSERT_EQ(store_.RegisterClass("Item", 4), class_id_);
    for (int i = 0; i < kInitialObjects; ++i) {
      auto oid = store_.CreateObject(class_id_);
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(store_.SetProperty(oid.value(), 0, Value::Int(i)).ok());
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 1, Value::Int(i % 7)).ok());
      // v3 is the NULL-heavy column: every third object leaves it
      // unset, so generated predicates routinely hit NIL compares.
      if (i % 3 != 0) {
        ASSERT_TRUE(
            store_.SetProperty(oid.value(), 2, Value::Int(i / 2)).ok());
      }
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 3, Value::Int(i % kBuckets))
              .ok());
    }
  }

  /// Runs one query through the operator tree and the row-mode oracle
  /// and fails (with query + seed) on any disagreement. Returns false
  /// on failure so fuzz loops can stop at the first diverging query;
  /// `*reads_once` is set when the tree's EXPLAIN shows a Filter
  /// reading a shared operand once.
  bool CheckTreeAgainstOracle(engine::Database* session,
                              const std::string& query, uint64_t seed,
                              bool* reads_once) {
    engine::PlanOptions no_opt;
    no_opt.optimize = false;

    auto tree = session->Run(query, no_opt);
    EXPECT_TRUE(tree.ok()) << "tree: " << tree.status().ToString()
                           << "\n  query: " << query
                           << "\n  seed: " << seed;
    if (!tree.ok()) return false;
    *reads_once = tree.value().physical_explain.find("[reads once: ") !=
                  std::string::npos;

    auto oracle = session->RunNaive(query);
    EXPECT_TRUE(oracle.ok()) << "oracle: " << oracle.status().ToString()
                             << "\n  query: " << query
                             << "\n  seed: " << seed;
    if (!oracle.ok()) return false;

    const bool agree = tree.value().result == oracle.value();
    EXPECT_TRUE(agree) << "tree diverged from the row-mode oracle"
                       << "\n  query: " << query << "\n  seed: " << seed
                       << "\n  tree:   " << tree.value().result.ToString()
                       << "\n  oracle: " << oracle.value().ToString();
    return agree;
  }

  Catalog catalog_;
  ObjectStore store_;
  MethodRegistry methods_;
  uint32_t class_id_ = 0;
};

// Phase 1: the static corpus — kDiffQueries generated queries, each
// executed through the operator tree and the row-mode oracle.
TEST_F(ExecDiffTest, TreeAgreesWithOracleOnGeneratedQueries) {
  const uint64_t seed = testing::TestSeed();
  engine::Database session(&catalog_, &store_, &methods_);
  testing::QueryGenerator gen(seed);
  int reads_once = 0;
  for (int q = 0; q < kDiffQueries; ++q) {
    bool shared = false;
    if (!CheckTreeAgainstOracle(&session, gen.NextQuery(), seed, &shared)) {
      return;
    }
    reads_once += shared ? 1 : 0;
  }
  // The corpus must exercise the Filter's shared-operand path, or the
  // agreement above says nothing about it.
  EXPECT_GE(reads_once, kMinReadsOnce)
      << "too few generated queries built a Filter that reads a shared "
         "operand once; seed: "
      << seed;
}

// Phase 2: the same differential under concurrent Submit writer
// batches. Readers run queries on the operator tree and record the
// epoch each pinned; after the threads join, every record replays
// serially through the row-mode oracle at its recorded epoch and must
// match.
TEST_F(ExecDiffTest, TreeAgreesWithOracleUnderConcurrentWrites) {
  const uint64_t seed = testing::TestSeed() + 29;
  engine::Database writer_session(&catalog_, &store_, &methods_);

  std::vector<std::vector<ReadRecord>> records(kReaders);
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      std::mt19937_64 rng(seed);
      auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
      for (int round = 0; round < kWriterRounds; ++round) {
        engine::QueryRequest request;
        const int x = pick(100000);
        const int bucket = pick(kBuckets);
        switch (pick(3)) {
          case 0:
            request.vql = "UPDATE Item SET v1 = " + std::to_string(x) +
                          ", v3 = " + std::to_string(x) +
                          " WHERE self.bucket == " +
                          std::to_string(bucket);
            break;
          case 1:
            request.vql = "INSERT INTO Item SET v1 = " +
                          std::to_string(x) + ", v2 = " +
                          std::to_string(x % 7) + ", bucket = " +
                          std::to_string(bucket);
            break;
          default:
            // Partial delete: one residue class of one bucket, so the
            // extent churns without emptying.
            request.vql = "DELETE FROM Item WHERE self.bucket == " +
                          std::to_string(bucket) +
                          " AND self.v1 / 13 * 13 == self.v1";
            break;
        }
        auto outcomes = writer_session.Submit({request});
        ASSERT_TRUE(outcomes[0].status.ok())
            << outcomes[0].status.ToString();
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        engine::Database session(&catalog_, &store_, &methods_);
        testing::QueryGenerator gen(seed * 1315423911u + r + 1);
        engine::PlanOptions no_opt;
        no_opt.optimize = false;
        for (int iter = 0; iter < kReaderIters; ++iter) {
          const std::string query = gen.NextQuery();
          auto result = session.Run(query, no_opt);
          ASSERT_TRUE(result.ok())
              << result.status().ToString() << "\n  query: " << query
              << "\n  seed: " << seed;
          records[r].push_back({r, iter, query,
                                result.value().snapshot_epoch,
                                result.value().result});
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  // Serial oracle replay at each recorded epoch: the row-mode
  // interpreter shares no batching or selection-vector code.
  engine::Database oracle_session(&catalog_, &store_, &methods_);
  size_t replayed = 0;
  for (int r = 0; r < kReaders; ++r) {
    for (const ReadRecord& record : records[r]) {
      vql::Interpreter::Options replay;
      replay.snapshot_epoch = record.epoch;
      auto oracle = oracle_session.RunNaive(record.query, replay);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      ++replayed;
      ASSERT_EQ(record.result, oracle.value())
          << "tree reader " << record.reader << " iter " << record.iter
          << " diverged from the oracle at epoch " << record.epoch
          << "\n  query: " << record.query << "\n  seed: " << seed;
    }
  }
  EXPECT_EQ(replayed, static_cast<size_t>(kReaders * kReaderIters));
}

}  // namespace
}  // namespace vodak

int main(int argc, char** argv) {
  return vodak::testing::RunAllTestsWithSeed(argc, argv,
                                             /*fallback=*/20260809);
}
