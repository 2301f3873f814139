// The paged-storage headline proof (docs/ARCHITECTURE.md §"Paged
// storage & segment skipping"): segment-backed scans must be
// result-invisible. A seeded randomized VQL corpus (tests/query_gen.h)
// runs through a session with the segment store attached — serial,
// morsel-parallel, shared-scan Submit batches and the forced bytecode
// VM — against a plain extent-backed session and the row-mode oracle
// interpreter; all must agree exactly, while the pruning counters
// prove zone maps actually skipped segments (an agreement with zero
// skips would prove nothing). A final phase repeats the differential
// under concurrent Submit writer batches: every committed write closes
// the touched class's open segment version, readers record their
// pinned epoch, and each read replays post-hoc through the oracle *at
// that epoch* — a segment path that ever served a stale version cannot
// pass. Runs under TSan in CI (`scripts/ci.sh --storage`) with seeds
// 1/2/3 plus one time-derived seed (--seed=N / VODAK_TEST_SEED=N
// replays exactly).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "objstore/object_store.h"
#include "schema/catalog.h"
#include "storage/segment_store.h"
#include "vql/interpreter.h"

#include "query_gen.h"
#include "test_seed.h"

namespace vodak {
namespace {

constexpr int kInitialObjects = 600;
constexpr uint32_t kRowsPerSegment = 64;  // ~10 segments over the corpus
constexpr int kDiffQueries = 300;
constexpr int kSharedBatches = 30;
constexpr int kSharedBatchSize = 4;
constexpr int kBuckets = 4;
constexpr int kWriterRounds = 30;
constexpr int kReaders = 3;
constexpr int kReaderIters = 20;

/// One segment-backed read under concurrent writes: enough to replay
/// it at the exact snapshot it pinned.
struct ReadRecord {
  int reader = 0;
  int iter = 0;
  std::string query;
  Epoch epoch = kEpochLatest;
  Value result;
};

class SegmentDiffTest : public ::testing::Test {
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
      // v3 is the NULL-heavy column: all-null stretches of the extent
      // become all-null zone maps in some segments.
      if (i % 3 != 0) {
        ASSERT_TRUE(
            store_.SetProperty(oid.value(), 2, Value::Int(i / 2)).ok());
      }
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 3, Value::Int(i % kBuckets))
              .ok());
    }

    storage::PagerOptions pager;
    pager.cache_pages = 16;  // far below the corpus: eviction is live
    auto segments = storage::SegmentStore::Open(
        ::testing::TempDir() + "vodak_segment_diff.pages", pager);
    ASSERT_TRUE(segments.ok()) << segments.status().ToString();
    segments_ = std::move(segments.value());
    ASSERT_TRUE(Ingest().ok());
  }

  /// (Re)ingests Item at the current epoch with the small per-test
  /// segment size, so pruning has segment boundaries to work with.
  Status Ingest() {
    storage::IngestOptions options;
    options.rows_per_segment = kRowsPerSegment;
    return segments_->IngestClass(store_, class_id_, 4,
                                  store_.CurrentEpoch(), options);
  }

  std::unique_ptr<engine::Database> SegmentSession() {
    auto session = std::make_unique<engine::Database>(&catalog_, &store_,
                                                      &methods_);
    session->AttachSegmentStore(segments_.get());
    return session;
  }

  /// Runs one query through the segment session (serial, parallel and
  /// forced-VM), the extent session and the row-mode oracle; fails
  /// (with query + seed) on any disagreement.
  bool CheckAllDrains(engine::Database* seg_session,
                      engine::Database* ext_session,
                      const std::string& query, uint64_t seed) {
    engine::PlanOptions no_opt;
    no_opt.optimize = false;

    vql::Interpreter::Options row;
    row.row_mode = true;
    auto oracle = seg_session->RunNaive(query, row);
    EXPECT_TRUE(oracle.ok()) << "oracle: " << oracle.status().ToString()
                             << "\n  query: " << query
                             << "\n  seed: " << seed;
    if (!oracle.ok()) return false;

    struct Drain {
      const char* name;
      engine::Database* session;
      engine::RunOptions run;
    };
    engine::RunOptions serial;
    serial.vm = engine::VmMode::kOff;
    engine::RunOptions parallel = serial;
    parallel.threads = 3;
    engine::RunOptions vm;
    vm.vm = engine::VmMode::kForce;
    const Drain drains[] = {
        {"segment-serial", seg_session, serial},
        {"segment-parallel", seg_session, parallel},
        {"segment-vm", seg_session, vm},
        {"extent-serial", ext_session, serial},
    };
    for (const Drain& d : drains) {
      auto got = d.session->Run(query, no_opt, d.run);
      EXPECT_TRUE(got.ok()) << d.name << ": " << got.status().ToString()
                            << "\n  query: " << query
                            << "\n  seed: " << seed;
      if (!got.ok()) return false;
      EXPECT_EQ(got.value().result, oracle.value())
          << d.name << " diverged from the row-mode oracle"
          << "\n  query: " << query << "\n  seed: " << seed
          << "\n  got:    " << got.value().result.ToString()
          << "\n  oracle: " << oracle.value().ToString();
      if (!(got.value().result == oracle.value())) return false;
    }
    return true;
  }

  Catalog catalog_;
  ObjectStore store_;
  MethodRegistry methods_;
  std::unique_ptr<storage::SegmentStore> segments_;
  uint32_t class_id_ = 0;
};

// The EXPLAIN drift guard: every BatchSource kind prints its uniform
// source annotation, and the segment-backed leaf reports its pruning
// arithmetic (scanned + skipped == segments in the version).
TEST_F(SegmentDiffTest, ExplainReportsSourceKindAndPruning) {
  auto seg_session = SegmentSession();
  engine::Database ext_session(&catalog_, &store_, &methods_);
  engine::PlanOptions no_opt;
  no_opt.optimize = false;
  engine::RunOptions tree;
  tree.vm = engine::VmMode::kOff;

  const std::string query = "ACCESS a FROM a IN Item WHERE a.v1 < 64";
  auto seg = seg_session->Run(query, no_opt, tree);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_NE(seg.value().physical_explain.find("[source: segment]"),
            std::string::npos)
      << seg.value().physical_explain;
  EXPECT_NE(seg.value().physical_explain.find("[segments: scanned "),
            std::string::npos)
      << seg.value().physical_explain;

  auto ext = ext_session.Run(query, no_opt, tree);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_NE(ext.value().physical_explain.find("[source: extent]"),
            std::string::npos)
      << ext.value().physical_explain;
}

// The cost model's survival-rate feedback counts each opened segment
// leaf once: a drain adds exactly its surviving and refuted segments,
// whichever backend ran it. Leaves that are built but never opened —
// the EXPLAIN skeleton beside a parallel or batch drain, the operator
// tree a compiled VM program replaced — add nothing.
TEST_F(SegmentDiffTest, PruningCountsOncePerOpenedLeaf) {
  auto seg_session = SegmentSession();
  const std::string query = "ACCESS a FROM a IN Item WHERE a.v1 < 64";
  const std::vector<storage::SlotPredicate> preds = {
      {/*slot=*/0, BinOp::kLt, Value::Int(64)}};
  storage::SegmentVersionRef version =
      segments_->VersionAt(class_id_, store_.CurrentEpoch());
  ASSERT_NE(version, nullptr);
  uint64_t survivors = 0;
  uint64_t refuted = 0;
  for (const storage::Segment& seg : version->segments) {
    ++(storage::SegmentRefuted(seg, preds) ? refuted : survivors);
  }
  ASSERT_GT(survivors, 0u);
  ASSERT_GT(refuted, 0u);

  engine::PlanOptions no_opt;
  no_opt.optimize = false;
  engine::RunOptions tree;
  tree.vm = engine::VmMode::kOff;
  engine::RunOptions vm;
  vm.vm = engine::VmMode::kForce;
  engine::RunOptions parallel = tree;
  parallel.threads = 3;
  storage::SegmentStoreStats* stats = segments_->mutable_stats();
  auto expect_counts = [&](const char* drain, uint64_t leaves) {
    EXPECT_EQ(stats->segments_scanned.load(std::memory_order_relaxed),
              leaves * survivors)
        << drain;
    EXPECT_EQ(stats->segments_skipped.load(std::memory_order_relaxed),
              leaves * refuted)
        << drain;
    stats->Reset();
  };

  stats->Reset();
  ASSERT_TRUE(seg_session->Run(query, no_opt, tree).ok());
  expect_counts("tree", 1);
  auto compiled = seg_session->Run(query, no_opt, vm);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_NE(compiled.value().physical_explain.find("[vm: compiled"),
            std::string::npos)
      << compiled.value().physical_explain;
  expect_counts("vm=kForce", 1);
  auto morsels = seg_session->Run(query, no_opt, parallel);
  ASSERT_TRUE(morsels.ok()) << morsels.status().ToString();
  EXPECT_NE(morsels.value().physical_explain.find("[parallel: threads=3"),
            std::string::npos)
      << morsels.value().physical_explain;
  expect_counts("threads=3", 1);

  std::vector<engine::QueryRequest> requests(2);
  for (engine::QueryRequest& request : requests) {
    request.vql = query;
    request.plan = no_opt;
  }
  engine::SubmitOptions batch;
  batch.lanes = 2;
  batch.shared_scan = false;
  for (const engine::QueryOutcome& o : seg_session->Submit(requests, batch)) {
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
  }
  expect_counts("private batch of 2", 2);
}

// Phase 1: the static corpus — kDiffQueries generated queries, each
// executed through four engine drains plus the oracle, with the
// pruning counters checked afterwards (skipping must really happen).
TEST_F(SegmentDiffTest, SegmentScansAgreeAcrossAllDrains) {
  const uint64_t seed = testing::TestSeed();
  auto seg_session = SegmentSession();
  engine::Database ext_session(&catalog_, &store_, &methods_);
  testing::QueryGenerator gen(seed);
  segments_->mutable_stats()->Reset();
  for (int q = 0; q < kDiffQueries; ++q) {
    if (!CheckAllDrains(seg_session.get(), &ext_session, gen.NextQuery(),
                        seed)) {
      return;
    }
  }
  const auto& stats = segments_->stats();
  const uint64_t scanned =
      stats.segments_scanned.load(std::memory_order_relaxed);
  const uint64_t skipped =
      stats.segments_skipped.load(std::memory_order_relaxed);
  // The corpus must have exercised both outcomes, or the agreement
  // above proved nothing about pruning.
  EXPECT_GT(scanned, 0u) << "no segment was ever scanned; seed: " << seed;
  EXPECT_GT(skipped, 0u) << "no segment was ever skipped; seed: " << seed;
}

// The buffer-cache condition: a selective query re-run through the
// deliberately small cache (16 pages, below the corpus's segment pages)
// keeps its surviving segment's pages resident, so the re-runs hit the
// cache more often than they miss.
TEST_F(SegmentDiffTest, SelectiveReRunsHitTheSmallCache) {
  auto seg_session = SegmentSession();
  engine::PlanOptions no_opt;
  no_opt.optimize = false;
  engine::RunOptions tree;
  tree.vm = engine::VmMode::kOff;

  // A full pass first drags every segment through the cache.
  ASSERT_TRUE(seg_session->Run("ACCESS a FROM a IN Item", no_opt, tree).ok());
  storage::PagerStats* pager = segments_->pager()->mutable_stats();
  pager->Reset();
  for (int rep = 0; rep < 4; ++rep) {
    auto got = seg_session->Run("ACCESS a FROM a IN Item WHERE a.v1 < 64",
                                no_opt, tree);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().result.AsSet().size(), 64u);
  }
  const uint64_t hits = pager->cache_hits.load(std::memory_order_relaxed);
  const uint64_t misses =
      pager->cache_misses.load(std::memory_order_relaxed);
  EXPECT_GT(hits, misses);
}

// Phase 2: shared-scan Submit batches. The segment session's batches
// drain over a segment-backed fan-out ring (with per-consumer morsel
// skipping); the extent session's over the in-memory extent; both must
// match the oracle per member.
TEST_F(SegmentDiffTest, SharedScanBatchesAgreeWithOracle) {
  const uint64_t seed = testing::TestSeed() + 17;
  auto seg_session = SegmentSession();
  engine::Database ext_session(&catalog_, &store_, &methods_);
  testing::QueryGenerator gen(seed);
  engine::PlanOptions no_opt;
  no_opt.optimize = false;
  engine::SubmitOptions submit;
  submit.lanes = 3;
  submit.shared_scan = true;
  vql::Interpreter::Options row;
  row.row_mode = true;

  for (int batch = 0; batch < kSharedBatches; ++batch) {
    std::vector<std::string> queries;
    for (int i = 0; i < kSharedBatchSize; ++i) {
      queries.push_back(gen.NextQuery());
    }
    std::vector<engine::QueryRequest> requests(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      requests[i].vql = queries[i];
      requests[i].plan = no_opt;
    }
    auto seg = seg_session->Submit(requests, submit);
    auto ext = ext_session.Submit(requests, submit);
    for (int i = 0; i < kSharedBatchSize; ++i) {
      ASSERT_TRUE(seg[i].status.ok())
          << seg[i].status.ToString() << "\n  seed: " << seed;
      ASSERT_TRUE(ext[i].status.ok())
          << ext[i].status.ToString() << "\n  seed: " << seed;
      auto oracle = seg_session->RunNaive(queries[i], row);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      ASSERT_EQ(seg[i].result.result, oracle.value())
          << "shared segment drain diverged from the oracle"
          << "\n  query: " << queries[i] << "\n  seed: " << seed;
      ASSERT_EQ(ext[i].result.result, oracle.value())
          << "shared extent drain diverged from the oracle"
          << "\n  query: " << queries[i] << "\n  seed: " << seed;
    }
  }
}

// Phase 3: the same differential under concurrent Submit writer
// batches. Every write commit closes Item's open segment version (so
// readers pinned at or above the commit fall back to the extent), and
// the writer re-ingests every few rounds (re-opening the segment
// path at a later epoch). Readers record the epoch each query pinned;
// after the threads join, every record replays serially through the
// row-mode oracle at its recorded epoch and must match.
TEST_F(SegmentDiffTest, SegmentReadsAgreeWithOracleUnderConcurrentWrites) {
  const uint64_t seed = testing::TestSeed() + 41;
  auto writer_session = SegmentSession();

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
        auto outcomes = writer_session->Submit({request});
        ASSERT_TRUE(outcomes[0].status.ok())
            << outcomes[0].status.ToString();
        // Re-ingest every few commits: segment versions reopen at the
        // new epoch, so later readers take the segment path again
        // instead of permanently falling back to the extent.
        if (round % 5 == 4) ASSERT_TRUE(Ingest().ok());
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        auto session = SegmentSession();
        testing::QueryGenerator gen(seed * 1315423911u + r + 1);
        engine::PlanOptions no_opt;
        no_opt.optimize = false;
        for (int iter = 0; iter < kReaderIters; ++iter) {
          engine::RunOptions run;
          // Alternate the drain kind so serial, morsel-parallel and
          // compiled reads all race the writer.
          switch (iter % 3) {
            case 0:
              run.vm = engine::VmMode::kOff;
              break;
            case 1:
              run.vm = engine::VmMode::kOff;
              run.threads = 3;
              break;
            default:
              run.vm = engine::VmMode::kForce;
              break;
          }
          const std::string query = gen.NextQuery();
          auto result = session->Run(query, no_opt, run);
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
  // interpreter shares no segment, paging or batching code.
  engine::Database oracle_session(&catalog_, &store_, &methods_);
  size_t replayed = 0;
  for (int r = 0; r < kReaders; ++r) {
    for (const ReadRecord& record : records[r]) {
      vql::Interpreter::Options replay;
      replay.row_mode = true;
      replay.snapshot_epoch = record.epoch;
      auto oracle = oracle_session.RunNaive(record.query, replay);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      ++replayed;
      ASSERT_EQ(record.result, oracle.value())
          << "segment reader " << record.reader << " iter "
          << record.iter << " diverged from the oracle at epoch "
          << record.epoch << "\n  query: " << record.query
          << "\n  seed: " << seed;
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
