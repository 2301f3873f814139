// The paged-storage headline proof (docs/ARCHITECTURE.md §"Paged
// storage & segment skipping"): segment-backed scans must be
// result-invisible. A seeded randomized VQL corpus (tests/query_gen.h)
// runs through a session with the segment store attached — lone
// reads and multi-read Submit batches — against a plain
// extent-backed session and the row-mode oracle
// interpreter; all must agree exactly, while the pruning counters
// prove zone maps actually skipped segments (an agreement with zero
// skips would prove nothing). A final phase repeats the differential
// under concurrent Submit writer batches: every committed write drops
// the touched class's segment version before it publishes, readers
// record their
// pinned epoch, and each read replays post-hoc through the oracle *at
// that epoch* — a segment path that ever served a stale version cannot
// pass. Runs under TSan in CI (`scripts/ci.sh --storage`) with seeds
// 1/2/3 plus one time-derived seed (--seed=N / VODAK_TEST_SEED=N
// replays exactly).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
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
constexpr int kSubmitBatches = 30;
constexpr int kSubmitBatchSize = 4;
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

    // The corpus's OID column spans 10 pages (one per 64-row segment);
    // 8 frames keep eviction live (SelectiveReRunsHitTheSmallCache
    // asserts it). 4 KiB pages keep the file small when a test
    // re-ingests after every commit.
    storage::PagerOptions pager;
    pager.page_size = 4096;
    pager.cache_pages = 8;
    const std::string path =
        ::testing::TempDir() + "vodak_segment_diff.pages";
    std::remove(path.c_str());  // the Pager appends to an existing file
    auto segments = storage::SegmentStore::Open(path, pager);
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

  /// Runs one query through the segment session, the extent session
  /// and the row-mode oracle; fails
  /// (with query + seed) on any disagreement.
  bool CheckAllDrains(engine::Database* seg_session,
                      engine::Database* ext_session,
                      const std::string& query, uint64_t seed) {
    engine::PlanOptions no_opt;
    no_opt.optimize = false;

    auto oracle = seg_session->RunNaive(query);
    EXPECT_TRUE(oracle.ok()) << "oracle: " << oracle.status().ToString()
                             << "\n  query: " << query
                             << "\n  seed: " << seed;
    if (!oracle.ok()) return false;

    struct Drain {
      const char* name;
      engine::Database* session;
    };
    const Drain drains[] = {
        {"segment", seg_session},
        {"extent", ext_session},
    };
    for (const Drain& d : drains) {
      auto got = d.session->Run(query, no_opt);
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

  const std::string query = "ACCESS a FROM a IN Item WHERE a.v1 < 64";
  auto seg = seg_session->Run(query, no_opt);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_NE(seg.value().physical_explain.find("[source: segment]"),
            std::string::npos)
      << seg.value().physical_explain;
  EXPECT_NE(seg.value().physical_explain.find("[segments: scanned "),
            std::string::npos)
      << seg.value().physical_explain;

  auto ext = ext_session.Run(query, no_opt);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_NE(ext.value().physical_explain.find("[source: extent]"),
            std::string::npos)
      << ext.value().physical_explain;
}

// The store's pruning totals count each opened segment leaf once: a
// drain adds exactly its surviving and refuted segments, whichever
// drain ran it.
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
  ASSERT_TRUE(seg_session->Run(query, no_opt).ok());
  expect_counts("tree", 1);

  std::vector<engine::QueryRequest> requests(2);
  for (engine::QueryRequest& request : requests) {
    request.vql = query;
    request.plan = no_opt;
  }
  engine::SubmitOptions batch;
  batch.lanes = 2;
  for (const engine::QueryOutcome& o : seg_session->Submit(requests, batch)) {
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
  }
  expect_counts("batch of 2", 2);
}

// Phase 1: the static corpus — kDiffQueries generated queries, each
// executed through the segment and extent sessions plus the oracle, with the
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

// The buffer-cache condition: a full pass through the deliberately
// small cache (8 frames for 10 OID pages) must evict, and a selective
// query re-run through it keeps its surviving segment's page resident,
// so the re-runs hit the cache more often than they miss.
TEST_F(SegmentDiffTest, SelectiveReRunsHitTheSmallCache) {
  auto seg_session = SegmentSession();
  engine::PlanOptions no_opt;
  no_opt.optimize = false;

  // A full pass first drags every segment through the cache.
  storage::PagerStats* pager = segments_->pager()->mutable_stats();
  pager->Reset();
  ASSERT_TRUE(seg_session->Run("ACCESS a FROM a IN Item", no_opt).ok());
  EXPECT_GT(pager->evictions.load(std::memory_order_relaxed), 0u)
      << "the full pass fit the cache: eviction is not exercised";
  pager->Reset();
  for (int rep = 0; rep < 4; ++rep) {
    auto got = seg_session->Run("ACCESS a FROM a IN Item WHERE a.v1 < 64",
                                no_opt);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().result.AsSet().size(), 64u);
  }
  const uint64_t hits = pager->cache_hits.load(std::memory_order_relaxed);
  const uint64_t misses =
      pager->cache_misses.load(std::memory_order_relaxed);
  EXPECT_GT(hits, misses);
}

// Phase 2: multi-read Submit batches. Each member of the segment
// session's batches drains its own segment-backed leaves; the extent
// session's members drain the in-memory extent; both must match the
// oracle per member.
TEST_F(SegmentDiffTest, SubmitBatchesAgreeWithOracle) {
  const uint64_t seed = testing::TestSeed() + 17;
  auto seg_session = SegmentSession();
  engine::Database ext_session(&catalog_, &store_, &methods_);
  testing::QueryGenerator gen(seed);
  engine::PlanOptions no_opt;
  no_opt.optimize = false;
  engine::SubmitOptions submit;
  submit.lanes = 3;

  for (int batch = 0; batch < kSubmitBatches; ++batch) {
    std::vector<std::string> queries;
    for (int i = 0; i < kSubmitBatchSize; ++i) {
      queries.push_back(gen.NextQuery());
    }
    std::vector<engine::QueryRequest> requests(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      requests[i].vql = queries[i];
      requests[i].plan = no_opt;
    }
    auto seg = seg_session->Submit(requests, submit);
    auto ext = ext_session.Submit(requests, submit);
    for (int i = 0; i < kSubmitBatchSize; ++i) {
      ASSERT_TRUE(seg[i].status.ok())
          << seg[i].status.ToString() << "\n  seed: " << seed;
      ASSERT_TRUE(ext[i].status.ok())
          << ext[i].status.ToString() << "\n  seed: " << seed;
      auto oracle = seg_session->RunNaive(queries[i]);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      ASSERT_EQ(seg[i].result.result, oracle.value())
          << "segment batch member diverged from the oracle"
          << "\n  query: " << queries[i] << "\n  seed: " << seed;
      ASSERT_EQ(ext[i].result.result, oracle.value())
          << "extent batch member diverged from the oracle"
          << "\n  query: " << queries[i] << "\n  seed: " << seed;
    }
  }
}

// The count check for the commit/segment race. Two writers on one
// session each commit one-row INSERTs and re-ingest after every
// commit, while two readers count the extent through the segment
// path. Each insert is one commit epoch, so a read pinned at epoch e
// must see exactly kInitialObjects + (e - start) rows. A reader sees
// fewer only when it is served a segment version that predates its
// pin: a commit published before its version was dropped, or a
// re-ingest snapshotted the extent before the other writer's commit
// and published after it.
TEST_F(SegmentDiffTest, ReadsNeverCountFewerRowsThanTheirPin) {
  constexpr int kInsertsPerWriter = 500;
  constexpr int kCountWriters = 2;
  constexpr int kCountReaders = 2;
  auto writer_session = SegmentSession();
  ASSERT_TRUE(writer_session->RefreshSegments().ok());
  const Epoch start = store_.CurrentEpoch();
  segments_->mutable_stats()->Reset();

  std::atomic<int> readers_started{0};
  std::atomic<int> writers_done{0};
  std::vector<uint64_t> reads(kCountReaders, 0);
  std::vector<uint64_t> stale(kCountReaders, 0);
  std::vector<std::string> first_stale(kCountReaders);
  std::vector<std::thread> threads;
  for (int w = 0; w < kCountWriters; ++w) {
    threads.emplace_back([&, w] {
      while (readers_started.load() < kCountReaders) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        engine::QueryRequest request;
        request.vql = "INSERT INTO Item SET v1 = " + std::to_string(i) +
                      ", bucket = " + std::to_string(w);
        auto outcomes = writer_session->Submit({request});
        EXPECT_TRUE(outcomes[0].status.ok())
            << outcomes[0].status.ToString();
        EXPECT_TRUE(writer_session->RefreshSegments().ok());
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kCountReaders; ++r) {
    threads.emplace_back([&, r] {
      auto session = SegmentSession();
      engine::PlanOptions no_opt;
      no_opt.optimize = false;
      do {
        auto got = session->Run("ACCESS i FROM i IN Item", no_opt);
        if (reads[r]++ == 0) readers_started.fetch_add(1);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const Epoch epoch = got.value().snapshot_epoch;
        const size_t expected = kInitialObjects + (epoch - start);
        const size_t rows = got.value().result.AsSet().size();
        if (rows != expected && stale[r]++ == 0) {
          first_stale[r] = "epoch " + std::to_string(epoch) + ": " +
                           std::to_string(rows) + " rows, expected " +
                           std::to_string(expected);
        }
      } while (writers_done.load() < kCountWriters);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(store_.CurrentEpoch(),
            start + kCountWriters * kInsertsPerWriter)
      << "an INSERT took other than one commit epoch";
  for (int r = 0; r < kCountReaders; ++r) {
    EXPECT_EQ(stale[r], 0u) << "reader " << r << ": " << stale[r] << " of "
                            << reads[r] << " reads miscounted; first at "
                            << first_stale[r];
  }
  // Reads went through segments, or the check proved nothing about
  // them.
  EXPECT_GT(segments_->stats().segments_scanned.load(
                std::memory_order_relaxed),
            0u);
}

// Phase 3: the same differential under concurrent Submit writer
// batches. Every write commit drops Item's segment version before its
// epoch is published (so readers pinned at or above the commit fall
// back to the extent), and
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
        if (round % 5 == 4) {
          ASSERT_TRUE(Ingest().ok());
        }
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        auto session = SegmentSession();
        testing::QueryGenerator gen(seed * 1315423911u + r + 1);
        engine::PlanOptions no_opt;
        no_opt.optimize = false;
        for (int iter = 0; iter < kReaderIters; ++iter) {
          const std::string query = gen.NextQuery();
          auto result = session->Run(query, no_opt);
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
