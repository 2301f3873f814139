// The epoch-snapshot mutation path's headline proof: a seeded,
// randomized differential stress harness interleaving writer batches
// with concurrent readers on the lone-read, batch and service paths.
// Every reader records the epoch it pinned and the result it saw; after
// the threads join, every recorded read is replayed serially through
// the fully independent row-mode oracle *at the recorded epoch* and
// must match bit-for-bit — a reader that ever observed a half-applied
// batch, a torn row (the workload keeps v1 == v2 in every committed
// version) or a reclaimed version cannot pass.
//
// Runs under TSan/ASan/UBSan in CI (`scripts/ci.sh --mvcc`) with three
// fixed seeds and one time-derived seed; the seed prints at startup and
// any run replays with `--seed=N` / `VODAK_TEST_SEED=N`
// (tests/test_seed.h). On a mismatch the harness dumps its schedule
// log: the writer's commit sequence and the failing reader's
// path/epoch/query trace.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "objstore/object_store.h"
#include "schema/catalog.h"
#include "service/generation.h"
#include "vql/interpreter.h"
#include "workload/document_db.h"
#include "workload/document_knowledge.h"

#include "test_seed.h"

namespace vodak {
namespace {

constexpr int kBuckets = 4;
constexpr int kInitialObjects = 40;
constexpr int kReaders = 4;
constexpr int kReaderIters = 18;
constexpr int kWriterRounds = 60;

/// One observed read: enough to replay it at the exact snapshot.
struct ReadRecord {
  int reader = 0;
  int iter = 0;
  const char* path = "";
  std::string query;
  Epoch epoch = kEpochLatest;
  Value result;
};

std::string InvariantQuery() {
  // Empty in every committed snapshot: writers always set v1 == v2.
  return "ACCESS a FROM a IN Account WHERE NOT (a.v1 == a.v2)";
}

std::string BucketQuery(int bucket) {
  return "ACCESS a.v1 FROM a IN Account WHERE a.bucket == " +
         std::to_string(bucket);
}

std::string PairQuery() {
  return "ACCESS [v: a.v1, w: a.v2] FROM a IN Account";
}

class MvccStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cls = catalog_.DefineClass("Account");
    ASSERT_TRUE(cls.ok());
    ASSERT_TRUE(cls.value()->AddProperty("v1", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("v2", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("bucket", Type::Int()).ok());
    class_id_ = cls.value()->class_id();
    ASSERT_EQ(store_.RegisterClass("Account", 3), class_id_);
    for (int i = 0; i < kInitialObjects; ++i) {
      auto oid = store_.CreateObject(class_id_);
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(store_.SetProperty(oid.value(), 0, Value::Int(i)).ok());
      ASSERT_TRUE(store_.SetProperty(oid.value(), 1, Value::Int(i)).ok());
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 2, Value::Int(i % kBuckets))
              .ok());
    }
  }

  /// The writer: kWriterRounds seeded random batches, mixing VQL write
  /// statements with programmatic Mutation batches, all through the
  /// engine's Submit write path. Single writer — its view of the
  /// extent between batches is stable.
  void WriterLoop(engine::Database* session, uint64_t seed,
                  std::vector<std::string>* commit_log) {
    std::mt19937_64 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
    for (int round = 0; round < kWriterRounds; ++round) {
      engine::QueryRequest request;
      const int x = pick(100000);
      const int bucket = pick(kBuckets);
      std::string kind;
      switch (pick(4)) {
        case 0:
          kind = "vql-update";
          request.vql = "UPDATE Account SET v1 = " + std::to_string(x) +
                        ", v2 = " + std::to_string(x) +
                        " WHERE self.bucket == " + std::to_string(bucket);
          break;
        case 1:
          kind = "vql-insert";
          request.vql = "INSERT INTO Account SET v1 = " +
                        std::to_string(x) + ", v2 = " + std::to_string(x) +
                        ", bucket = " + std::to_string(bucket);
          break;
        case 2: {
          kind = "vql-delete";
          // Partial delete: only a random residue class of a bucket,
          // so extents shrink without ever emptying out.
          request.vql = "DELETE FROM Account WHERE self.bucket == " +
                        std::to_string(bucket) + " AND self.v1 / 7 * 7 " +
                        "== self.v1";
          break;
        }
        default: {
          kind = "mutation-batch";
          auto extent = store_.Extent(class_id_);
          ASSERT_TRUE(extent.ok());
          for (size_t i = 0; i < extent.value().size(); ++i) {
            if (pick(4) != 0) continue;
            Oid oid = extent.value()[i];
            if (pick(8) == 0) {
              request.mutations.push_back(Mutation::Delete(oid));
            } else {
              const int y = pick(100000);
              request.mutations.push_back(Mutation::Update(
                  oid, {{0, Value::Int(y)}, {1, Value::Int(y)}}));
            }
          }
          request.mutations.push_back(Mutation::Insert(
              class_id_, {{0, Value::Int(x)},
                          {1, Value::Int(x)},
                          {2, Value::Int(bucket)}}));
          break;
        }
      }
      auto outcomes = session->Submit({request});
      ASSERT_TRUE(outcomes[0].status.ok())
          << kind << ": " << outcomes[0].status.ToString();
      commit_log->push_back(
          "commit epoch=" +
          std::to_string(outcomes[0].stats.snapshot_epoch) + " " + kind);
    }
  }

  /// One reader: alternates the three concurrent read paths, recording
  /// (query, pinned epoch, result) for the post-hoc oracle replay.
  void ReaderLoop(int id, uint64_t seed, service::GenerationScheduler* svc,
                  std::vector<ReadRecord>* records,
                  std::vector<std::string>* log) {
    engine::Database session(&catalog_, &store_, &methods_);
    std::mt19937_64 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
    engine::PlanOptions no_opt;
    no_opt.optimize = false;
    for (int iter = 0; iter < kReaderIters; ++iter) {
      const std::string query = [&] {
        switch (pick(3)) {
          case 0: return InvariantQuery();
          case 1: return BucketQuery(pick(kBuckets));
          default: return PairQuery();
        }
      }();
      switch (pick(3)) {
        case 0: {  // single-query Submit: the batch pipeline
          auto result = session.Run(query, no_opt);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          records->push_back({id, iter, "single", query,
                              result.value().snapshot_epoch,
                              result.value().result});
          log->push_back("reader=" + std::to_string(id) + " iter=" +
                         std::to_string(iter) + " path=single epoch=" +
                         std::to_string(result.value().snapshot_epoch));
          break;
        }
        case 1: {  // multi-query Submit: a two-member batch
          const std::string sibling = BucketQuery(pick(kBuckets));
          engine::SubmitOptions options;
          options.lanes = 2;
          std::vector<engine::QueryRequest> requests(2);
          requests[0].vql = query;
          requests[1].vql = sibling;
          for (engine::QueryRequest& r : requests) r.plan = no_opt;
          auto results = session.Submit(requests, options);
          for (size_t q = 0; q < results.size(); ++q) {
            ASSERT_TRUE(results[q].status.ok())
                << results[q].status.ToString();
            records->push_back({id, iter, "batch",
                                requests[q].vql,
                                results[q].result.snapshot_epoch,
                                results[q].result.result});
          }
          log->push_back(
              "reader=" + std::to_string(id) + " iter=" +
              std::to_string(iter) + " path=batch epoch=" +
              std::to_string(results[0].result.snapshot_epoch));
          break;
        }
        default: {  // generation scheduler: the service path
          auto prepared = session.Prepare(query, no_opt);
          ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
          service::ServiceQuery sq;
          sq.request_id = std::to_string(id) + ":" + std::to_string(iter);
          sq.plan = prepared.value().planned.chosen_plan;
          sq.result_ref = prepared.value().result_ref;
          sq.cancel = std::make_shared<exec::CancellationToken>();
          sq.admitted_at = std::chrono::steady_clock::now();
          std::promise<service::QueryReply> done;
          auto reply_future = done.get_future();
          sq.done = [&done](service::QueryReply reply) {
            done.set_value(std::move(reply));
          };
          svc->Admit(std::move(sq));
          service::QueryReply reply = reply_future.get();
          ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
          records->push_back({id, iter, "service", query,
                              reply.stats.snapshot_epoch, reply.result});
          log->push_back("reader=" + std::to_string(id) + " iter=" +
                         std::to_string(iter) + " path=service epoch=" +
                         std::to_string(reply.stats.snapshot_epoch));
          break;
        }
      }
    }
  }

  /// The mixed-load counter conditions: every completed read resolved
  /// through a pinned snapshot (snapshot reads >= reads completed), and
  /// committed write batches created copy-on-write versions under epoch
  /// bumps. Read before any oracle replay, whose own pinned reads would
  /// count too.
  void ExpectMixedLoadCounters(
      const std::vector<std::vector<ReadRecord>>& records,
      const std::vector<std::string>& commit_log) {
    uint64_t reads_completed = 0;
    for (const std::vector<ReadRecord>& reader : records) {
      reads_completed += reader.size();
    }
    const StoreStats& stats = store_.stats();
    EXPECT_GE(stats.snapshot_reads.load(std::memory_order_relaxed),
              reads_completed);
    if (!commit_log.empty()) {
      EXPECT_GT(stats.versions_created.load(std::memory_order_relaxed), 0u);
      EXPECT_GT(stats.epochs_committed.load(std::memory_order_relaxed), 0u);
    }
  }

  /// In-snapshot consistency: no recorded result may contain a torn
  /// pair, and invariant queries must be empty.
  void CheckRecordConsistency(const ReadRecord& record) {
    if (record.query == InvariantQuery()) {
      EXPECT_TRUE(record.result.AsSet().empty())
          << "torn read: reader " << record.reader << " iter "
          << record.iter << " path " << record.path << " at epoch "
          << record.epoch;
    }
    if (record.query == PairQuery()) {
      for (const Value& tuple : record.result.AsSet()) {
        auto v = tuple.GetField("v");
        auto w = tuple.GetField("w");
        ASSERT_TRUE(v.ok() && w.ok());
        EXPECT_EQ(v.value(), w.value())
            << "torn pair: reader " << record.reader << " iter "
            << record.iter << " path " << record.path << " at epoch "
            << record.epoch;
      }
    }
  }

  void DumpScheduleLog(const std::vector<std::string>& commit_log,
                       const std::vector<std::string>& reader_log) {
    std::string dump = "schedule log (writer commits):\n";
    for (const std::string& line : commit_log) dump += "  " + line + "\n";
    dump += "schedule log (failing reader):\n";
    for (const std::string& line : reader_log) dump += "  " + line + "\n";
    ADD_FAILURE() << dump;
  }

  Catalog catalog_;
  ObjectStore store_;
  MethodRegistry methods_;
  uint32_t class_id_ = 0;
};

// Phase A: reclaim off, so every version any reader pinned is still
// alive afterwards and each recorded read replays exactly through the
// row-mode oracle at its recorded epoch.
TEST_F(MvccStressTest, DifferentialOracleReplay) {
  const uint64_t seed = testing::TestSeed();
  engine::Database writer_session(&catalog_, &store_, &methods_);
  engine::Database service_session(&catalog_, &store_, &methods_);
  service::GenerationScheduler scheduler(&service_session, /*lanes=*/2);
  scheduler.Start();

  std::vector<std::string> commit_log;
  std::vector<std::vector<ReadRecord>> records(kReaders);
  std::vector<std::vector<std::string>> reader_logs(kReaders);
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      WriterLoop(&writer_session, seed, &commit_log);
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        ReaderLoop(r, seed * 1315423911u + r + 1, &scheduler,
                   &records[r], &reader_logs[r]);
      });
    }
    for (auto& t : threads) t.join();
  }
  scheduler.Stop();
  ExpectMixedLoadCounters(records, commit_log);

  // Serial differential replay: the row-mode interpreter shares no
  // batched-evaluation code with any of the three concurrent paths.
  engine::Database oracle_session(&catalog_, &store_, &methods_);
  size_t replayed = 0;
  for (int r = 0; r < kReaders; ++r) {
    for (const ReadRecord& record : records[r]) {
      CheckRecordConsistency(record);
      vql::Interpreter::Options replay;
      replay.snapshot_epoch = record.epoch;
      auto oracle = oracle_session.RunNaive(record.query, replay);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      ++replayed;
      if (record.result != oracle.value()) {
        ADD_FAILURE() << "reader " << record.reader << " iter "
                      << record.iter << " path " << record.path
                      << " diverged from the oracle at epoch "
                      << record.epoch << "\n  query: " << record.query
                      << "\n  seed: " << seed;
        DumpScheduleLog(commit_log, reader_logs[r]);
        return;
      }
    }
  }
  EXPECT_GE(replayed, static_cast<size_t>(kReaders * kReaderIters));
  // A writer round whose predicate matched nothing commits no epoch,
  // so the count is bounded by the rounds, not equal to them.
  const uint64_t committed =
      store_.stats().epochs_committed.load(std::memory_order_relaxed);
  EXPECT_GT(committed, 0u);
  EXPECT_LE(committed, static_cast<uint64_t>(kWriterRounds));
  EXPECT_GT(store_.stats().snapshot_reads.load(std::memory_order_relaxed),
            0u);
  // Reclaim was off: nothing was freed under the readers.
  EXPECT_EQ(store_.stats().versions_reclaimed.load(
                std::memory_order_relaxed),
            0u);
}

// Phase B: the same interleaving with the background reclaimer ON.
// Old epochs can no longer be replayed post-hoc (that is the point of
// reclaim), so correctness here is the in-snapshot checks — no torn
// pair, invariant queries empty — plus the sanitizer sweep this test
// runs under in CI, with reclaim's frees racing the readers' unpins.
TEST_F(MvccStressTest, ReclaimRacingReaders) {
  const uint64_t seed = testing::TestSeed() + 17;
  store_.StartBackgroundReclaim();
  engine::Database writer_session(&catalog_, &store_, &methods_);
  engine::Database service_session(&catalog_, &store_, &methods_);
  service::GenerationScheduler scheduler(&service_session);
  scheduler.Start();

  std::vector<std::string> commit_log;
  std::vector<std::vector<ReadRecord>> records(kReaders);
  std::vector<std::vector<std::string>> reader_logs(kReaders);
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      WriterLoop(&writer_session, seed, &commit_log);
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        ReaderLoop(r, seed * 2654435761u + r + 1, &scheduler,
                   &records[r], &reader_logs[r]);
      });
    }
    for (auto& t : threads) t.join();
  }
  scheduler.Stop();
  store_.StopBackgroundReclaim();
  ExpectMixedLoadCounters(records, commit_log);

  for (int r = 0; r < kReaders; ++r) {
    for (const ReadRecord& record : records[r]) {
      CheckRecordConsistency(record);
    }
  }
  // With every pin dropped, one explicit pass frees whatever the
  // background thread hadn't gotten to; between them the superseded
  // versions of kWriterRounds batches are gone.
  store_.Reclaim();
  EXPECT_GT(store_.stats().versions_reclaimed.load(
                std::memory_order_relaxed),
            0u);
  // Current state is intact and readable after all that churn.
  auto live = store_.Extent(class_id_);
  ASSERT_TRUE(live.ok());
  for (Oid oid : live.value()) {
    auto v1 = store_.GetProperty(oid, 0);
    auto v2 = store_.GetProperty(oid, 1);
    ASSERT_TRUE(v1.ok() && v2.ok());
    EXPECT_EQ(v1.value(), v2.value());
  }
}

// ------------------------------------------------ document-schema mode

/// The paper's schema under the benchmark's kinds of writes: content
/// and number edits, inserts that set only `section` (the section's
/// `paragraphs` set does not learn of them, and neither does the
/// inverted index), and deletes that also take the paragraph out of its
/// section's `paragraphs` and its document's `largeParagraphs`. Two
/// sessions share the store: one with all paper knowledge, one without
/// R1.
class DocumentWritesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    params_.num_documents = 24;
    params_.sections_per_document = 3;
    params_.paragraphs_per_section = 4;
    params_.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params_).ok());
    auto with = workload::MakePaperSession(&db_);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    with_r1_ = std::move(with).value();
    auto without = workload::MakePaperSession(
        &db_, {"E1", "E2", "E3", "E4", "E5", "LARGE"});
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    without_r1_ = std::move(without).value();
  }

  uint32_t Slot(const char* cls, const char* prop) const {
    return db_.catalog().FindClass(cls)->FindProperty(prop)->slot;
  }

  Value Get(Oid oid, const char* cls, const char* prop) {
    auto v = db_.store().GetProperty(oid, Slot(cls, prop));
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? v.value() : Value::Null();
  }

  static Value Without(const Value& set, Oid oid) {
    std::vector<Value> kept;
    if (set.is_set()) {
      for (const Value& v : set.AsSet()) {
        if (v != Value::OfOid(oid)) kept.push_back(v);
      }
    }
    return Value::Set(std::move(kept));
  }

  /// Deletes `par` the way an application does: out of its section's
  /// `paragraphs` and its document's `largeParagraphs` in one batch.
  std::vector<Mutation> DeleteBatch(Oid par) {
    std::vector<Mutation> batch;
    const Value sec = Get(par, "Paragraph", "section");
    if (sec.is_oid()) {
      batch.push_back(Mutation::Update(
          sec.AsOid(),
          {{Slot("Section", "paragraphs"),
            Without(Get(sec.AsOid(), "Section", "paragraphs"), par)}}));
      const Value doc = Get(sec.AsOid(), "Section", "document");
      if (doc.is_oid()) {
        batch.push_back(Mutation::Update(
            doc.AsOid(),
            {{Slot("Document", "largeParagraphs"),
              Without(Get(doc.AsOid(), "Document", "largeParagraphs"),
                      par)}}));
      }
    }
    batch.push_back(Mutation::Delete(par));
    return batch;
  }

  void Commit(std::vector<Mutation> batch) {
    engine::QueryRequest request;
    request.mutations = std::move(batch);
    auto outcomes = with_r1_->Submit({request});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  }

  Value Oracle(const std::string& query) {
    auto oracle = with_r1_->RunNaive(query);
    EXPECT_TRUE(oracle.ok()) << query << ": " << oracle.status().ToString();
    return oracle.ok() ? oracle.value() : Value::Null();
  }

  workload::DocumentDb db_;
  workload::CorpusParams params_;
  std::unique_ptr<engine::Database> with_r1_;
  std::unique_ptr<engine::Database> without_r1_;
};

/// A dependent-range query over the paper's schema: E5, number and
/// title predicates under an AND/OR mix, and an ACCESS of either side.
std::string DependentRangeQuery(std::mt19937_64& rng, uint32_t documents) {
  auto pick = [&rng](uint64_t n) { return rng() % n; };
  static const char* kAccess[] = {"d.title", "d", "p", "p.number",
                                  "[t: d.title, n: p.number]"};
  std::vector<std::string> preds;
  if (pick(4) != 0) preds.push_back("p->contains_string('implementation')");
  switch (pick(4)) {
    case 0:
      preds.push_back("p.number == " + std::to_string(pick(4)));
      break;
    case 1:
      preds.push_back("p.number > " + std::to_string(pick(3)));
      break;
    case 2:
      preds.push_back("d.title == 'Title " + std::to_string(pick(documents)) +
                      "'");
      break;
    default:
      break;
  }
  std::string query = std::string("ACCESS ") + kAccess[pick(5)] +
                      " FROM d IN Document, p IN d->paragraphs()";
  for (size_t i = 0; i < preds.size(); ++i) {
    query += i == 0 ? " WHERE " : (pick(4) == 0 ? " OR " : " AND ");
    query += preds[i];
  }
  return query;
}

TEST_F(DocumentWritesTest, RangeInverseAgreesWithTheDependentRangeUnderWrites) {
  const uint64_t seed = testing::TestSeed();
  std::mt19937_64 rng(seed);
  auto pick = [&rng](uint64_t n) { return rng() % n; };
  const uint32_t paragraph = db_.paragraph_class_id();
  const std::string search = workload::DocumentDb::kSearchWord;
  auto body = [&]() {
    std::string text = "term" + std::to_string(pick(200));
    for (int w = 0; w < 20; ++w) text += " term" + std::to_string(pick(200));
    if (pick(3) == 0) text += " " + search;
    return text;
  };

  size_t checked = 0;
  size_t inverted = 0;
  size_t oracle_agreed = 0;
  std::vector<std::string> writes;
  for (int round = 0; round < 40; ++round) {
    auto extent = db_.store().Extent(paragraph);
    ASSERT_TRUE(extent.ok());
    const std::vector<Oid>& live = extent.value();
    ASSERT_FALSE(live.empty());
    const Oid target = live[pick(live.size())];
    switch (pick(4)) {
      case 0:
        writes.push_back("content " + target.ToString());
        Commit({Mutation::Update(
            target, {{Slot("Paragraph", "content"), Value::String(body())}})});
        break;
      case 1: {
        writes.push_back("number " + target.ToString());
        Commit({Mutation::Update(
            target, {{Slot("Paragraph", "number"),
                      Value::Int(static_cast<int64_t>(pick(4)))}})});
        break;
      }
      case 2: {
        const Value sec = Get(target, "Paragraph", "section");
        writes.push_back("insert into " + sec.ToString());
        Commit({Mutation::Insert(
            paragraph, {{Slot("Paragraph", "number"),
                         Value::Int(static_cast<int64_t>(pick(4)))},
                        {Slot("Paragraph", "section"), sec},
                        {Slot("Paragraph", "content"),
                         Value::String(body())}})});
        break;
      }
      default:
        writes.push_back("delete " + target.ToString());
        Commit(DeleteBatch(target));
        break;
    }
    for (int q = 0; q < 3; ++q) {
      const std::string query =
          DependentRangeQuery(rng, params_.num_documents);
      SCOPED_TRACE("seed " + std::to_string(seed) + ", round " +
                   std::to_string(round) + ", after " + writes.back() +
                   "\n  query: " + query);
      auto with = with_r1_->Run(query, {true, false});
      auto without = without_r1_->Run(query, {true, false});
      ASSERT_TRUE(without.ok()) << without.status().ToString();
      ASSERT_TRUE(with.ok()) << with.status().ToString();
      ASSERT_EQ(with.value().result, without.value().result)
          << "with R1:\n" << with.value().physical_explain
          << "without R1:\n" << without.value().physical_explain;
      ++checked;
      if (with.value().chosen_plan->ToString().find("flat<") ==
          std::string::npos) {
        ++inverted;
      }
      const Value oracle = Oracle(query);
      if (without.value().result == oracle) {
        ++oracle_agreed;
        EXPECT_EQ(with.value().result, oracle);
      }
    }
  }
  EXPECT_EQ(checked, 120u);
  // The family must exercise the inversion, and the stale index must
  // leave most answers exact.
  EXPECT_GT(inverted, 0u);
  EXPECT_GT(oracle_agreed, checked / 2);
}

TEST_F(DocumentWritesTest, DeletedSearchHitLeavesEveryIndexedPlan) {
  // The inverted index never hears of deletes. Before it filtered its
  // hits by liveness, the E5 scan returned the deleted paragraph (a
  // wrong answer), and the R1 plan dereferenced it (NotFound: get:
  // dangling oid).
  auto hits = db_.paragraph_index().Search(workload::DocumentDb::kSearchWord);
  ASSERT_FALSE(hits.empty());
  const Value sec = Get(hits.front(), "Paragraph", "section");
  ASSERT_TRUE(sec.is_oid());
  const Value doc = Get(sec.AsOid(), "Section", "document");
  ASSERT_TRUE(doc.is_oid());
  const std::string title = Get(doc.AsOid(), "Document", "title").AsString();
  Commit(DeleteBatch(hits.front()));
  for (const std::string& query : {
           std::string("ACCESS d.title FROM d IN Document, p IN "
                       "d->paragraphs() WHERE "
                       "p->contains_string('implementation')"),
           std::string("ACCESS p FROM p IN Paragraph WHERE "
                       "p->contains_string('implementation')"),
           "ACCESS p FROM p IN Paragraph WHERE "
           "p->contains_string('implementation') AND "
           "(p->document()).title == '" + title + "'",
       }) {
    SCOPED_TRACE(query);
    auto result = with_r1_->Run(query, {true, false});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().result, Oracle(query));
  }
}

TEST_F(DocumentWritesTest, ParagraphWithoutADocumentJoinsNoRange) {
  // An indexed paragraph that belongs to no section is in no
  // d->paragraphs(); the inverted plan maps it to a NULL document and
  // must drop it rather than report a NULL title.
  engine::QueryRequest insert;
  insert.mutations.push_back(Mutation::Insert(
      db_.paragraph_class_id(),
      {{Slot("Paragraph", "content"),
        Value::String(std::string("orphan ") +
                      workload::DocumentDb::kSearchWord)}}));
  auto outcomes = with_r1_->Submit({insert});
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  ASSERT_EQ(outcomes[0].result.result.AsSet().size(), 1u);
  const Oid orphan = outcomes[0].result.result.AsSet()[0].AsOid();
  db_.paragraph_index().Add(orphan, std::string("orphan ") +
                                        workload::DocumentDb::kSearchWord);
  const std::string query =
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')";
  auto result = with_r1_->Run(query, {true, false});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().chosen_plan->ToString().find("flat<"),
            std::string::npos);
  EXPECT_FALSE(result.value().result.Contains(Value::Null()));
  EXPECT_EQ(result.value().result, Oracle(query));
}

}  // namespace
}  // namespace vodak

int main(int argc, char** argv) {
  return vodak::testing::RunAllTestsWithSeed(argc, argv,
                                             /*fallback=*/20260809);
}
