// Named deterministic edge cases of the epoch-snapshot mutation path
// (docs/ARCHITECTURE.md §"Writes, epochs & snapshot isolation"): each
// test freezes one specific interleaving the randomized stress harness
// (tests/mvcc_stress_test.cc) can only hit probabilistically.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "exec/shared_scan.h"
#include "objstore/object_store.h"
#include "objstore/property_cache.h"
#include "schema/catalog.h"
#include "vql/binder.h"
#include "vql/interpreter.h"
#include "vql/parser.h"

namespace vodak {
namespace {

/// Minimal two-slot schema: Account{v1: Int, v2: Int}. Writers keep
/// v1 == v2 in every version, so any row where they differ is a torn
/// read by construction.
class MvccEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cls = catalog_.DefineClass("Account");
    ASSERT_TRUE(cls.ok());
    ASSERT_TRUE(cls.value()->AddProperty("v1", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("v2", Type::Int()).ok());
    class_id_ = cls.value()->class_id();
    ASSERT_EQ(store_.RegisterClass("Account", 2), class_id_);
    for (int i = 0; i < 8; ++i) {
      auto oid = store_.CreateObject(class_id_);
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(store_.SetProperty(oid.value(), 0, Value::Int(i)).ok());
      ASSERT_TRUE(store_.SetProperty(oid.value(), 1, Value::Int(i)).ok());
      oids_.push_back(oid.value());
    }
  }

  /// One committed batch setting every live account's pair to `value`.
  Epoch CommitAll(int64_t value) {
    std::vector<Mutation> batch;
    for (Oid oid : oids_) {
      if (!store_.Exists(oid)) continue;
      batch.push_back(Mutation::Update(
          oid, {{0, Value::Int(value)}, {1, Value::Int(value)}}));
    }
    auto applied = store_.Apply(batch);
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
    return applied.ok() ? applied.value().epoch : 0;
  }

  Catalog catalog_;
  ObjectStore store_;
  MethodRegistry methods_;
  uint32_t class_id_ = 0;
  std::vector<Oid> oids_;
};

// ------------------------------------------- delete vs. draining scan
// A shared scan pinned at epoch E keeps serving E's extent (and E's
// property values) even when a later batch deletes rows mid-drain: the
// ring's exactly-once contract is over the *pinned* extent, so every
// consumer still sees all 8 rows, none of them torn.
TEST_F(MvccEdgeTest, DeleteWhileSharedScanDraining) {
  EpochPin pin(&store_);
  exec::SharedScanManager manager(&store_, /*morsel_size=*/2,
                                  pin.epoch());
  auto consumer = manager.AttachExtent(class_id_);
  ASSERT_TRUE(consumer.ok()) << consumer.status().ToString();

  // Drain half the ring, then delete 3 objects and update the rest.
  exec::Morsel morsel;
  size_t seen = 0;
  ASSERT_TRUE(consumer.value().Next(&morsel));
  seen += morsel.end - morsel.begin;
  ASSERT_TRUE(consumer.value().Next(&morsel));
  seen += morsel.end - morsel.begin;

  std::vector<Mutation> batch = {Mutation::Delete(oids_[0]),
                                 Mutation::Delete(oids_[3]),
                                 Mutation::Delete(oids_[7])};
  ASSERT_TRUE(store_.Apply(batch).ok());
  CommitAll(999);

  // The drain continues over the pinned extent: all 8 rows, exactly
  // once, with their pinned-epoch property values.
  while (consumer.value().Next(&morsel)) {
    seen += morsel.end - morsel.begin;
  }
  EXPECT_EQ(seen, 8u);
  auto extent = manager.SharedExtent(class_id_);
  ASSERT_TRUE(extent.ok());
  ASSERT_EQ(extent.value()->size(), 8u);
  for (Oid oid : *extent.value()) {
    auto v1 = store_.GetProperty(oid, 0, pin.epoch());
    auto v2 = store_.GetProperty(oid, 1, pin.epoch());
    ASSERT_TRUE(v1.ok()) << "deleted row vanished from pinned snapshot";
    ASSERT_TRUE(v2.ok());
    EXPECT_EQ(v1.value(), v2.value()) << "torn read at pinned epoch";
    EXPECT_NE(v1.value(), Value::Int(999));
  }

  // A manager built after the commit sees the new world: 5 rows.
  exec::SharedScanManager fresh(&store_, /*morsel_size=*/2,
                                store_.CurrentEpoch());
  auto fresh_extent = fresh.SharedExtent(class_id_);
  ASSERT_TRUE(fresh_extent.ok());
  EXPECT_EQ(fresh_extent.value()->size(), 5u);
}

// --------------------------------------- update vs. warm cache column
// A PropertyColumnCache entry filled at epoch E stays warm and stays
// E-valued after a writer commits E+1; the new epoch reads through a
// *different* key and sees the new values. Invalidation is versioned,
// never absent.
TEST_F(MvccEdgeTest, UpdateInvalidatesWarmCacheEntryByVersioning) {
  const Epoch before = store_.CurrentEpoch();
  PropertyColumnCache cache(&store_);
  auto extent = std::make_shared<std::vector<Oid>>(oids_.begin(),
                                                   oids_.end());
  auto locals = std::make_shared<std::vector<uint32_t>>();
  for (Oid oid : oids_) locals->push_back(oid.local);
  cache.SeedExtent(class_id_, before, extent);

  // Warm the (class, slot 0, before) column.
  std::vector<Value> warm;
  ASSERT_TRUE(cache.ReadColumn(class_id_, 0, *locals, 0, locals->size(),
                               &warm, before)
                  .ok());
  ASSERT_EQ(warm.size(), 8u);
  EXPECT_EQ(warm[3], Value::Int(3));
  EXPECT_EQ(cache.fill_count(), 1u);

  const Epoch after = CommitAll(555);
  ASSERT_GT(after, before);

  // The warm entry still serves the old epoch — no store read, no new
  // fill, old values.
  std::vector<Value> still_warm;
  ASSERT_TRUE(cache.ReadColumn(class_id_, 0, *locals, 0, locals->size(),
                               &still_warm, before)
                  .ok());
  EXPECT_EQ(still_warm, warm);
  EXPECT_EQ(cache.fill_count(), 1u);

  // The new epoch is a different key: seeded + filled independently,
  // and it sees the update.
  cache.SeedExtent(class_id_, after, extent);
  std::vector<Value> fresh;
  ASSERT_TRUE(cache.ReadColumn(class_id_, 0, *locals, 0, locals->size(),
                               &fresh, after)
                  .ok());
  EXPECT_EQ(cache.fill_count(), 2u);
  for (const Value& v : fresh) EXPECT_EQ(v, Value::Int(555));
}

// --------------------------------- late attach into an older snapshot
// A consumer attaching to a manager *after* later epochs committed
// still drains the manager's pinned snapshot — the late attacher joins
// the generation's world, not the store's current one.
TEST_F(MvccEdgeTest, LateAttachJoinsGenerationsPinnedEpoch) {
  EpochPin pin(&store_);
  exec::SharedScanManager manager(&store_, /*morsel_size=*/4,
                                  pin.epoch());
  // First consumer materializes the extent at the pinned epoch.
  auto first = manager.AttachExtent(class_id_);
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE(store_.Apply({Mutation::Delete(oids_[1])}).ok());
  CommitAll(777);

  // The late attacher sees the pinned extent (8 rows) and pinned
  // values, sharing the already-materialized pass.
  auto late = manager.AttachExtent(class_id_);
  ASSERT_TRUE(late.ok());
  size_t rows = 0;
  exec::Morsel morsel;
  while (late.value().Next(&morsel)) rows += morsel.end - morsel.begin;
  EXPECT_EQ(rows, 8u);
  EXPECT_EQ(manager.materialized_scans(), 1u);
  auto v = store_.GetProperty(oids_[1], 0, manager.snapshot());
  ASSERT_TRUE(v.ok()) << "late attacher lost a row its generation pinned";
  EXPECT_EQ(v.value(), Value::Int(1));
}

// ------------------------------------------ reclaim vs. the last unpin
// Reclaim frees nothing while a pin still guards the superseded
// versions; the last unpin moves the horizon and the very same call
// then frees them — and the background thread observes the unpin too.
TEST_F(MvccEdgeTest, ReclaimRacesTheLastUnpin) {
  const Epoch pinned = store_.PinEpoch();
  CommitAll(100);
  CommitAll(200);  // two superseded version layers above `pinned`

  // Horizon is the pin: nothing reclaimable.
  EXPECT_EQ(store_.MinPinnedEpoch(), pinned);
  EXPECT_EQ(store_.Reclaim(), 0u);
  // The pinned snapshot is fully intact.
  for (Oid oid : oids_) {
    auto v = store_.GetProperty(oid, 0, pinned);
    ASSERT_TRUE(v.ok());
    EXPECT_NE(v.value(), Value::Int(200));
  }

  store_.UnpinEpoch(pinned);
  const size_t freed = store_.Reclaim();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(store_.stats().versions_reclaimed.load(
                std::memory_order_relaxed),
            freed);
  // Current state survives reclaim untouched.
  for (Oid oid : oids_) {
    EXPECT_EQ(store_.GetProperty(oid, 0).value(), Value::Int(200));
  }

  // Background variant: the reclaim thread wakes on the unpin that
  // moves the horizon and frees the superseded layer on its own.
  store_.StartBackgroundReclaim();
  const Epoch pinned2 = store_.PinEpoch();
  CommitAll(300);
  store_.UnpinEpoch(pinned2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (store_.stats().versions_reclaimed.load(
             std::memory_order_relaxed) <= freed &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  store_.StopBackgroundReclaim();
  EXPECT_GT(store_.stats().versions_reclaimed.load(
                std::memory_order_relaxed),
            freed);
  EXPECT_EQ(store_.GetProperty(oids_[0], 0).value(), Value::Int(300));
}

// --------------------------------------------- snapshot_epoch surface
// Run and Submit (single and multi-query) surface the epoch a query actually
// executed against — readers report their pinned admission snapshot,
// writes the epoch their batch committed as.
TEST_F(MvccEdgeTest, RunShimsSurfaceSnapshotEpoch) {
  engine::Database session(&catalog_, &store_, &methods_);
  const std::string read = "ACCESS a.v1 FROM a IN Account";

  auto r1 = session.Run(read, {/*optimize=*/false});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().snapshot_epoch, store_.CurrentEpoch());

  // A VQL write through Submit reports its commit epoch...
  engine::QueryRequest write;
  write.vql = "UPDATE Account SET v1 = 42, v2 = 42";
  auto outcomes = session.Submit({write});
  ASSERT_TRUE(outcomes[0].status.ok())
      << outcomes[0].status.ToString();
  const Epoch commit = store_.CurrentEpoch();
  EXPECT_EQ(outcomes[0].stats.snapshot_epoch, commit);
  EXPECT_EQ(outcomes[0].result.snapshot_epoch, commit);
  EXPECT_EQ(outcomes[0].result.result, Value::Int(8));

  // ...and a multi-query read batch pins the post-write world and says so.
  engine::QueryRequest r;
  r.vql = read;
  r.plan.optimize = false;
  auto batch = session.Submit({r, r});
  for (const auto& outcome : batch) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result.snapshot_epoch, commit);
    for (const Value& v : outcome.result.result.AsSet()) {
      EXPECT_EQ(v, Value::Int(42));
    }
  }

  // A mixed batch: the write commits during admission, the sibling
  // reader pins after it and sees its effect.
  engine::QueryRequest w2;
  w2.mutations = {Mutation::Update(oids_[2], {{0, Value::Int(7)},
                                              {1, Value::Int(7)}})};
  engine::QueryRequest r2;
  r2.vql = read;
  r2.plan.optimize = false;
  auto mixed = session.Submit({w2, r2});
  ASSERT_TRUE(mixed[0].status.ok()) << mixed[0].status.ToString();
  ASSERT_TRUE(mixed[1].status.ok()) << mixed[1].status.ToString();
  EXPECT_EQ(mixed[1].stats.snapshot_epoch, mixed[0].stats.snapshot_epoch);
  bool saw_seven = false;
  for (const Value& v : mixed[1].result.result.AsSet()) {
    if (v == Value::Int(7)) saw_seven = true;
  }
  EXPECT_TRUE(saw_seven);
}

// VQL writes observe snapshot semantics end to end: INSERT returns the
// created oids, DELETE's predicate sees pre-batch state, and a reader
// pinned before the writes replays the old world.
TEST_F(MvccEdgeTest, VqlWriteStatementsRoundTrip) {
  engine::Database session(&catalog_, &store_, &methods_);
  const Epoch before = store_.PinEpoch();

  engine::QueryRequest ins;
  ins.vql = "INSERT INTO Account SET v1 = 50, v2 = 50";
  auto out = session.Submit({ins});
  ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  ASSERT_EQ(out[0].result.result.AsSet().size(), 1u);

  engine::QueryRequest del;
  del.vql = "DELETE FROM Account WHERE self.v1 < 4";
  out = session.Submit({del});
  ASSERT_TRUE(out[0].status.ok()) << out[0].status.ToString();
  EXPECT_EQ(out[0].result.result, Value::Int(4));  // v1 in {0,1,2,3}

  // Live world: 8 - 4 + 1 rows; pinned world: the original 8.
  EXPECT_EQ(store_.ExtentSize(class_id_).value(), 5u);
  EXPECT_EQ(store_.ExtentSize(class_id_, before).value(), 8u);

  vql::Interpreter interpreter(&catalog_, &store_, &methods_);
  vql::Interpreter::Options replay;
  replay.row_mode = true;
  replay.snapshot_epoch = before;
  auto parsed = vql::ParseQuery("ACCESS a FROM a IN Account");
  ASSERT_TRUE(parsed.ok());
  vql::Binder binder(&catalog_);
  auto bound = binder.Bind(parsed.value());
  ASSERT_TRUE(bound.ok());
  auto old_world = interpreter.Run(bound.value(), replay);
  ASSERT_TRUE(old_world.ok()) << old_world.status().ToString();
  EXPECT_EQ(old_world.value().AsSet().size(), 8u);
  store_.UnpinEpoch(before);
}

}  // namespace
}  // namespace vodak
