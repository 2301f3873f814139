#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "objstore/object_store.h"
#include "test_seed.h"

namespace vodak {
namespace {

TEST(ObjectStoreTest, RegisterAndCreate) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 2);
  EXPECT_EQ(cls, 1u);
  auto oid = store.CreateObject(cls);
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(oid.value(), Oid(1, 1));
  EXPECT_TRUE(store.Exists(oid.value()));
}

TEST(ObjectStoreTest, CreateOnUnknownClassFails) {
  ObjectStore store;
  EXPECT_FALSE(store.CreateObject(99).ok());
  EXPECT_FALSE(store.CreateObject(0).ok());
}

TEST(ObjectStoreTest, PropertyRoundTrip) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 2);
  Oid oid = store.CreateObject(cls).value();
  EXPECT_TRUE(store.GetProperty(oid, 0).value().is_null());
  ASSERT_TRUE(store.SetProperty(oid, 1, Value::String("t")).ok());
  EXPECT_EQ(store.GetProperty(oid, 1).value(), Value::String("t"));
}

TEST(ObjectStoreTest, SlotOutOfRange) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid oid = store.CreateObject(cls).value();
  EXPECT_FALSE(store.GetProperty(oid, 5).ok());
  EXPECT_FALSE(store.SetProperty(oid, 5, Value::Int(1)).ok());
}

TEST(ObjectStoreTest, DeleteTombstones) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  Oid b = store.CreateObject(cls).value();
  ASSERT_TRUE(store.DeleteObject(a).ok());
  EXPECT_FALSE(store.Exists(a));
  EXPECT_TRUE(store.Exists(b));
  EXPECT_FALSE(store.GetProperty(a, 0).ok());
  EXPECT_FALSE(store.DeleteObject(a).ok());  // double delete
  auto extent = store.Extent(cls);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value(), std::vector<Oid>{b});
  EXPECT_EQ(store.ExtentSize(cls).value(), 1u);
}

TEST(ObjectStoreTest, OidsStableAfterDelete) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid a = store.CreateObject(cls).value();
  store.DeleteObject(a).ok();
  Oid c = store.CreateObject(cls).value();
  EXPECT_NE(a, c);  // tombstoned slot is not reused
}

TEST(ObjectStoreTest, MultipleClassesIndependent) {
  ObjectStore store;
  uint32_t c1 = store.RegisterClass("A", 1);
  uint32_t c2 = store.RegisterClass("B", 1);
  Oid a = store.CreateObject(c1).value();
  Oid b = store.CreateObject(c2).value();
  EXPECT_EQ(a.class_id, c1);
  EXPECT_EQ(b.class_id, c2);
  EXPECT_EQ(store.Extent(c1).value().size(), 1u);
  EXPECT_EQ(store.Extent(c2).value().size(), 1u);
}

TEST(ObjectStoreTest, StatsCounters) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  Oid oid = store.CreateObject(cls).value();
  (void)store.SetProperty(oid, 0, Value::Int(1));
  (void)store.GetProperty(oid, 0);
  (void)store.GetProperty(oid, 0);
  (void)store.Extent(cls);
  EXPECT_EQ(store.stats().objects_created, 1u);
  EXPECT_EQ(store.stats().property_writes, 1u);
  EXPECT_EQ(store.stats().property_reads, 2u);
  EXPECT_EQ(store.stats().extent_scans, 1u);
  store.mutable_stats()->Reset();
  EXPECT_EQ(store.stats().property_reads, 0u);
}

TEST(ObjectStoreTest, PropertyColumnReadsEveryLocal) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  std::vector<uint32_t> locals;
  std::vector<Oid> oids;
  for (int i = 0; i < 6; ++i) {
    Oid oid = store.CreateObject(cls).value();
    ASSERT_TRUE(store.SetProperty(oid, 0, Value::Int(i)).ok());
    locals.push_back(oid.local);
    oids.push_back(oid);
  }
  store.mutable_stats()->Reset();

  std::vector<Value> full;
  ASSERT_TRUE(store.GetPropertyColumn(cls, 0, locals, &full).ok());
  ASSERT_EQ(full.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(full[i], Value::Int(i));
  // Counted per object, with one stats bump for the column.
  EXPECT_EQ(store.stats().property_reads, 6u);

  // A bad slot or class is rejected before anything is read; a dangling
  // local stops the column and charges only what was read before it.
  std::vector<Value> out;
  EXPECT_FALSE(store.GetPropertyColumn(cls, 1, locals, &out).ok());
  EXPECT_FALSE(store.GetPropertyColumn(99, 0, locals, &out).ok());
  EXPECT_TRUE(out.empty());
  store.mutable_stats()->Reset();
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, {1, 2, 7}, &out).ok());
  EXPECT_EQ(store.stats().property_reads, 2u);
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, {0}, &out).ok());

  // The Oid-vector overload reads a range of an extent, and rejects
  // ranges out of bounds.
  std::vector<Value> tail;
  ASSERT_TRUE(store.GetPropertyColumn(cls, 0, oids, 4, 6, &tail).ok());
  EXPECT_EQ(tail, (std::vector<Value>{Value::Int(4), Value::Int(5)}));
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, oids, 4, 2, &out).ok());
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, oids, 0, 7, &out).ok());
}

TEST(ObjectStoreTest, RetainLiveDropsObjectsDeletedAtTheEpoch) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  std::vector<Oid> oids;
  for (int i = 0; i < 4; ++i) oids.push_back(store.CreateObject(cls).value());

  // No delete committed yet: the vector is left as it is, even with an
  // id the class never had.
  std::vector<Oid> hits = {oids[2], Oid(cls, 99), oids[0]};
  ASSERT_TRUE(store.RetainLive(cls, &hits).ok());
  EXPECT_EQ(hits, (std::vector<Oid>{oids[2], Oid(cls, 99), oids[0]}));

  const Epoch before = store.PinEpoch();
  auto committed = store.Apply({Mutation::Delete(oids[1])});
  ASSERT_TRUE(committed.ok());
  hits = oids;
  ASSERT_TRUE(store.RetainLive(cls, &hits).ok());
  EXPECT_EQ(hits, (std::vector<Oid>{oids[0], oids[2], oids[3]}));
  // A reader pinned before the delete still sees the object.
  hits = oids;
  ASSERT_TRUE(store.RetainLive(cls, &hits, before).ok());
  EXPECT_EQ(hits, oids);
  store.UnpinEpoch(before);

  // The unpinned single-object delete counts too.
  ASSERT_TRUE(store.DeleteObject(oids[3]).ok());
  hits = oids;
  ASSERT_TRUE(store.RetainLive(cls, &hits).ok());
  EXPECT_EQ(hits, (std::vector<Oid>{oids[0], oids[2]}));
  EXPECT_FALSE(store.RetainLive(99, &hits).ok());
}

TEST(ObjectStoreTest, DanglingOidRejected) {
  ObjectStore store;
  store.RegisterClass("Doc", 1);
  EXPECT_FALSE(store.GetProperty(Oid(1, 42), 0).ok());
  EXPECT_FALSE(store.Exists(Oid(7, 1)));
}

TEST(ObjectStoreTest, HistoryReadsCountOnlyPinnedReadsOfSupersededRows) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  std::vector<uint32_t> locals;
  for (int i = 0; i < 10; ++i) {
    Oid oid = store.CreateObject(cls).value();
    ASSERT_TRUE(store.SetProperty(oid, 0, Value::Int(i)).ok());
    locals.push_back(oid.local);
  }
  const Epoch before = store.PinEpoch();
  // k = 3 single-row updates, each its own commit.
  for (uint32_t local : {2u, 5u, 7u}) {
    ASSERT_TRUE(
        store.Apply({Mutation::Update(Oid(cls, local), {{0, Value::Int(-1)}})})
            .ok());
  }
  store.mutable_stats()->Reset();

  // The latest epoch reads only the head columns, though the class has
  // history.
  std::vector<Value> latest;
  ASSERT_TRUE(store.GetPropertyColumn(cls, 0, locals, &latest).ok());
  EXPECT_EQ(latest[1], Value::Int(-1));
  ASSERT_EQ(store.Extent(cls).value().size(), 10u);
  EXPECT_EQ(store.stats().history_reads, 0u);

  // The pinned reader resolves exactly the k updated rows from history,
  // and still does after a reclaim that its pin holds back.
  for (int pass = 0; pass < 2; ++pass) {
    store.mutable_stats()->Reset();
    std::vector<Value> pinned;
    ASSERT_TRUE(store.GetPropertyColumn(cls, 0, locals, &pinned, before).ok());
    EXPECT_EQ(store.stats().history_reads, 3u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(pinned[i], Value::Int(i));
    EXPECT_EQ(store.Reclaim(), 0u);
  }

  // Once the pin goes, reclaim frees the three superseded versions.
  store.UnpinEpoch(before);
  EXPECT_EQ(store.Reclaim(), 3u);
  EXPECT_EQ(store.Reclaim(), 0u);
}

// ------------------------------------------------------------------
// The store against a naive model that keeps one full copy of the store
// per committed epoch, under seeded random steps.

/// One row of the model: live or a tombstone, with its slot values.
struct ModelRow {
  bool live = true;
  std::vector<Value> slots;
};
/// Rows of one class at one epoch, row = local - 1.
using ModelClass = std::vector<ModelRow>;
/// The whole store at one epoch, indexed by class_id - 1.
using ModelState = std::vector<ModelClass>;

Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(static_cast<int64_t>(rng() % 50));
    default:
      return Value::String("s" + std::to_string(rng() % 50));
  }
}

class StoreModelHarness {
 public:
  explicit StoreModelHarness(uint64_t seed) : rng_(seed) {
    for (uint32_t slots : {2u, 3u}) {
      slot_counts_.push_back(slots);
      store_.RegisterClass("C" + std::to_string(slot_counts_.size()), slots);
    }
    deletes_.assign(slot_counts_.size(), 0);
    snapshots_[store_.CurrentEpoch()] = ModelState(slot_counts_.size());
  }

  ~StoreModelHarness() {
    for (Epoch pin : pins_) store_.UnpinEpoch(pin);
  }

  void Step() {
    switch (Pick(8)) {
      case 0:
      case 1:
      case 2:
        ApplyBatch();
        break;
      case 3:
      case 4:
        LegacyWrite();
        break;
      case 5:
      case 6:
        PinOrUnpin();
        break;
      default:
        store_.Reclaim();
        break;
    }
    // The model keeps the epochs a reader can still ask for.
    for (auto it = snapshots_.begin(); it != snapshots_.end();) {
      const bool pinned =
          std::find(pins_.begin(), pins_.end(), it->first) != pins_.end();
      it = (pinned || std::next(it) == snapshots_.end())
               ? std::next(it)
               : snapshots_.erase(it);
    }
    ASSERT_EQ(store_.CurrentEpoch(), LatestEpoch());
    CheckAt(kEpochLatest, Latest());
    for (Epoch pin : pins_) CheckAt(pin, snapshots_.at(pin));
  }

 private:
  uint32_t Pick(size_t n) { return static_cast<uint32_t>(rng_() % n); }
  Epoch LatestEpoch() const { return snapshots_.rbegin()->first; }
  ModelState& Latest() { return snapshots_.rbegin()->second; }
  uint32_t classes() const {
    return static_cast<uint32_t>(slot_counts_.size());
  }

  std::vector<std::pair<uint32_t, Value>> RandomSets(uint32_t cls) {
    std::vector<std::pair<uint32_t, Value>> sets;
    const uint32_t n = 1 + Pick(slot_counts_[cls - 1]);
    for (uint32_t i = 0; i < n; ++i) {
      sets.emplace_back(Pick(slot_counts_[cls - 1]), RandomValue(rng_));
    }
    return sets;
  }

  /// A random oid live in `state`, or the null Oid when there is none.
  Oid RandomLive(const ModelState& state) {
    std::vector<Oid> live;
    for (uint32_t cls = 1; cls <= classes(); ++cls) {
      const ModelClass& rows = state[cls - 1];
      for (uint32_t row = 0; row < rows.size(); ++row) {
        if (rows[row].live) live.emplace_back(cls, row + 1);
      }
    }
    return live.empty() ? Oid() : live[Pick(live.size())];
  }

  static void Set(ModelState* state, Oid oid,
                  const std::vector<std::pair<uint32_t, Value>>& sets) {
    for (const auto& [slot, value] : sets) {
      (*state)[oid.class_id - 1][oid.local - 1].slots[slot] = value;
    }
  }

  static void Kill(ModelState* state, Oid oid) {
    ModelRow& row = (*state)[oid.class_id - 1][oid.local - 1];
    row.live = false;
    for (Value& v : row.slots) v = Value::Null();
  }

  /// A random Apply batch of inserts, updates and deletes, with repeated
  /// updates of one row, updates collapsing into a delete, and now and
  /// then a batch that must be rejected whole.
  void ApplyBatch() {
    const ModelState& pre = Latest();
    ModelState next = pre;
    std::vector<Mutation> batch;
    std::vector<Oid> created;
    std::set<Oid> deleted;
    std::vector<uint64_t> deletes(classes(), 0);
    bool valid = true;
    const uint32_t n = 1 + Pick(4);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t kind = Pick(10);
      if (kind < 4) {
        const uint32_t cls = 1 + Pick(classes());
        auto sets = RandomSets(cls);
        ModelClass& rows = next[cls - 1];
        rows.push_back({true, std::vector<Value>(slot_counts_[cls - 1])});
        const Oid oid(cls, static_cast<uint32_t>(rows.size()));
        Set(&next, oid, sets);
        created.push_back(oid);
        batch.push_back(Mutation::Insert(cls, std::move(sets)));
        if (kind == 0 && Pick(3) == 0) {
          // Insert then delete in one batch: the delete validates
          // against the pre-batch state, where the oid does not exist.
          batch.push_back(Mutation::Delete(oid));
          valid = false;
        }
        continue;
      }
      const Oid oid = RandomLive(pre);
      if (oid.IsNull() || deleted.count(oid) != 0) continue;
      // Updates: one, or two of the same row, composing in order.
      const uint32_t updates = kind < 9 ? 1 + Pick(2) : Pick(2);
      for (uint32_t u = 0; u < updates; ++u) {
        auto sets = RandomSets(oid.class_id);
        Set(&next, oid, sets);
        batch.push_back(Mutation::Update(oid, std::move(sets)));
      }
      if (kind >= 8) {
        // A delete, collapsing any update above into the tombstone.
        batch.push_back(Mutation::Delete(oid));
        Kill(&next, oid);
        deleted.insert(oid);
        ++deletes[oid.class_id - 1];
        if (Pick(6) == 0) {
          batch.push_back(Mutation::Update(oid, RandomSets(oid.class_id)));
          valid = false;
        }
      }
    }

    auto result = store_.Apply(batch);
    if (!valid) {
      EXPECT_FALSE(result.ok());
      return;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (batch.empty()) {
      EXPECT_EQ(result->epoch, LatestEpoch());
      return;
    }
    EXPECT_EQ(result->epoch, LatestEpoch() + 1);
    EXPECT_EQ(result->created, created);
    for (uint32_t cls = 0; cls < classes(); ++cls) deletes_[cls] += deletes[cls];
    snapshots_[result->epoch] = std::move(next);
  }

  /// A single-object write: in place without pins, its own commit with.
  void LegacyWrite() {
    ModelState next = Latest();
    const Oid target = RandomLive(next);
    switch (Pick(4)) {
      case 0:
      case 1: {
        const uint32_t cls = 1 + Pick(classes());
        auto oid = store_.CreateObject(cls);
        ASSERT_TRUE(oid.ok());
        ModelClass& rows = next[cls - 1];
        rows.push_back({true, std::vector<Value>(slot_counts_[cls - 1])});
        EXPECT_EQ(*oid, Oid(cls, static_cast<uint32_t>(rows.size())));
        break;
      }
      case 2: {
        if (target.IsNull()) return;
        const uint32_t slot = Pick(slot_counts_[target.class_id - 1]);
        const Value value = RandomValue(rng_);
        ASSERT_TRUE(store_.SetProperty(target, slot, value).ok());
        Set(&next, target, {{slot, value}});
        break;
      }
      default: {
        if (target.IsNull()) return;
        ASSERT_TRUE(store_.DeleteObject(target).ok());
        EXPECT_FALSE(store_.DeleteObject(target).ok());
        Kill(&next, target);
        ++deletes_[target.class_id - 1];
        break;
      }
    }
    if (pins_.empty()) {
      Latest() = std::move(next);
    } else {
      snapshots_[LatestEpoch() + 1] = std::move(next);
    }
  }

  void PinOrUnpin() {
    if (!pins_.empty() && (pins_.size() >= 4 || Pick(2) == 0)) {
      const size_t i = Pick(pins_.size());
      store_.UnpinEpoch(pins_[i]);
      pins_.erase(pins_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
    const Epoch pin = store_.PinEpoch();
    EXPECT_EQ(pin, LatestEpoch());
    pins_.push_back(pin);
  }

  void CheckAt(Epoch at, const ModelState& state) {
    SCOPED_TRACE(at == kEpochLatest ? std::string("at the latest epoch")
                                    : "at pinned epoch " + std::to_string(at));
    for (uint32_t cls = 1; cls <= classes(); ++cls) {
      const ModelClass& rows = state[cls - 1];
      auto live_at = [&rows](uint32_t local) {
        return local >= 1 && local <= rows.size() && rows[local - 1].live;
      };
      // Probe every local the class has at the latest epoch, plus the
      // NIL local and one past the end.
      const uint32_t probe = static_cast<uint32_t>(Latest()[cls - 1].size()) + 1;
      std::vector<Oid> all;
      std::vector<Oid> live;
      std::vector<uint32_t> live_locals;
      uint32_t dead_local = 0;
      for (uint32_t local = 0; local <= probe; ++local) {
        const Oid oid(cls, local);
        all.push_back(oid);
        if (live_at(local)) {
          live.push_back(oid);
          live_locals.push_back(local);
        } else if (local != 0) {
          dead_local = local;
        }
        EXPECT_EQ(store_.Exists(oid, at), live_at(local)) << oid.ToString();
        for (uint32_t slot = 0; slot < slot_counts_[cls - 1]; ++slot) {
          auto got = store_.GetProperty(oid, slot, at);
          ASSERT_EQ(got.ok(), live_at(local)) << oid.ToString();
          if (got.ok()) {
            EXPECT_EQ(*got, rows[local - 1].slots[slot]);
          }
        }
      }

      auto extent = store_.Extent(cls, at);
      ASSERT_TRUE(extent.ok());
      EXPECT_EQ(*extent, live);
      EXPECT_EQ(store_.ExtentSize(cls, at).value(), live.size());
      // A class that never had a delete is left as it is (documented).
      std::vector<Oid> retained = all;
      ASSERT_TRUE(store_.RetainLive(cls, &retained, at).ok());
      EXPECT_EQ(retained, deletes_[cls - 1] == 0 ? all : live);

      for (uint32_t slot = 0; slot < slot_counts_[cls - 1]; ++slot) {
        std::vector<Value> expected;
        for (uint32_t local : live_locals) {
          expected.push_back(rows[local - 1].slots[slot]);
        }
        std::vector<Value> column;
        ASSERT_TRUE(
            store_.GetPropertyColumn(cls, slot, live_locals, &column, at).ok());
        EXPECT_EQ(column, expected);
        column.clear();
        ASSERT_TRUE(store_
                        .GetPropertyColumn(cls, slot, live, 0, live.size(),
                                           &column, at)
                        .ok());
        EXPECT_EQ(column, expected);

        // A local not live at `at` in mid-column: NotFound, after the
        // values before it.
        const size_t half = live_locals.size() / 2;
        std::vector<uint32_t> dangling(live_locals.begin(),
                                       live_locals.begin() + half);
        dangling.push_back(dead_local);
        dangling.push_back(live_locals.empty() ? 1 : live_locals.back());
        column.clear();
        Status status =
            store_.GetPropertyColumn(cls, slot, dangling, &column, at);
        EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
        EXPECT_EQ(column, std::vector<Value>(expected.begin(),
                                             expected.begin() + half));
      }
    }
  }

  std::mt19937_64 rng_;
  ObjectStore store_;
  std::vector<uint32_t> slot_counts_;
  /// Deletes ever committed per class: RetainLive's no-delete shortcut.
  std::vector<uint64_t> deletes_;
  std::vector<Epoch> pins_;
  /// The store at each committed epoch a reader can still ask for.
  std::map<Epoch, ModelState> snapshots_;
};

TEST(ObjectStoreModelTest, MatchesACopyPerEpochModel) {
  StoreModelHarness harness(testing::TestSeed());
  for (int step = 0; step < 400; ++step) {
    harness.Step();
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged at step " << step << " (seed "
             << testing::TestSeed() << ")";
    }
  }
}

TEST(ObjectStoreModelTest, PinnedColumnReadsRaceApplyAndReclaim) {
  constexpr uint32_t kSlots = 2;
  constexpr int kReaders = 2;
  constexpr size_t kMaxRecords = 400;
  ObjectStore store;
  const uint32_t cls = store.RegisterClass("C", kSlots);
  std::mt19937_64 rng(testing::TestSeed() ^ 0x5eed);
  ModelClass rows;
  for (int i = 0; i < 48; ++i) {
    Oid oid = store.CreateObject(cls).value();
    for (uint32_t slot = 0; slot < kSlots; ++slot) {
      ASSERT_TRUE(store.SetProperty(oid, slot, Value::Int(i)).ok());
    }
    rows.push_back({true, std::vector<Value>(kSlots, Value::Int(i))});
  }
  // Written by the writer only; read after the threads join.
  std::map<Epoch, ModelClass> snapshots;
  snapshots[store.CurrentEpoch()] = rows;

  struct Record {
    Epoch epoch = 0;
    std::vector<Oid> extent;
    std::vector<std::vector<Value>> columns;
  };
  std::vector<std::vector<Record>> records(kReaders);
  std::atomic<bool> done{false};
  std::atomic<int> read_errors{0};
  store.StartBackgroundReclaim();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        EpochPin pin(&store);
        Record record;
        record.epoch = pin.epoch();
        auto extent = store.Extent(cls, record.epoch);
        if (!extent.ok()) {
          read_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        record.extent = *extent;
        std::vector<uint32_t> locals;
        for (const Oid& oid : record.extent) locals.push_back(oid.local);
        record.columns.resize(kSlots);
        for (uint32_t slot = 0; slot < kSlots; ++slot) {
          if (!store
                   .GetPropertyColumn(cls, slot, locals,
                                      &record.columns[slot], record.epoch)
                   .ok()) {
            read_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (records[r].size() < kMaxRecords) {
          records[r].push_back(std::move(record));
        }
      }
    });
  }

  for (int commit = 0; commit < 300; ++commit) {
    std::vector<Mutation> batch;
    std::set<uint32_t> deleted;
    for (int i = 0, n = 1 + static_cast<int>(rng() % 3); i < n; ++i) {
      const uint32_t local = 1 + static_cast<uint32_t>(rng() % rows.size());
      const uint64_t kind = rng() % 4;
      if (kind == 0) {
        const Value v = Value::Int(static_cast<int64_t>(rng() % 1000));
        batch.push_back(Mutation::Insert(cls, {{0, v}, {1, v}}));
        rows.push_back({true, std::vector<Value>(kSlots, v)});
      } else if (rows[local - 1].live && deleted.count(local) == 0 &&
                 local <= snapshots.rbegin()->second.size()) {
        if (kind == 1) {
          batch.push_back(Mutation::Delete(Oid(cls, local)));
          rows[local - 1] = {false, std::vector<Value>(kSlots)};
          deleted.insert(local);
        } else {
          const Value v = Value::Int(static_cast<int64_t>(rng() % 1000));
          batch.push_back(Mutation::Update(Oid(cls, local), {{0, v}, {1, v}}));
          rows[local - 1].slots.assign(kSlots, v);
        }
      }
    }
    auto result = store.Apply(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    snapshots[result->epoch] = rows;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  store.StopBackgroundReclaim();

  EXPECT_EQ(read_errors.load(), 0);
  size_t checked = 0;
  for (const std::vector<Record>& mine : records) {
    for (const Record& record : mine) {
      const ModelClass& expect = snapshots.at(record.epoch);
      std::vector<Oid> live;
      for (uint32_t row = 0; row < expect.size(); ++row) {
        if (expect[row].live) live.emplace_back(cls, row + 1);
      }
      ASSERT_EQ(record.extent, live) << "epoch " << record.epoch;
      for (uint32_t slot = 0; slot < kSlots; ++slot) {
        ASSERT_EQ(record.columns[slot].size(), live.size());
        for (size_t i = 0; i < live.size(); ++i) {
          ASSERT_EQ(record.columns[slot][i],
                    expect[live[i].local - 1].slots[slot])
              << "epoch " << record.epoch << " " << live[i].ToString();
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace vodak

int main(int argc, char** argv) {
  return vodak::testing::RunAllTestsWithSeed(argc, argv,
                                             /*fallback=*/20261020);
}
