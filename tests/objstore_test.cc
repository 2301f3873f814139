#include <gtest/gtest.h>

#include "objstore/object_store.h"

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

TEST(ObjectStoreTest, PropertyColumnRangeScoped) {
  ObjectStore store;
  uint32_t cls = store.RegisterClass("Doc", 1);
  std::vector<uint32_t> locals;
  for (int i = 0; i < 6; ++i) {
    Oid oid = store.CreateObject(cls).value();
    ASSERT_TRUE(store.SetProperty(oid, 0, Value::Int(i)).ok());
    locals.push_back(oid.local);
  }
  store.mutable_stats()->Reset();

  // Disjoint slices of one shared locals vector, as morsel workers
  // read them; together they cover the column exactly.
  std::vector<Value> head;
  std::vector<Value> tail;
  ASSERT_TRUE(
      store.GetPropertyColumn(cls, 0, locals, 0, 4, &head).ok());
  ASSERT_TRUE(
      store.GetPropertyColumn(cls, 0, locals, 4, 6, &tail).ok());
  ASSERT_EQ(head.size(), 4u);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(head[0], Value::Int(0));
  EXPECT_EQ(head[3], Value::Int(3));
  EXPECT_EQ(tail[0], Value::Int(4));
  EXPECT_EQ(tail[1], Value::Int(5));
  // Still counted per object, like the full-column overload.
  EXPECT_EQ(store.stats().property_reads, 6u);

  // Out-of-bounds ranges are rejected.
  std::vector<Value> out;
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, locals, 4, 2, &out).ok());
  EXPECT_FALSE(store.GetPropertyColumn(cls, 0, locals, 0, 7, &out).ok());

  // The legacy whole-vector overload agrees with slice concatenation.
  std::vector<Value> full;
  ASSERT_TRUE(store.GetPropertyColumn(cls, 0, locals, &full).ok());
  ASSERT_EQ(full.size(), 6u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(full[i], head[i]);
  for (size_t i = 0; i < 2; ++i) EXPECT_EQ(full[4 + i], tail[i]);
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

}  // namespace
}  // namespace vodak
