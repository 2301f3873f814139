// The paged-storage unit suite (docs/ARCHITECTURE.md §"Paged storage
// & segment skipping"): the Pager's buffer cache (hit/miss/evict
// counters, pin/unpin RAII, the all-pinned hard cap, eviction under
// concurrent pinned readers), the segment layout (OID pages only, the
// OID blob size check), the zone-map pruning rule's edge cases —
// all-null segments, boundary equality — and the one-version rule.
// Randomized legs seed through tests/test_seed.h (--seed=N /
// VODAK_TEST_SEED=N replays a failure exactly).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "objstore/object_store.h"
#include "schema/catalog.h"
#include "storage/pager.h"
#include "storage/segment_store.h"
#include "types/value.h"

#include "test_seed.h"

namespace vodak {
namespace storage {
namespace {

/// A fresh page-file path per test; the previous run's file is removed
/// so every test starts from an empty file.
std::string TempPath(const char* name) {
  std::string path = ::testing::TempDir() + "vodak_" + name + ".pages";
  std::remove(path.c_str());
  return path;
}

// ------------------------------------------------------------- Pager

TEST(PagerTest, WriteThenReadBackAcrossReopen) {
  const std::string path = TempPath("pager_roundtrip");
  PagerOptions options;
  options.page_size = 4096;
  options.cache_pages = 4;
  {
    auto pager = Pager::Open(path, options);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    const uint64_t first = pager.value()->Allocate(3);
    EXPECT_EQ(first, 0u);
    for (uint64_t p = 0; p < 3; ++p) {
      auto pin = pager.value()->Pin(p);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      uint8_t* bytes = pin.value().mutable_data();
      for (size_t i = 0; i < options.page_size; ++i) {
        bytes[i] = static_cast<uint8_t>((p * 131 + i) & 0xff);
      }
    }
    ASSERT_TRUE(pager.value()->Flush().ok());
  }
  // Reopen: the cache is cold, so every byte comes back from the file.
  auto pager = Pager::Open(path, options);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  for (uint64_t p = 0; p < 3; ++p) {
    auto pin = pager.value()->Pin(p);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    for (size_t i = 0; i < options.page_size; ++i) {
      ASSERT_EQ(pin.value().data()[i],
                static_cast<uint8_t>((p * 131 + i) & 0xff))
          << "page " << p << " byte " << i;
    }
  }
  EXPECT_EQ(pager.value()->stats().cache_misses.load(
                std::memory_order_relaxed),
            3u);
}

TEST(PagerTest, CacheHitsAndEvictionsUnderSmallBudget) {
  const std::string path = TempPath("pager_evict");
  PagerOptions options;
  options.page_size = 1024;
  options.cache_pages = 2;
  auto pager = Pager::Open(path, options);
  ASSERT_TRUE(pager.ok());
  const uint64_t pages = 6;
  pager.value()->Allocate(pages);
  for (uint64_t p = 0; p < pages; ++p) {
    auto pin = pager.value()->Pin(p);
    ASSERT_TRUE(pin.ok());
    pin.value().mutable_data()[0] = static_cast<uint8_t>(p + 1);
  }
  const PagerStats& stats = pager.value()->stats();
  // 6 distinct pages through 2 frames: every fault past the first two
  // evicts a dirty victim, which writes back first.
  EXPECT_EQ(stats.cache_misses.load(std::memory_order_relaxed), pages);
  EXPECT_EQ(stats.evictions.load(std::memory_order_relaxed), pages - 2);
  EXPECT_EQ(stats.writebacks.load(std::memory_order_relaxed), pages - 2);
  // Re-pinning a resident page is a hit; the evicted bytes survive.
  const uint64_t hits_before =
      stats.cache_hits.load(std::memory_order_relaxed);
  auto resident = pager.value()->Pin(pages - 1);
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(stats.cache_hits.load(std::memory_order_relaxed),
            hits_before + 1);
  auto evicted = pager.value()->Pin(0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted.value().data()[0], 1);
}

TEST(PagerTest, PinFailsWhenEveryFrameIsPinned) {
  const std::string path = TempPath("pager_allpinned");
  PagerOptions options;
  options.page_size = 512;
  options.cache_pages = 2;
  auto pager = Pager::Open(path, options);
  ASSERT_TRUE(pager.ok());
  pager.value()->Allocate(3);
  auto a = pager.value()->Pin(0);
  auto b = pager.value()->Pin(1);
  ASSERT_TRUE(a.ok() && b.ok());
  // The budget is a hard cap: the third pin errors instead of evicting
  // a wired frame (or deadlocking).
  auto c = pager.value()->Pin(2);
  EXPECT_FALSE(c.ok());
  // Dropping one pin frees a frame and the same pin succeeds.
  { PinnedPage dropped = std::move(a.value()); }
  auto retry = pager.value()->Pin(2);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(PagerTest, ConcurrentPinnedReadersUnderEvictionChurn) {
  const std::string path = TempPath("pager_concurrent");
  PagerOptions options;
  options.page_size = 256;
  // 3 readers each hold one pin; one spare frame keeps eviction
  // churning without ever hitting the all-pinned cap.
  options.cache_pages = 4;
  auto pager = Pager::Open(path, options);
  ASSERT_TRUE(pager.ok());
  const uint64_t pages = 16;
  pager.value()->Allocate(pages);
  for (uint64_t p = 0; p < pages; ++p) {
    auto pin = pager.value()->Pin(p);
    ASSERT_TRUE(pin.ok());
    pin.value().mutable_data()[7] = static_cast<uint8_t>(p * 3 + 1);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(testing::TestSeed() + r);
      for (int iter = 0; iter < 400; ++iter) {
        const uint64_t p = rng() % pages;
        auto pin = pager.value()->Pin(p);
        if (!pin.ok()) {
          // The cap can trip only if all 4 frames are momentarily
          // pinned — impossible with 3 single-pin readers.
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // A pinned frame is wired: the byte must stay valid (and
        // correct) across the sibling readers' eviction traffic.
        if (pin.value().data()[7] !=
            static_cast<uint8_t>(p * 3 + 1)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_GT(pager.value()->stats().evictions.load(
                std::memory_order_relaxed),
            0u);
}

// ---------------------------------------------------- zone-map pruning

ZoneMap IntZone(int64_t min, int64_t max) {
  ZoneMap zone;
  zone.min = Value::Int(min);
  zone.max = Value::Int(max);
  return zone;
}

TEST(ZoneMapTest, RefutationTruthTable) {
  const ZoneMap zone = IntZone(10, 20);
  struct Case {
    BinOp op;
    int64_t constant;
    bool refuted;
  };
  const Case cases[] = {
      // kEq: skip iff the constant falls outside [min, max].
      {BinOp::kEq, 9, true},    {BinOp::kEq, 10, false},
      {BinOp::kEq, 15, false},  {BinOp::kEq, 20, false},
      {BinOp::kEq, 21, true},
      // kNe: skip only when every row equals the constant (min == max
      // == constant); a widened zone can never prove that.
      {BinOp::kNe, 15, false},  {BinOp::kNe, 10, false},
      // kLt: skip when even the minimum is >= the constant.
      {BinOp::kLt, 10, true},   {BinOp::kLt, 11, false},
      {BinOp::kLt, 5, true},
      // kLe: skip when even the minimum is > the constant.
      {BinOp::kLe, 9, true},    {BinOp::kLe, 10, false},
      // kGt: skip when even the maximum is <= the constant.
      {BinOp::kGt, 20, true},   {BinOp::kGt, 19, false},
      {BinOp::kGt, 25, true},
      // kGe: skip when even the maximum is < the constant.
      {BinOp::kGe, 21, true},   {BinOp::kGe, 20, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ZoneRefutes(zone, c.op, Value::Int(c.constant)), c.refuted)
        << "op " << static_cast<int>(c.op) << " const " << c.constant;
  }
  // The single-point zone is the one shape kNe can refute.
  EXPECT_TRUE(ZoneRefutes(IntZone(15, 15), BinOp::kNe, Value::Int(15)));
  EXPECT_FALSE(ZoneRefutes(IntZone(15, 15), BinOp::kNe, Value::Int(14)));
}

TEST(ZoneMapTest, ZonesRefuteIsConjunctiveAndSlotBounded) {
  std::vector<ZoneMap> zones = {IntZone(0, 5), IntZone(100, 200)};
  // One refuting conjunct suffices.
  EXPECT_TRUE(ZonesRefute(
      zones, {{0, BinOp::kGt, Value::Int(50)},
              {1, BinOp::kEq, Value::Int(150)}}));
  // No conjunct refutes: the segment survives.
  EXPECT_FALSE(ZonesRefute(
      zones, {{0, BinOp::kLe, Value::Int(5)},
              {1, BinOp::kGe, Value::Int(100)}}));
  // A predicate over a slot beyond the zone vector can never refute
  // (shared-scan morsel zones may be shorter than the slot space).
  EXPECT_FALSE(ZonesRefute(zones, {{7, BinOp::kEq, Value::Int(-1)}}));
  EXPECT_TRUE(ZonesRefute({}, {}) == false);
}

// --------------------------------------- SegmentStore ingest + skipping

class SegmentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cls = catalog_.DefineClass("Item");
    ASSERT_TRUE(cls.ok());
    ASSERT_TRUE(cls.value()->AddProperty("tracked", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("mod10", Type::Int()).ok());
    ASSERT_TRUE(cls.value()->AddProperty("allnull", Type::Int()).ok());
    class_id_ = cls.value()->class_id();
    ASSERT_EQ(store_.RegisterClass("Item", 3), class_id_);
  }

  void Populate(int rows) {
    for (int i = 0; i < rows; ++i) {
      auto oid = store_.CreateObject(class_id_);
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 0, Value::Int(i)).ok());
      ASSERT_TRUE(
          store_.SetProperty(oid.value(), 1, Value::Int(i % 10)).ok());
      // Slot 2 stays unset on every object: the all-null column.
    }
  }

  std::unique_ptr<SegmentStore> OpenStore(const char* name,
                                          uint32_t rows_per_segment) {
    PagerOptions pager;
    pager.page_size = 4096;
    pager.cache_pages = 8;
    auto segments = SegmentStore::Open(TempPath(name), pager);
    EXPECT_TRUE(segments.ok()) << segments.status().ToString();
    ingest_.rows_per_segment = rows_per_segment;
    return std::move(segments.value());
  }

  Catalog catalog_;
  ObjectStore store_;
  uint32_t class_id_ = 0;
  IngestOptions ingest_;
};

TEST_F(SegmentStoreTest, IngestRoundTripsLocals) {
  Populate(250);
  auto segments = OpenStore("seg_roundtrip", 100);
  const Epoch at = store_.CurrentEpoch();
  ASSERT_TRUE(
      segments->IngestClass(store_, class_id_, 3, at, ingest_).ok());
  SegmentVersionRef version = segments->VersionAt(class_id_, at);
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->total_rows, 250u);
  ASSERT_EQ(version->segments.size(), 3u);  // 100 + 100 + 50
  auto extent = store_.Extent(class_id_, at);
  ASSERT_TRUE(extent.ok());
  size_t row = 0;
  for (const Segment& seg : version->segments) {
    auto locals = segments->ReadLocals(seg);
    ASSERT_TRUE(locals.ok()) << locals.status().ToString();
    ASSERT_EQ(locals.value().size(), seg.row_count);
    for (size_t i = 0; i < locals.value().size(); ++i, ++row) {
      EXPECT_EQ(locals.value()[i], extent.value()[row].local);
    }
  }
  EXPECT_EQ(row, 250u);
  // ReadOids is the same walk, pruned: `tracked < 100` keeps only the
  // first segment.
  PruneCounts counts;
  auto all = segments->ReadOids(*version, {}, &counts);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value(), extent.value());
  EXPECT_EQ(counts.scanned, 3u);
  EXPECT_EQ(counts.skipped, 0u);
  auto pruned = segments->ReadOids(
      *version, {{0, BinOp::kLt, Value::Int(100)}}, &counts);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned.value(),
            std::vector<Oid>(extent.value().begin(),
                             extent.value().begin() + 100));
  EXPECT_EQ(counts.scanned, 1u);
  EXPECT_EQ(counts.skipped, 2u);
}

// The page file holds the OID columns and nothing else: one u32 per
// row, each segment rounded up to whole pages. Zone maps live in
// memory.
TEST_F(SegmentStoreTest, PageFileHoldsOnlyOidPages) {
  Populate(2500);
  PagerOptions pager;
  pager.page_size = 4096;  // 1,024 locals per page
  pager.cache_pages = 8;
  auto opened = SegmentStore::Open(TempPath("seg_oid_pages"), pager);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<SegmentStore> segments = std::move(opened.value());
  ingest_.rows_per_segment = 1500;
  const Epoch at = store_.CurrentEpoch();
  ASSERT_TRUE(
      segments->IngestClass(store_, class_id_, 3, at, ingest_).ok());
  SegmentVersionRef version = segments->VersionAt(class_id_, at);
  ASSERT_NE(version, nullptr);
  uint64_t expected = 0;
  for (const Segment& seg : version->segments) {
    EXPECT_EQ(seg.locals.byte_size, 4u * seg.row_count);
    expected += (4u * seg.row_count + pager.page_size - 1) / pager.page_size;
  }
  EXPECT_EQ(expected, 3u);  // 1,500 rows -> 2 pages, 1,000 rows -> 1
  EXPECT_EQ(segments->pager()->page_count(), expected);
}

// A segment whose OID blob is not 4 * row_count bytes is refused with
// a Status instead of a short or over-long read.
TEST_F(SegmentStoreTest, OidBlobSizeMismatchIsAStatus) {
  Populate(10);
  auto segments = OpenStore("seg_blob_size", 64);
  const Epoch at = store_.CurrentEpoch();
  ASSERT_TRUE(
      segments->IngestClass(store_, class_id_, 3, at, ingest_).ok());
  SegmentVersionRef version = segments->VersionAt(class_id_, at);
  ASSERT_NE(version, nullptr);
  Segment bad = version->segments[0];
  bad.row_count += 1;
  EXPECT_FALSE(segments->ReadLocals(bad).ok());
  bad.row_count -= 2;
  EXPECT_FALSE(segments->ReadLocals(bad).ok());
  EXPECT_TRUE(segments->ReadLocals(version->segments[0]).ok());
}

TEST_F(SegmentStoreTest, ZoneBoundsMatchSegmentRowRanges) {
  Populate(250);
  auto segments = OpenStore("seg_zones", 100);
  const Epoch at = store_.CurrentEpoch();
  ASSERT_TRUE(
      segments->IngestClass(store_, class_id_, 3, at, ingest_).ok());
  SegmentVersionRef version = segments->VersionAt(class_id_, at);
  ASSERT_NE(version, nullptr);
  const Segment& first = version->segments[0];
  ASSERT_EQ(first.zones.size(), 3u);
  EXPECT_EQ(first.zones[0].min, Value::Int(0));
  EXPECT_EQ(first.zones[0].max, Value::Int(99));
  EXPECT_EQ(first.zones[1].min, Value::Int(0));
  EXPECT_EQ(first.zones[1].max, Value::Int(9));
  // Slot 2 is all-null: min == max == NULL under the total order.
  EXPECT_TRUE(first.zones[2].min.is_null());
  EXPECT_TRUE(first.zones[2].max.is_null());

  // Tracked-slot pruning works segment by segment: `tracked == 150`
  // lives only in the middle segment.
  const std::vector<SlotPredicate> eq150 = {
      {0, BinOp::kEq, Value::Int(150)}};
  EXPECT_TRUE(SegmentRefuted(version->segments[0], eq150));
  EXPECT_FALSE(SegmentRefuted(version->segments[1], eq150));
  EXPECT_TRUE(SegmentRefuted(version->segments[2], eq150));
}

TEST_F(SegmentStoreTest, AllNullSegmentPruning) {
  Populate(50);
  auto segments = OpenStore("seg_allnull", 64);
  const Epoch at = store_.CurrentEpoch();
  ASSERT_TRUE(
      segments->IngestClass(store_, class_id_, 3, at, ingest_).ok());
  SegmentVersionRef version = segments->VersionAt(class_id_, at);
  ASSERT_NE(version, nullptr);
  const Segment& seg = version->segments[0];
  // NULL orders below every int, so `allnull == 5` can hold on no row
  // (skip), while `allnull < 5` holds on EVERY row under the executor's
  // total-order compare (must not skip).
  EXPECT_TRUE(SegmentRefuted(seg, {{2, BinOp::kEq, Value::Int(5)}}));
  EXPECT_TRUE(SegmentRefuted(seg, {{2, BinOp::kGe, Value::Int(5)}}));
  EXPECT_TRUE(SegmentRefuted(seg, {{2, BinOp::kGt, Value::Int(5)}}));
  EXPECT_FALSE(SegmentRefuted(seg, {{2, BinOp::kLt, Value::Int(5)}}));
  EXPECT_FALSE(SegmentRefuted(seg, {{2, BinOp::kLe, Value::Int(5)}}));
  EXPECT_FALSE(SegmentRefuted(seg, {{2, BinOp::kNe, Value::Int(5)}}));
  // NULL == NULL under the total order: an all-null segment survives
  // an equality against NULL, and kNe against NULL refutes it.
  EXPECT_FALSE(SegmentRefuted(seg, {{2, BinOp::kEq, Value::Null()}}));
  EXPECT_TRUE(SegmentRefuted(seg, {{2, BinOp::kNe, Value::Null()}}));
}

TEST_F(SegmentStoreTest, OneVersionPerClassDroppedBeforeCommit) {
  Populate(50);
  auto segments = OpenStore("seg_versions", 64);
  const Epoch first = store_.CurrentEpoch() + 1;
  ASSERT_TRUE(
      segments->IngestClass(store_, class_id_, 3, first, ingest_).ok());
  // The version serves every snapshot at or above its ingest epoch,
  // and none below it.
  SegmentVersionRef held = segments->VersionAt(class_id_, first);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(segments->VersionAt(class_id_, first + 1), held);
  EXPECT_EQ(segments->VersionAt(class_id_, kEpochLatest), held);
  EXPECT_EQ(segments->VersionAt(class_id_, first - 1), nullptr);
  // A commit drops it before its epoch is published: nobody resolves
  // it any more, at any epoch, while a reader that already held the
  // ref keeps reading intact segments.
  segments->DropVersion(class_id_);
  EXPECT_EQ(segments->VersionAt(class_id_, first), nullptr);
  EXPECT_EQ(segments->VersionAt(class_id_, kEpochLatest), nullptr);
  auto locals = segments->ReadLocals(held->segments[0]);
  ASSERT_TRUE(locals.ok()) << locals.status().ToString();
  EXPECT_EQ(locals.value().size(), 50u);
  segments->DropVersion(class_id_);  // nothing left: a no-op
  // Re-ingest publishes a replacement that serves only snapshots at or
  // above its own epoch; older snapshots read the in-memory extent.
  ASSERT_TRUE(segments
                  ->IngestClass(store_, class_id_, 3, first + 5, ingest_)
                  .ok());
  ASSERT_NE(segments->VersionAt(class_id_, kEpochLatest), nullptr);
  ASSERT_NE(segments->VersionAt(class_id_, first + 5), nullptr);
  EXPECT_EQ(segments->VersionAt(class_id_, first + 4), nullptr);
  EXPECT_EQ(segments->VersionAt(class_id_, first), nullptr);
}

TEST_F(SegmentStoreTest, SurvivalRateTracksPruningCounters) {
  Populate(10);
  auto segments = OpenStore("seg_survival", 64);
  EXPECT_EQ(segments->SurvivalRate(), 1.0);  // nothing observed yet
  segments->NotePruning(1, 3);
  EXPECT_DOUBLE_EQ(segments->SurvivalRate(), 0.25);
  segments->NotePruning(0, 16);  // floor: never priced below 1%
  EXPECT_DOUBLE_EQ(segments->SurvivalRate(), 0.05);
  segments->mutable_stats()->Reset();
  EXPECT_EQ(segments->SurvivalRate(), 1.0);
}

}  // namespace
}  // namespace storage
}  // namespace vodak

int main(int argc, char** argv) {
  return vodak::testing::RunAllTestsWithSeed(argc, argv,
                                             /*fallback=*/20260809);
}
