// Paged segments with zone maps (docs/ARCHITECTURE.md §"Paged storage
// & segment skipping"). A class extent ingests into fixed-row-count
// segments: per segment, the OID column (a raw u32 locals array in the
// page file) and one in-memory zone map per property slot (min/max
// under the Value::Compare total order). Zone maps let scans refute
// whole segments against sargable predicates without touching a page.
//
// One version per class: each ingest replaces the class's
// SegmentVersion, stamped with the epoch it snapshots. A write commit
// drops the version before its epoch becomes visible, so no reader
// pinned at or above the commit can resolve it; readers that already
// hold the ref keep it alive (they pinned below the commit), and
// everyone else falls back to the in-memory extent until the class is
// re-ingested. Segment data is immutable once written — reclaim never
// touches it, and pinned pages only protect buffer-cache frames, not
// versions.
#ifndef VODAK_STORAGE_SEGMENT_STORE_H_
#define VODAK_STORAGE_SEGMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "expr/expr.h"
#include "objstore/epoch.h"
#include "storage/pager.h"
#include "types/value.h"

namespace vodak {

class ObjectStore;

namespace storage {

/// Per-slot min/max summary of one segment. min/max are taken over ALL
/// rows under the Value::Compare total order — nulls included, so an
/// all-null segment has min == max == NULL. That convention is what
/// makes pruning sound against the executor's compare semantics:
/// filters reduce `col op const` to Value::Compare (kNull orders below
/// every other kind and never errors), so the zone bounds bound every
/// row's compare result, null rows included.
struct ZoneMap {
  Value min;
  Value max;
};

/// One normalized sargable conjunct, `slot op constant` with the
/// column on the left (the collector flips constant-on-LHS compares).
/// Same shape the physical Filter compares against a once-read
/// operand column — one classifier feeds both (exec/sargable.h).
struct SlotPredicate {
  uint32_t slot = 0;
  BinOp op = BinOp::kEq;
  Value constant;
};

/// True when the zone proves no row of the segment can satisfy
/// `col op constant`.
bool ZoneRefutes(const ZoneMap& zone, BinOp op, const Value& constant);

/// A byte blob's location in the page file: `byte_size` bytes starting
/// at page `first_page`, spanning whole pages.
struct BlobRef {
  uint64_t first_page = 0;
  uint64_t byte_size = 0;
};

/// One segment: `row_count` consecutive extent rows, with the OID
/// column and one zone map per property slot.
struct Segment {
  uint32_t row_count = 0;
  BlobRef locals;              // row_count u32 locals, extent order
  std::vector<ZoneMap> zones;  // indexed by slot
};

/// True when `preds` (ANDed conjuncts) refute a row range summarized
/// by `zones` (indexed by slot). Predicates over slots outside `zones`
/// never refute.
bool ZonesRefute(const std::vector<ZoneMap>& zones,
                 const std::vector<SlotPredicate>& preds);

/// True when `preds` (ANDed conjuncts) refute the whole segment.
bool SegmentRefuted(const Segment& seg,
                    const std::vector<SlotPredicate>& preds);

/// The segments of one class as of epoch `begin`, in extent order.
struct SegmentVersion {
  uint32_t class_id = 0;
  Epoch begin = 0;
  uint64_t total_rows = 0;
  std::vector<Segment> segments;
};

using SegmentVersionRef = std::shared_ptr<const SegmentVersion>;

struct IngestOptions {
  /// Rows per segment (~64k by default: big enough that the
  /// per-segment directory entry amortizes, small enough that a zone
  /// refutation skips a meaningful page run).
  uint32_t rows_per_segment = 64 * 1024;
};

/// Pruning totals since construction/reset. Relaxed atomics read
/// quiescently by tests (segment_diff_test's
/// SegmentScansAgreeAcrossAllDrains requires scanned > 0 and
/// skipped > 0) and perfbench's per-read segment counters.
struct SegmentStoreStats {
  std::atomic<uint64_t> segments_scanned{0};
  std::atomic<uint64_t> segments_skipped{0};

  void Reset() {
    segments_scanned.store(0, std::memory_order_relaxed);
    segments_skipped.store(0, std::memory_order_relaxed);
  }
};

/// Segment directory + pager-backed OID storage for every ingested
/// class. Thread-safe: the directory mutex covers the directory only;
/// Segment/SegmentVersion objects are immutable after publication and
/// page access serializes inside the Pager.
class SegmentStore {
 public:
  /// Opens (creating) the single page file backing all segments.
  static Result<std::unique_ptr<SegmentStore>> Open(const std::string& path,
                                                    PagerOptions options);

  /// Snapshots class `class_id` of `store` at epoch `at` into a new
  /// SegmentVersion that replaces the class's current one. The caller
  /// keeps commits out until this returns (Database::RefreshSegments
  /// holds the write lock): a commit after `at` would be missing from
  /// a version served to readers pinned at or above it.
  Status IngestClass(const ObjectStore& store, uint32_t class_id,
                     uint32_t slot_count, Epoch at,
                     const IngestOptions& options = {}) EXCLUDES(mu_);

  /// Drops the class's version: a commit touching the class is about
  /// to publish, and its segment data will no longer be current. Called
  /// before the commit epoch becomes visible; no-op when none exists.
  void DropVersion(uint32_t class_id) EXCLUDES(mu_);

  /// The class's version when it can serve a snapshot at `at` (its
  /// ingest epoch is <= at), else null: the caller reads the
  /// in-memory extent.
  SegmentVersionRef VersionAt(uint32_t class_id, Epoch at) const
      EXCLUDES(mu_);

  /// Reads a segment's OID column (u32 locals, extent order). A blob
  /// whose size is not 4 * row_count is a Status, not a short read.
  Result<std::vector<uint32_t>> ReadLocals(const Segment& seg) const;

  /// Records one pruning decision round (scan-open time): bumped once
  /// per source construction, not per batch.
  void NotePruning(uint64_t scanned, uint64_t skipped) const {
    stats_.segments_scanned.fetch_add(scanned, std::memory_order_relaxed);
    stats_.segments_skipped.fetch_add(skipped, std::memory_order_relaxed);
  }

  const SegmentStoreStats& stats() const { return stats_; }
  SegmentStoreStats* mutable_stats() { return &stats_; }
  Pager* pager() { return pager_.get(); }
  const Pager* pager() const { return pager_.get(); }

 private:
  explicit SegmentStore(std::unique_ptr<Pager> pager)
      : pager_(std::move(pager)) {}

  Result<BlobRef> WriteBlob(const uint8_t* bytes, size_t size);
  Status ReadBlob(const BlobRef& ref, uint8_t* out) const;

  std::unique_ptr<Pager> pager_;

  mutable Mutex mu_;
  /// class_id -> the class's one version.
  std::unordered_map<uint32_t, SegmentVersionRef> directory_
      GUARDED_BY(mu_);

  mutable SegmentStoreStats stats_;
};

}  // namespace storage
}  // namespace vodak

#endif  // VODAK_STORAGE_SEGMENT_STORE_H_
