// Paged columnar segments with zone maps (docs/ARCHITECTURE.md
// §"Paged storage & segment skipping"). A class extent ingests into
// fixed-row-count column segments serialized through the Pager: per
// segment, the OID column (u32 locals) plus one value blob per
// property slot, and a per-slot zone map (min/max under the
// Value::Compare total order, null count). Zone maps let scans refute
// whole segments against sargable predicates without touching a page.
//
// Versioning mirrors MVCC: each ingest produces a SegmentVersion
// stamped [begin, end) in epochs. A write commit closes the open
// version (end = commit epoch), so snapshot readers pinned below the
// commit keep the segment path while later readers fall back to the
// in-memory extent until the class is re-ingested. Segment data is
// immutable once written — reclaim never touches it, and pinned pages
// only protect buffer-cache frames, not versions.
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
  /// False for untracked slots: an invalid zone never refutes.
  bool valid = false;
  Value min;
  Value max;
  uint64_t null_count = 0;
};

/// One normalized sargable conjunct, `slot op constant` with the
/// column on the left (the collector flips constant-on-LHS compares).
/// Same shape the VM's typed compare loops lower natively — one
/// classifier feeds both (exec/sargable.h).
struct SlotPredicate {
  uint32_t slot = 0;
  BinOp op = BinOp::kEq;
  Value constant;
};

/// True when the zone proves no row of the segment can satisfy
/// `col op constant`. Conservative: invalid zones never refute.
bool ZoneRefutes(const ZoneMap& zone, BinOp op, const Value& constant);

/// A byte blob's location in the page file: `byte_size` bytes starting
/// at page `first_page`, spanning whole pages.
struct BlobRef {
  uint64_t first_page = 0;
  uint64_t byte_size = 0;
};

/// One column segment: `row_count` consecutive extent rows starting at
/// extent position `first_row`, with the OID column and one value blob
/// + zone map per property slot.
struct Segment {
  uint64_t first_row = 0;
  uint32_t row_count = 0;
  BlobRef locals;
  std::vector<BlobRef> columns;  // indexed by slot
  std::vector<ZoneMap> zones;    // indexed by slot
};

/// True when `preds` (ANDed conjuncts) refute a row range summarized
/// by `zones` (indexed by slot): a segment's own zones, or a shared
/// scan morsel's merged ones. Predicates over slots outside `zones`
/// never refute.
bool ZonesRefute(const std::vector<ZoneMap>& zones,
                 const std::vector<SlotPredicate>& preds);

/// True when `preds` (ANDed conjuncts) refute the whole segment.
bool SegmentRefuted(const Segment& seg,
                    const std::vector<SlotPredicate>& preds);

/// The segments of one class at one epoch range, in extent order.
struct SegmentVersion {
  uint32_t class_id = 0;
  Epoch begin = 0;
  Epoch end = kEpochLatest;
  uint64_t total_rows = 0;
  std::vector<Segment> segments;
};

using SegmentVersionRef = std::shared_ptr<const SegmentVersion>;

struct IngestOptions {
  /// Rows per column segment (~64k by default: big enough that the
  /// per-segment directory entry amortizes, small enough that a zone
  /// refutation skips a meaningful page run).
  uint32_t rows_per_segment = 64 * 1024;
  /// Slots ingested without zone maps (blob still written). Exercised
  /// by the untracked-column tests: predicates over these slots must
  /// never skip a segment.
  std::vector<uint32_t> untracked_slots;
};

/// Pruning totals since construction/reset. Relaxed atomics read
/// quiescently by tests (segment_diff_test's
/// SegmentScansAgreeAcrossAllDrains requires scanned > 0 and
/// skipped > 0) and the cost model's survival-rate learning.
struct SegmentStoreStats {
  std::atomic<uint64_t> segments_scanned{0};
  std::atomic<uint64_t> segments_skipped{0};

  void Reset() {
    segments_scanned.store(0, std::memory_order_relaxed);
    segments_skipped.store(0, std::memory_order_relaxed);
  }
};

/// Segment directory + pager-backed column storage for every ingested
/// class. Thread-safe: the directory mutex covers version lists only;
/// Segment/SegmentVersion objects are immutable after publication and
/// page access serializes inside the Pager.
class SegmentStore {
 public:
  /// Opens (creating) the single page file backing all segments.
  static Result<std::unique_ptr<SegmentStore>> Open(const std::string& path,
                                                    PagerOptions options);

  /// Snapshots class `class_id` of `store` at epoch `at` into a new
  /// open SegmentVersion [at, kEpochLatest). An already-open version
  /// of the class is closed at `at` first (re-ingest after writes).
  Status IngestClass(const ObjectStore& store, uint32_t class_id,
                     uint32_t slot_count, Epoch at,
                     const IngestOptions& options = {}) EXCLUDES(mu_);

  /// Closes the class's open version at `end_epoch` (a write commit:
  /// segment data no longer reflects epochs >= end_epoch). Readers
  /// pinned below keep it; no-op when no version is open.
  void CloseVersions(uint32_t class_id, Epoch end_epoch) EXCLUDES(mu_);

  /// The version covering epoch `at` (kEpochLatest: the open version),
  /// or null when segments cannot serve that snapshot.
  SegmentVersionRef VersionAt(uint32_t class_id, Epoch at) const
      EXCLUDES(mu_);

  /// Decodes a segment's OID column (u32 locals, extent order).
  Result<std::vector<uint32_t>> ReadLocals(const Segment& seg) const;
  /// Decodes a segment's value column for `slot`.
  Status ReadColumn(const Segment& seg, uint32_t slot,
                    std::vector<Value>* out) const;

  /// Records one pruning decision round (scan-open time): bumped once
  /// per source construction, not per batch.
  void NotePruning(uint64_t scanned, uint64_t skipped) const {
    stats_.segments_scanned.fetch_add(scanned, std::memory_order_relaxed);
    stats_.segments_skipped.fetch_add(skipped, std::memory_order_relaxed);
  }

  /// Observed fraction of segments that survived pruning, in (0, 1];
  /// 1.0 before any pruning has been observed. The cost model prices
  /// segment scans by this (docs/ARCHITECTURE.md §"Cost model").
  double SurvivalRate() const;

  const SegmentStoreStats& stats() const { return stats_; }
  SegmentStoreStats* mutable_stats() { return &stats_; }
  Pager* pager() { return pager_.get(); }
  const Pager* pager() const { return pager_.get(); }

 private:
  explicit SegmentStore(std::unique_ptr<Pager> pager)
      : pager_(std::move(pager)) {}

  Result<BlobRef> WriteBlob(const std::string& bytes);
  Result<std::string> ReadBlob(const BlobRef& ref) const;

  std::unique_ptr<Pager> pager_;

  mutable Mutex mu_;
  /// class_id -> versions ascending by begin; at most the last is open.
  std::unordered_map<uint32_t, std::vector<SegmentVersionRef>> directory_
      GUARDED_BY(mu_);

  mutable SegmentStoreStats stats_;
};

}  // namespace storage
}  // namespace vodak

#endif  // VODAK_STORAGE_SEGMENT_STORE_H_
