// Shared scans: one extent pass fanned out to many concurrent queries
// (docs/ARCHITECTURE.md §"Shared scans"). The inverse of the morsel
// pipeline — MorselSource partitions one scan across the workers of
// one query; a SharedScan broadcasts one scan to every attached query.
#ifndef VODAK_EXEC_SHARED_SCAN_H_
#define VODAK_EXEC_SHARED_SCAN_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/morsel_source.h"
#include "objstore/property_cache.h"
#include "storage/segment_store.h"
#include "types/value.h"

namespace vodak {
namespace exec {

/// One shared scan: a source (class extent or method-scan result)
/// materialized exactly once, split into fixed-boundary morsels, plus
/// the batch fan-out clock. Unlike MorselSource — whose atomic cursor
/// *partitions* the morsels among one query's workers — a SharedScan
/// hands **every** morsel to **every** attached consumer exactly once:
/// a consumer walks the morsel ring from its attach position, so a
/// late-arriving query joins the scan wherever it currently is and
/// circles back for the morsels it missed.
///
/// Configured single-threaded by the manager's materialization
/// (call_once); afterwards only the relaxed clock mutates.
class SharedScan {
 public:
  SharedScan() = default;
  SharedScan(const SharedScan&) = delete;
  SharedScan& operator=(const SharedScan&) = delete;

  void InitExtent(std::shared_ptr<const std::vector<Oid>> extent,
                  size_t morsel_size);
  void InitElements(ValueSet elements, size_t morsel_size);

  size_t total() const { return total_; }
  size_t morsel_count() const { return morsel_count_; }
  /// Fixed morsel boundaries: morsel i covers
  /// [i * morsel_size, min((i+1) * morsel_size, total)).
  Morsel MorselAt(size_t index) const {
    Morsel m;
    m.begin = index * morsel_size_;
    m.end = std::min(m.begin + morsel_size_, total_);
    return m;
  }
  /// The i-th scan row (an Oid value for extents, the materialized
  /// element otherwise).
  Value ValueAt(size_t i) const {
    return extent_ != nullptr ? Value::OfOid((*extent_)[i])
                              : elements_[i];
  }

  bool is_extent() const { return extent_ != nullptr; }
  const std::shared_ptr<const std::vector<Oid>>& extent() const {
    return extent_;
  }

  /// Per-morsel per-slot zone maps, set when the extent materialized
  /// from the segment store (empty otherwise). The ring is shared by
  /// queries with *different* predicates, so the scan only carries the
  /// bounds; each consumer's SharedBatchSource evaluates its own
  /// query's sargable predicates against them and skips refuted
  /// morsels privately.
  void SetMorselZones(std::vector<std::vector<storage::ZoneMap>> zones) {
    morsel_zones_ = std::move(zones);
  }
  /// Zones of morsel `index`, or null when none are known.
  const std::vector<storage::ZoneMap>* MorselZones(size_t index) const {
    return index < morsel_zones_.size() ? &morsel_zones_[index] : nullptr;
  }

  /// Where a consumer attaching *now* starts its ring walk: the morsel
  /// the group most recently claimed. Purely a locality hint — a late
  /// attacher rides along with the in-flight scan and wraps around for
  /// the prefix it missed; exactly-once per consumer holds for any
  /// start.
  size_t AttachStart() const {
    return morsel_count_ == 0
               ? 0
               : clock_.load(std::memory_order_relaxed) % morsel_count_;
  }
  void NoteClaim(size_t morsel_index) {
    clock_.store(morsel_index + 1, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const std::vector<Oid>> extent_;
  ValueSet elements_;
  std::vector<std::vector<storage::ZoneMap>> morsel_zones_;
  size_t total_ = 0;
  size_t morsel_size_ = kDefaultMorselSize;
  size_t morsel_count_ = 0;
  std::atomic<size_t> clock_{0};
};

/// One query's pass over a shared scan. Each consumer sees every morsel
/// of the scan exactly once, in ring order from its attach position.
/// Not thread-safe (a consumer belongs to one query's drain); distinct
/// consumers of one scan are independent.
class SharedScanConsumer {
 public:
  SharedScanConsumer() = default;
  explicit SharedScanConsumer(SharedScan* scan)
      : scan_(scan), start_(scan->AttachStart()) {}

  bool attached() const { return scan_ != nullptr; }
  const SharedScan& scan() const { return *scan_; }

  /// Claims this consumer's next morsel; false once it has seen the
  /// whole ring. `index` (optional) reports the ring position, the key
  /// into the scan's per-morsel zone maps.
  bool Next(Morsel* morsel, size_t* index = nullptr) {
    if (scan_ == nullptr || consumed_ >= scan_->morsel_count()) {
      return false;
    }
    const size_t at = (start_ + consumed_) % scan_->morsel_count();
    ++consumed_;
    scan_->NoteClaim(at);
    *morsel = scan_->MorselAt(at);
    if (index != nullptr) *index = at;
    return true;
  }

 private:
  SharedScan* scan_ = nullptr;
  size_t start_ = 0;
  size_t consumed_ = 0;
};

/// Registry of the shared scans of one concurrent query batch, keyed on
/// the scan source: a class extent (`extent:<class_id>`) or a closed
/// method-scan expression (`expr:<expr string>`). The first attach (or
/// SharedExtent call) materializes the source — one store Extent() /
/// one method dispatch for the whole batch — under a per-slot
/// once_flag; every query thereafter attaches a consumer to the same
/// materialization. The manager also owns the batch's
/// PropertyColumnCache, so attached queries share column reads as well
/// as the scan pass.
///
/// Lifetime: created per ExecuteConcurrent call (or per generation
/// drain); queries must not outlive the manager.
///
/// Version-aware: a manager is constructed against one snapshot epoch
/// (the epoch its batch or generation pinned at admission) and
/// materializes every extent, and seeds every cache column, at that
/// epoch — so a generation drains against its pinned epoch no matter
/// how many writer batches commit mid-drain, and a manager built after
/// a commit reads entirely fresh state. The default (kEpochLatest)
/// resolves per store call, which is only safe for the read-only
/// single-batch uses that predate the write path.
class SharedScanManager {
 public:
  /// `segments` (optional) backs extent materialization with the paged
  /// segment store: extents whose snapshot a SegmentVersion covers are
  /// read segment-by-segment through the pager, and the ring carries
  /// per-morsel zone maps so consumers can skip refuted morsels.
  explicit SharedScanManager(ObjectStore* store,
                             size_t morsel_size = kDefaultMorselSize,
                             Epoch snapshot = kEpochLatest,
                             const storage::SegmentStore* segments = nullptr)
      : store_(store),
        morsel_size_(morsel_size == 0 ? 1 : morsel_size),
        snapshot_(snapshot),
        segments_(segments),
        cache_(store) {}
  SharedScanManager(const SharedScanManager&) = delete;
  SharedScanManager& operator=(const SharedScanManager&) = delete;

  /// The materialize-once extent of `class_id` (one store Extent()
  /// call per class per manager), as the ring's consumers see it.
  Result<std::shared_ptr<const std::vector<Oid>>> SharedExtent(
      uint32_t class_id) EXCLUDES(mu_);

  /// Attaches a consumer to the shared scan over `class_id`'s extent.
  Result<SharedScanConsumer> AttachExtent(uint32_t class_id)
      EXCLUDES(mu_);

  /// Attaches a consumer to the shared scan over the set produced by
  /// `materialize` (a closed method-scan parameter); `key` identifies
  /// the source (the expression's string form). `materialize` runs
  /// once per key, on the first attacher.
  Result<SharedScanConsumer> AttachSource(
      const std::string& key,
      const std::function<Result<Value>()>& materialize) EXCLUDES(mu_);

  /// The batch's cross-query property-column cache.
  PropertyColumnCache* property_cache() { return &cache_; }

  /// The epoch every source of this manager materializes at.
  Epoch snapshot() const { return snapshot_; }

  /// The segment store backing extent materialization (null: extents
  /// read from the in-memory store).
  const storage::SegmentStore* segments() const { return segments_; }

  /// Distinct sources materialized so far (== scan passes paid).
  size_t materialized_scans() const {
    return materialized_.load(std::memory_order_relaxed);
  }

  /// Consumers attached so far across all slots (== leaf passes the
  /// manager served; materialized_scans() of them were paid for).
  size_t consumers_attached() const {
    return consumers_.load(std::memory_order_relaxed);
  }

  /// Canonical slot keys, shared with the service's admission policy:
  /// a plan's scan-leaf keys are computed with these so "does the
  /// in-flight generation already cover this query's sources?" is a
  /// string-set intersection against SourceKeys().
  static std::string ExtentKey(uint32_t class_id) {
    return "extent:" + std::to_string(class_id);
  }
  static std::string ExprKey(const std::string& expr) {
    return "expr:" + expr;
  }

  /// True when a slot for `key` exists (some query already asked for
  /// the source — it is materialized or being materialized right now).
  bool HasSource(const std::string& key) const EXCLUDES(mu_);

  /// Snapshot of the slot keys known to this manager.
  std::vector<std::string> SourceKeys() const EXCLUDES(mu_);

 private:
  struct Slot {
    std::once_flag once;
    Status status = Status::OK();
    SharedScan scan;
  };

  std::shared_ptr<Slot> SlotFor(const std::string& key) EXCLUDES(mu_);
  Result<Slot*> EnsureExtentSlot(uint32_t class_id) EXCLUDES(mu_);

  ObjectStore* store_;
  size_t morsel_size_;
  Epoch snapshot_;
  const storage::SegmentStore* segments_;
  PropertyColumnCache cache_;
  /// Guards the slot map only; a Slot's contents are published by its
  /// own once_flag (call_once is the synchronization), not by mu_.
  /// Mutable: the const observers HasSource/SourceKeys lock it too.
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Slot>> slots_ GUARDED_BY(mu_);
  std::atomic<size_t> materialized_{0};
  std::atomic<size_t> consumers_{0};
};

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_SHARED_SCAN_H_
