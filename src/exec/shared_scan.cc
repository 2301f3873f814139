#include "exec/shared_scan.h"

#include <utility>

namespace vodak {
namespace exec {

void SharedScan::InitExtent(std::shared_ptr<const std::vector<Oid>> extent,
                            size_t morsel_size) {
  extent_ = std::move(extent);
  total_ = extent_->size();
  morsel_size_ = morsel_size == 0 ? 1 : morsel_size;
  morsel_count_ = (total_ + morsel_size_ - 1) / morsel_size_;
}

void SharedScan::InitElements(ValueSet elements, size_t morsel_size) {
  elements_ = std::move(elements);
  total_ = elements_.size();
  morsel_size_ = morsel_size == 0 ? 1 : morsel_size;
  morsel_count_ = (total_ + morsel_size_ - 1) / morsel_size_;
}

namespace {

// Per-morsel zone maps for a segment-backed ring: morsel boundaries are
// fixed by the ring (morsel_size), segment boundaries by the ingester
// (rows_per_segment), so a morsel's bounds are the merge of the zones
// of every segment overlapping its row range. Merging widens (min of
// mins / max of maxes under Value::Compare), which keeps the pruning
// rule sound: a morsel's merged zone bounds every row the morsel holds.
std::vector<std::vector<storage::ZoneMap>> MorselZonesFor(
    const storage::SegmentVersion& version, const SharedScan& scan) {
  std::vector<std::vector<storage::ZoneMap>> zones(scan.morsel_count());
  for (size_t m = 0; m < scan.morsel_count(); ++m) {
    const Morsel morsel = scan.MorselAt(m);
    std::vector<storage::ZoneMap> merged;
    bool first_overlap = true;
    for (const storage::Segment& seg : version.segments) {
      const size_t seg_begin = seg.first_row;
      const size_t seg_end = seg.first_row + seg.row_count;
      if (seg_end <= morsel.begin || seg_begin >= morsel.end) continue;
      if (first_overlap) {
        merged = seg.zones;
        first_overlap = false;
        continue;
      }
      // Every segment of a version carries one zone per slot.
      for (size_t s = 0; s < merged.size(); ++s) {
        storage::ZoneMap& z = merged[s];
        const storage::ZoneMap& o = seg.zones[s];
        if (Value::Compare(o.min, z.min) < 0) z.min = o.min;
        if (Value::Compare(o.max, z.max) > 0) z.max = o.max;
      }
    }
    zones[m] = std::move(merged);
  }
  return zones;
}

}  // namespace

std::shared_ptr<SharedScanManager::Slot> SharedScanManager::SlotFor(
    const std::string& key) {
  MutexLock lock(mu_);
  std::shared_ptr<Slot>& slot = slots_[key];
  if (slot == nullptr) slot = std::make_shared<Slot>();
  return slot;
}

bool SharedScanManager::HasSource(const std::string& key) const {
  MutexLock lock(mu_);
  return slots_.find(key) != slots_.end();
}

std::vector<std::string> SharedScanManager::SourceKeys() const {
  MutexLock lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(slots_.size());
  for (const auto& [key, slot] : slots_) keys.push_back(key);
  return keys;
}

Result<SharedScanManager::Slot*> SharedScanManager::EnsureExtentSlot(
    uint32_t class_id) {
  std::shared_ptr<Slot> slot = SlotFor(ExtentKey(class_id));
  std::call_once(slot->once, [&] {
    // Materialize at the manager's pinned snapshot: writer batches that
    // commit while this generation drains do not change what any
    // attached consumer sees.
    const storage::SegmentVersionRef version =
        segments_ == nullptr ? nullptr
                             : segments_->VersionAt(class_id, snapshot_);
    // Segment-backed: read the ring's rows through the pager segment by
    // segment instead of copying the store's extent.
    Result<std::vector<Oid>> rows =
        version != nullptr ? segments_->ReadOids(*version, {})
                           : store_->Extent(class_id, snapshot_);
    if (!rows.ok()) {
      slot->status = rows.status();
      return;
    }
    auto shared =
        std::make_shared<const std::vector<Oid>>(std::move(rows).value());
    slot->scan.InitExtent(shared, morsel_size_);
    if (version != nullptr) {
      slot->scan.SetMorselZones(MorselZonesFor(*version, slot->scan));
    }
    // Seed the column cache with the materialization we just paid for,
    // so the first property read of this class fills without a second
    // extent pass (and without copying the Oids into a locals index).
    cache_.SeedExtent(class_id, snapshot_, shared);
    materialized_.fetch_add(1, std::memory_order_relaxed);
  });
  VODAK_RETURN_IF_ERROR(slot->status);
  return slot.get();
}

Result<std::shared_ptr<const std::vector<Oid>>>
SharedScanManager::SharedExtent(uint32_t class_id) {
  VODAK_ASSIGN_OR_RETURN(Slot * slot, EnsureExtentSlot(class_id));
  return slot->scan.extent();
}

Result<SharedScanConsumer> SharedScanManager::AttachExtent(
    uint32_t class_id) {
  VODAK_ASSIGN_OR_RETURN(Slot * slot, EnsureExtentSlot(class_id));
  consumers_.fetch_add(1, std::memory_order_relaxed);
  return SharedScanConsumer(&slot->scan);
}

Result<SharedScanConsumer> SharedScanManager::AttachSource(
    const std::string& key,
    const std::function<Result<Value>()>& materialize) {
  std::shared_ptr<Slot> slot = SlotFor(ExprKey(key));
  std::call_once(slot->once, [&] {
    auto set = materialize();
    if (!set.ok()) {
      slot->status = set.status();
      return;
    }
    ValueSet elements;
    if (set.value().is_set()) {
      elements = set.value().AsSet();
    } else if (!set.value().is_null()) {
      slot->status = Status::ExecError(
          "shared scan source evaluated to non-set " +
          set.value().ToString());
      return;
    }
    slot->scan.InitElements(std::move(elements), morsel_size_);
    materialized_.fetch_add(1, std::memory_order_relaxed);
  });
  VODAK_RETURN_IF_ERROR(slot->status);
  consumers_.fetch_add(1, std::memory_order_relaxed);
  return SharedScanConsumer(&slot->scan);
}

}  // namespace exec
}  // namespace vodak
