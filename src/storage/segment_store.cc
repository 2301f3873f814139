#include "storage/segment_store.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "objstore/object_store.h"

namespace vodak {
namespace storage {

// The pruning rule (docs/ARCHITECTURE.md §"Paged storage & segment
// skipping"): min/max bound every row under Value::Compare — the same
// total order the executor's compare predicates reduce to — so a
// segment is skipped exactly when the bounds prove the compare false
// for every row. Null rows are inside the bounds (kNull orders below
// every other kind), which is what keeps e.g. `col < 5` sound on
// segments holding nulls: NULL < 5 holds under the total order, and a
// null-holding segment has min == NULL <= 5, so it is never refuted.
bool ZoneRefutes(const ZoneMap& zone, BinOp op, const Value& constant) {
  const int min_vs = Value::Compare(zone.min, constant);
  const int max_vs = Value::Compare(zone.max, constant);
  switch (op) {
    case BinOp::kEq:
      return min_vs > 0 || max_vs < 0;
    case BinOp::kNe:
      // Only refutable when every row equals the constant.
      return min_vs == 0 && max_vs == 0;
    case BinOp::kLt:
      return min_vs >= 0;
    case BinOp::kLe:
      return min_vs > 0;
    case BinOp::kGt:
      return max_vs <= 0;
    case BinOp::kGe:
      return max_vs < 0;
    default:
      return false;  // non-compare ops are never sargable
  }
}

bool ZonesRefute(const std::vector<ZoneMap>& zones,
                 const std::vector<SlotPredicate>& preds) {
  for (const SlotPredicate& p : preds) {
    if (p.slot < zones.size() &&
        ZoneRefutes(zones[p.slot], p.op, p.constant)) {
      return true;
    }
  }
  return false;
}

bool SegmentRefuted(const Segment& seg,
                    const std::vector<SlotPredicate>& preds) {
  return ZonesRefute(seg.zones, preds);
}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const std::string& path, PagerOptions options) {
  VODAK_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                         Pager::Open(path, options));
  return std::unique_ptr<SegmentStore>(new SegmentStore(std::move(pager)));
}

Result<BlobRef> SegmentStore::WriteBlob(const uint8_t* bytes, size_t size) {
  BlobRef ref;
  ref.byte_size = size;
  if (size == 0) return ref;
  const size_t page_size = pager_->page_size();
  const uint64_t pages = (size + page_size - 1) / page_size;
  ref.first_page = pager_->Allocate(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    VODAK_ASSIGN_OR_RETURN(PinnedPage page, pager_->Pin(ref.first_page + i));
    const size_t off = static_cast<size_t>(i) * page_size;
    std::memcpy(page.mutable_data(), bytes + off,
                std::min(page_size, size - off));
  }
  return ref;
}

Status SegmentStore::ReadBlob(const BlobRef& ref, uint8_t* out) const {
  const size_t size = static_cast<size_t>(ref.byte_size);
  const size_t page_size = pager_->page_size();
  const uint64_t pages = (size + page_size - 1) / page_size;
  for (uint64_t i = 0; i < pages; ++i) {
    VODAK_ASSIGN_OR_RETURN(PinnedPage page, pager_->Pin(ref.first_page + i));
    const size_t off = static_cast<size_t>(i) * page_size;
    std::memcpy(out + off, page.data(), std::min(page_size, size - off));
  }
  return Status::OK();
}

Status SegmentStore::IngestClass(const ObjectStore& store, uint32_t class_id,
                                 uint32_t slot_count, Epoch at,
                                 const IngestOptions& options) {
  if (options.rows_per_segment == 0) {
    return Status::InvalidArgument("segment ingest: rows_per_segment == 0");
  }
  VODAK_ASSIGN_OR_RETURN(std::vector<Oid> extent, store.Extent(class_id, at));

  auto version = std::make_shared<SegmentVersion>();
  version->class_id = class_id;
  version->begin = at;
  version->total_rows = extent.size();

  const size_t step = options.rows_per_segment;
  std::vector<uint32_t> locals;
  std::vector<Value> values;
  for (size_t begin = 0; begin < extent.size(); begin += step) {
    const size_t end = std::min(extent.size(), begin + step);
    Segment seg;
    seg.first_row = begin;
    seg.row_count = static_cast<uint32_t>(end - begin);

    locals.clear();
    for (size_t i = begin; i < end; ++i) locals.push_back(extent[i].local);
    VODAK_ASSIGN_OR_RETURN(
        seg.locals,
        WriteBlob(reinterpret_cast<const uint8_t*>(locals.data()),
                  locals.size() * sizeof(uint32_t)));

    // Zone maps stay in memory; a segment holds >= 1 row, so the first
    // value seeds each slot's bounds.
    seg.zones.resize(slot_count);
    for (uint32_t slot = 0; slot < slot_count; ++slot) {
      values.clear();
      VODAK_RETURN_IF_ERROR(store.GetPropertyColumn(class_id, slot, extent,
                                                    begin, end, &values, at));
      ZoneMap& zone = seg.zones[slot];
      zone.min = values.front();
      zone.max = values.front();
      for (const Value& v : values) {
        if (Value::Compare(v, zone.min) < 0) zone.min = v;
        if (Value::Compare(v, zone.max) > 0) zone.max = v;
      }
    }
    version->segments.push_back(std::move(seg));
  }
  VODAK_RETURN_IF_ERROR(pager_->Flush());

  MutexLock lock(mu_);
  directory_[class_id] = std::move(version);
  return Status::OK();
}

void SegmentStore::DropVersion(uint32_t class_id) {
  MutexLock lock(mu_);
  directory_.erase(class_id);
}

SegmentVersionRef SegmentStore::VersionAt(uint32_t class_id,
                                          Epoch at) const {
  MutexLock lock(mu_);
  auto it = directory_.find(class_id);
  if (it == directory_.end() || it->second->begin > at) return nullptr;
  return it->second;
}

Result<std::vector<uint32_t>> SegmentStore::ReadLocals(
    const Segment& seg) const {
  if (seg.locals.byte_size != uint64_t{seg.row_count} * sizeof(uint32_t)) {
    return Status::Internal(
        "segment read: OID blob holds " +
        std::to_string(seg.locals.byte_size) + " bytes for " +
        std::to_string(seg.row_count) + " rows");
  }
  std::vector<uint32_t> locals(seg.row_count);
  VODAK_RETURN_IF_ERROR(
      ReadBlob(seg.locals, reinterpret_cast<uint8_t*>(locals.data())));
  return locals;
}

Result<std::vector<Oid>> SegmentStore::ReadOids(
    const SegmentVersion& version, const std::vector<SlotPredicate>& preds,
    PruneCounts* counts) const {
  PruneCounts tally;
  std::vector<Oid> oids;
  oids.reserve(version.total_rows);
  for (const Segment& seg : version.segments) {
    if (SegmentRefuted(seg, preds)) {
      ++tally.skipped;
      continue;
    }
    ++tally.scanned;
    VODAK_ASSIGN_OR_RETURN(std::vector<uint32_t> locals, ReadLocals(seg));
    for (uint32_t local : locals) oids.push_back(Oid(version.class_id, local));
  }
  if (counts != nullptr) *counts = tally;
  return oids;
}

double SegmentStore::SurvivalRate() const {
  const uint64_t scanned =
      stats_.segments_scanned.load(std::memory_order_relaxed);
  const uint64_t skipped =
      stats_.segments_skipped.load(std::memory_order_relaxed);
  const uint64_t total = scanned + skipped;
  if (total == 0) return 1.0;
  // Clamp away from zero: a fully-refuted history must not price
  // future scans at literally nothing.
  return std::max(0.01, static_cast<double>(scanned) /
                            static_cast<double>(total));
}

}  // namespace storage
}  // namespace vodak
