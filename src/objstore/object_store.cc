#include "objstore/object_store.h"

#include <algorithm>
#include <chrono>
#include <iterator>

namespace vodak {

ObjectStore::~ObjectStore() { StopBackgroundReclaim(); }

uint32_t ObjectStore::RegisterClass(std::string debug_name,
                                    uint32_t slot_count) {
  WriterLock lock(data_mu_);
  ClassStorage storage;
  storage.debug_name = std::move(debug_name);
  storage.slot_count = slot_count;
  storage.columns.resize(slot_count);
  classes_.push_back(std::move(storage));
  return static_cast<uint32_t>(classes_.size());
}

uint32_t ObjectStore::class_count() const {
  SharedLock lock(data_mu_);
  return static_cast<uint32_t>(classes_.size());
}

const ObjectStore::ClassStorage* ObjectStore::FindClass(
    uint32_t class_id) const {
  if (class_id == 0 || class_id > classes_.size()) return nullptr;
  return &classes_[class_id - 1];
}

ObjectStore::ClassStorage* ObjectStore::FindClassMutable(uint32_t class_id) {
  if (class_id == 0 || class_id > classes_.size()) return nullptr;
  return &classes_[class_id - 1];
}

const ObjectStore::Version* ObjectStore::HistoryAt(const ClassStorage& cls,
                                                   uint32_t row, Epoch at) {
  auto it = cls.history.find(row);
  if (it == cls.history.end()) return nullptr;
  // Reverse scan: histories are short (reclaim trims them) and a reader
  // pinned shortly before the last commit hits the newest entry.
  const std::vector<Version>& versions = it->second;
  for (auto v = versions.rbegin(); v != versions.rend(); ++v) {
    if (v->begin <= at) return v->end > at ? &*v : nullptr;
  }
  return nullptr;
}

bool ObjectStore::LiveAt(const ClassStorage& cls, uint32_t local, Epoch at,
                         const Version** old) {
  *old = nullptr;
  const uint32_t row = local - 1;  // local 0 wraps past every row
  if (row >= cls.rows()) return false;
  if (cls.head_begin[row] <= at) return cls.head_live[row] != 0;
  *old = HistoryAt(cls, row, at);
  return *old != nullptr;
}

bool ObjectStore::AnyPins() const {
  MutexLock lock(pin_mu_);
  return !pins_.empty();
}

Status ObjectStore::CheckOid(Oid oid, uint32_t slot, const char* op, Epoch at,
                             const Version** old) const {
  const ClassStorage* cls = FindClass(oid.class_id);
  if (cls == nullptr) {
    return Status::NotFound(std::string(op) + ": unknown class in oid " +
                            oid.ToString());
  }
  const Version* resolved = nullptr;
  if (!LiveAt(*cls, oid.local, at, &resolved)) {
    return Status::NotFound(std::string(op) + ": dangling oid " +
                            oid.ToString());
  }
  if (slot >= cls->slot_count) {
    return Status::InvalidArgument(std::string(op) + ": slot " +
                                   std::to_string(slot) +
                                   " out of range for class '" +
                                   cls->debug_name + "'");
  }
  if (old != nullptr) *old = resolved;
  return Status::OK();
}

Oid ObjectStore::AppendRow(uint32_t class_id, ClassStorage* cls,
                           Epoch begin) {
  cls->head_begin.push_back(begin);
  cls->head_live.push_back(1);
  for (std::vector<Value>& column : cls->columns) column.emplace_back();
  ++cls->live_count;
  stats_.objects_created.fetch_add(1, std::memory_order_relaxed);
  // local ids start at 1 so that Oid{0,0} stays the NIL reference.
  return Oid(class_id, cls->rows());
}

Result<Oid> ObjectStore::CreateObject(uint32_t class_id) {
  WriterLock lock(data_mu_);
  ClassStorage* cls = FindClassMutable(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  if (!AnyPins()) {
    // Bulk-load fast path: no reader can observe an intermediate state,
    // so the object appears at the current epoch without a bump and
    // without version churn.
    return AppendRow(class_id, cls, epoch_.load(std::memory_order_acquire));
  }
  // Readers hold snapshots: stamp the new object with a fresh epoch so
  // no pinned reader's extent grows underneath it.
  const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
  const Oid oid = AppendRow(class_id, cls, commit);
  stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
  stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
  epoch_.store(commit, std::memory_order_release);
  return oid;
}

void ObjectStore::SupersedeHead(ClassStorage* cls, uint32_t row, Epoch commit,
                                bool deleting) {
  if (cls->head_begin[row] == commit) return;
  Version old;
  old.begin = cls->head_begin[row];
  old.end = commit;
  old.slots.reserve(cls->slot_count);
  for (std::vector<Value>& column : cls->columns) {
    old.slots.push_back(deleting ? std::move(column[row]) : column[row]);
  }
  cls->history[row].push_back(std::move(old));
  cls->head_begin[row] = commit;
  stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
}

void ObjectStore::KillHead(ClassStorage* cls, uint32_t row) {
  cls->head_live[row] = 0;
  for (std::vector<Value>& column : cls->columns) column[row] = Value::Null();
  --cls->live_count;
  ++cls->deletes;
}

Status ObjectStore::DeleteObject(Oid oid) {
  WriterLock lock(data_mu_);
  VODAK_RETURN_IF_ERROR(
      CheckOid(oid, /*slot=*/0, "delete", ResolveEpoch(kEpochLatest)));
  ClassStorage* cls = FindClassMutable(oid.class_id);
  const uint32_t row = oid.local - 1;
  if (AnyPins()) {
    const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
    SupersedeHead(cls, row, commit, /*deleting=*/true);
    KillHead(cls, row);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(commit, std::memory_order_release);
  } else {
    KillHead(cls, row);
  }
  stats_.objects_deleted.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool ObjectStore::Exists(Oid oid, Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(oid.class_id);
  if (cls == nullptr) return false;
  const Version* old = nullptr;
  const bool live = LiveAt(*cls, oid.local, ResolveEpoch(at), &old);
  if (old != nullptr) {
    stats_.history_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return live;
}

Status ObjectStore::RetainLive(uint32_t class_id, std::vector<Oid>* oids,
                               Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  if (cls->deletes == 0) return Status::OK();
  const Epoch epoch = ResolveEpoch(at);
  uint64_t from_history = 0;
  auto dead = [cls, class_id, epoch, &from_history](Oid oid) {
    if (oid.class_id != class_id) return true;
    const Version* old = nullptr;
    const bool live = LiveAt(*cls, oid.local, epoch, &old);
    if (old != nullptr) ++from_history;
    return !live;
  };
  oids->erase(std::remove_if(oids->begin(), oids->end(), dead), oids->end());
  stats_.history_reads.fetch_add(from_history, std::memory_order_relaxed);
  return Status::OK();
}

Result<Value> ObjectStore::GetProperty(Oid oid, uint32_t slot,
                                       Epoch at) const {
  SharedLock lock(data_mu_);
  const Version* old = nullptr;
  VODAK_RETURN_IF_ERROR(CheckOid(oid, slot, "get", ResolveEpoch(at), &old));
  // Relaxed: per-row reads happen from parallel workers; a seq_cst RMW
  // here would ping-pong the stats cache line across cores.
  stats_.property_reads.fetch_add(1, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  if (old != nullptr) {
    stats_.history_reads.fetch_add(1, std::memory_order_relaxed);
    return old->slots[slot];
  }
  return classes_[oid.class_id - 1].columns[slot][oid.local - 1];
}

template <typename OidAt>
Status ObjectStore::GatherColumn(uint32_t class_id, uint32_t slot, size_t n,
                                 OidAt oid_at, std::vector<Value>* out,
                                 Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("get: unknown class id " +
                            std::to_string(class_id));
  }
  if (slot >= cls->slot_count) {
    return Status::InvalidArgument(
        "get: slot " + std::to_string(slot) +
        " out of range for class '" + cls->debug_name + "'");
  }
  const Epoch epoch = ResolveEpoch(at);
  const uint32_t rows = cls->rows();
  const Epoch* head_begin = cls->head_begin.data();
  const uint8_t* head_live = cls->head_live.data();
  const Value* column = cls->columns[slot].data();
  Status status;
  size_t emitted = 0;
  uint64_t from_history = 0;
  for (; emitted < n; ++emitted) {
    const Oid oid = oid_at(emitted);
    const uint32_t row = oid.local - 1;  // local 0 wraps past every row
    if (oid.class_id == class_id && row < rows) {
      if (head_begin[row] <= epoch) {
        if (head_live[row] != 0) {
          out->push_back(column[row]);
          continue;
        }
      } else if (const Version* old = HistoryAt(*cls, row, epoch)) {
        out->push_back(old->slots[slot]);
        ++from_history;
        continue;
      }
    }
    status = Status::NotFound("get: dangling oid " + oid.ToString());
    break;
  }
  // Counted per object, like GetProperty: a dangling reference charges
  // what was read before it stopped the column.
  stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
  stats_.history_reads.fetch_add(from_history, std::memory_order_relaxed);
  if (status.ok() && at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(emitted, std::memory_order_relaxed);
  }
  return status;
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<uint32_t>& locals,
                                      std::vector<Value>* out,
                                      Epoch at) const {
  return GatherColumn(
      class_id, slot, locals.size(),
      [&locals, class_id](size_t i) { return Oid(class_id, locals[i]); },
      out, at);
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<Oid>& oids,
                                      size_t begin, size_t end,
                                      std::vector<Value>* out,
                                      Epoch at) const {
  if (begin > end || end > oids.size()) {
    return Status::InvalidArgument(
        "get: column range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") out of bounds for " +
        std::to_string(oids.size()) + " oids");
  }
  return GatherColumn(
      class_id, slot, end - begin,
      [&oids, begin](size_t i) { return oids[begin + i]; }, out, at);
}

Status ObjectStore::SetProperty(Oid oid, uint32_t slot, Value value) {
  WriterLock lock(data_mu_);
  VODAK_RETURN_IF_ERROR(
      CheckOid(oid, slot, "set", ResolveEpoch(kEpochLatest)));
  stats_.property_writes.fetch_add(1, std::memory_order_relaxed);
  ClassStorage* cls = FindClassMutable(oid.class_id);
  const uint32_t row = oid.local - 1;
  if (AnyPins()) {
    const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
    SupersedeHead(cls, row, commit, /*deleting=*/false);
    cls->columns[slot][row] = std::move(value);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(commit, std::memory_order_release);
  } else {
    cls->columns[slot][row] = std::move(value);
  }
  return Status::OK();
}

Result<std::vector<Oid>> ObjectStore::Extent(uint32_t class_id,
                                             Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  stats_.extent_scans.fetch_add(1, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  const Epoch epoch = ResolveEpoch(at);
  std::vector<Oid> out;
  out.reserve(cls->live_count);
  uint64_t from_history = 0;
  for (uint32_t row = 0; row < cls->rows(); ++row) {
    const Version* old = nullptr;
    if (LiveAt(*cls, row + 1, epoch, &old)) out.emplace_back(class_id, row + 1);
    if (old != nullptr) ++from_history;
  }
  stats_.history_reads.fetch_add(from_history, std::memory_order_relaxed);
  return out;
}

Result<uint64_t> ObjectStore::ExtentSize(uint32_t class_id, Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  if (at == kEpochLatest) return cls->live_count;
  uint64_t count = 0;
  uint64_t from_history = 0;
  for (uint32_t row = 0; row < cls->rows(); ++row) {
    const Version* old = nullptr;
    if (LiveAt(*cls, row + 1, at, &old)) ++count;
    if (old != nullptr) ++from_history;
  }
  stats_.history_reads.fetch_add(from_history, std::memory_order_relaxed);
  return count;
}

Result<MutationResult> ObjectStore::Apply(const std::vector<Mutation>& batch) {
  WriterLock lock(data_mu_);
  const Epoch pre = epoch_.load(std::memory_order_acquire);

  // Validate everything against the pre-batch state before touching
  // anything: a batch commits atomically or not at all. Track per-oid
  // deletes so a later mutation of a within-batch-deleted oid is
  // rejected here rather than corrupting a tombstone mid-apply.
  std::map<std::pair<uint32_t, uint32_t>, bool> dead_in_batch;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Mutation& m = batch[i];
    const std::string where = "mutation #" + std::to_string(i);
    switch (m.kind) {
      case Mutation::Kind::kInsert: {
        const ClassStorage* cls = FindClass(m.class_id);
        if (cls == nullptr) {
          return Status::NotFound(where + ": unknown class id " +
                                  std::to_string(m.class_id));
        }
        for (const auto& [slot, value] : m.sets) {
          if (slot >= cls->slot_count) {
            return Status::InvalidArgument(
                where + ": slot " + std::to_string(slot) +
                " out of range for class '" + cls->debug_name + "'");
          }
        }
        break;
      }
      case Mutation::Kind::kUpdate:
      case Mutation::Kind::kDelete: {
        const auto key = std::make_pair(m.oid.class_id, m.oid.local);
        if (dead_in_batch.count(key) != 0) {
          return Status::InvalidArgument(
              where + ": oid " + m.oid.ToString() +
              " already deleted earlier in this batch");
        }
        Status check = CheckOid(m.oid, /*slot=*/0,
                                m.kind == Mutation::Kind::kUpdate
                                    ? "update"
                                    : "delete",
                                pre);
        if (!check.ok()) {
          return Status(check.code(), where + ": " + check.message());
        }
        const ClassStorage* cls = FindClass(m.oid.class_id);
        for (const auto& [slot, value] : m.sets) {
          if (slot >= cls->slot_count) {
            return Status::InvalidArgument(
                where + ": slot " + std::to_string(slot) +
                " out of range for class '" + cls->debug_name + "'");
          }
        }
        if (m.kind == Mutation::Kind::kDelete) dead_in_batch[key] = true;
        break;
      }
    }
  }

  MutationResult result;
  if (batch.empty()) {
    result.epoch = pre;
    return result;
  }

  const Epoch commit = pre + 1;
  result.epoch = commit;
  for (const Mutation& m : batch) {
    switch (m.kind) {
      case Mutation::Kind::kInsert: {
        ClassStorage* cls = FindClassMutable(m.class_id);
        const Oid oid = AppendRow(m.class_id, cls, commit);
        for (const auto& [slot, value] : m.sets) {
          cls->columns[slot][oid.local - 1] = value;
        }
        result.created.push_back(oid);
        stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
        stats_.property_writes.fetch_add(m.sets.size(),
                                         std::memory_order_relaxed);
        break;
      }
      case Mutation::Kind::kUpdate: {
        ClassStorage* cls = FindClassMutable(m.oid.class_id);
        const uint32_t row = m.oid.local - 1;
        SupersedeHead(cls, row, commit, /*deleting=*/false);
        for (const auto& [slot, value] : m.sets) cls->columns[slot][row] = value;
        ++result.updated;
        stats_.property_writes.fetch_add(m.sets.size(),
                                         std::memory_order_relaxed);
        break;
      }
      case Mutation::Kind::kDelete: {
        // Inserted or updated earlier in this same batch, the head
        // already carries `commit`: the batch is atomic, so that
        // intermediate version collapses into the tombstone.
        ClassStorage* cls = FindClassMutable(m.oid.class_id);
        const uint32_t row = m.oid.local - 1;
        SupersedeHead(cls, row, commit, /*deleting=*/true);
        KillHead(cls, row);
        ++result.deleted;
        stats_.objects_deleted.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }

  stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
  // Release-publish last: a PinEpoch that reads `commit` is guaranteed
  // to see every version this batch wrote.
  epoch_.store(commit, std::memory_order_release);
  return result;
}

Epoch ObjectStore::PinEpoch() {
  MutexLock lock(pin_mu_);
  // Acquire pairs with the release store in Apply: reading epoch C here
  // means every version of commit C is visible to this reader.
  const Epoch epoch = epoch_.load(std::memory_order_acquire);
  pins_[epoch] += 1;
  return epoch;
}

void ObjectStore::UnpinEpoch(Epoch epoch) {
  bool moved = false;
  {
    MutexLock lock(pin_mu_);
    auto it = pins_.find(epoch);
    if (it == pins_.end()) return;  // defensive: unmatched unpin
    if (--it->second == 0) {
      const bool was_oldest = it == pins_.begin();
      pins_.erase(it);
      if (was_oldest) {
        horizon_moved_ = true;
        moved = true;
      }
    }
  }
  if (moved) reclaim_cv_.notify_all();
}

Epoch ObjectStore::MinPinnedEpoch() const {
  MutexLock lock(pin_mu_);
  if (pins_.empty()) return epoch_.load(std::memory_order_acquire);
  return pins_.begin()->first;
}

size_t ObjectStore::Reclaim() {
  WriterLock lock(data_mu_);
  // data_mu_ before pin_mu_ (the store-wide order); with data_mu_ held
  // exclusively the horizon cannot advance past us mid-sweep: PinEpoch
  // only pins the current epoch, and every version we free is already
  // invisible at >= horizon.
  const Epoch horizon = MinPinnedEpoch();
  size_t freed = 0;
  for (ClassStorage& cls : classes_) {
    for (auto it = cls.history.begin(); it != cls.history.end();) {
      // Ends ascend with begins, so the versions superseded at or before
      // the horizon — invisible at every epoch a pinned or future reader
      // can resolve — are a prefix.
      std::vector<Version>& versions = it->second;
      auto keep = std::find_if(
          versions.begin(), versions.end(),
          [horizon](const Version& v) { return v.end > horizon; });
      freed += static_cast<size_t>(keep - versions.begin());
      versions.erase(versions.begin(), keep);
      it = versions.empty() ? cls.history.erase(it) : std::next(it);
    }
  }
  stats_.versions_reclaimed.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

void ObjectStore::StartBackgroundReclaim() {
  {
    MutexLock lock(pin_mu_);
    if (reclaim_running_) return;
    reclaim_running_ = true;
    stop_reclaim_ = false;
    horizon_moved_ = false;
  }
  reclaim_thread_ = std::thread([this] { ReclaimLoop(); });
}

void ObjectStore::StopBackgroundReclaim() {
  {
    MutexLock lock(pin_mu_);
    if (!reclaim_running_) return;
    stop_reclaim_ = true;
  }
  reclaim_cv_.notify_all();
  reclaim_thread_.join();
  MutexLock lock(pin_mu_);
  reclaim_running_ = false;
  stop_reclaim_ = false;
}

void ObjectStore::ReclaimLoop() {
  for (;;) {
    {
      UniqueLock lock(pin_mu_);
      if (!stop_reclaim_ && !horizon_moved_) {
        // Timed wait doubles as the periodic backstop: even without an
        // unpin signal the loop sweeps every ~50ms.
        reclaim_cv_.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (stop_reclaim_) return;
      horizon_moved_ = false;
    }
    Reclaim();
  }
}

}  // namespace vodak
