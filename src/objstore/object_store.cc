#include "objstore/object_store.h"

#include <algorithm>
#include <chrono>

namespace vodak {

ObjectStore::~ObjectStore() { StopBackgroundReclaim(); }

uint32_t ObjectStore::RegisterClass(std::string debug_name,
                                    uint32_t slot_count) {
  WriterLock lock(data_mu_);
  ClassStorage storage;
  storage.debug_name = std::move(debug_name);
  storage.slot_count = slot_count;
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

const ObjectStore::Version* ObjectStore::VisibleVersion(const Instance& inst,
                                                        Epoch at) {
  // Reverse scan: chains are short (reclaim trims them) and the newest
  // entry is the common hit for latest-epoch reads.
  for (auto it = inst.versions.rbegin(); it != inst.versions.rend(); ++it) {
    if (it->begin <= at) {
      return it->end > at ? &*it : nullptr;
    }
  }
  return nullptr;
}

bool ObjectStore::AnyPins() const {
  MutexLock lock(pin_mu_);
  return !pins_.empty();
}

Status ObjectStore::CheckOid(Oid oid, uint32_t slot, const char* op,
                             Epoch at) const {
  const ClassStorage* cls = FindClass(oid.class_id);
  if (cls == nullptr) {
    return Status::NotFound(std::string(op) + ": unknown class in oid " +
                            oid.ToString());
  }
  if (oid.local == 0 || oid.local > cls->instances.size()) {
    return Status::NotFound(std::string(op) + ": dangling oid " +
                            oid.ToString());
  }
  const Version* v = VisibleVersion(cls->instances[oid.local - 1], at);
  if (v == nullptr || !v->live) {
    return Status::NotFound(std::string(op) + ": dangling oid " +
                            oid.ToString());
  }
  if (slot >= cls->slot_count) {
    return Status::InvalidArgument(std::string(op) + ": slot " +
                                   std::to_string(slot) +
                                   " out of range for class '" +
                                   cls->debug_name + "'");
  }
  return Status::OK();
}

Result<Oid> ObjectStore::CreateObject(uint32_t class_id) {
  WriterLock lock(data_mu_);
  ClassStorage* cls = FindClassMutable(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  Version v;
  v.live = true;
  v.slots.assign(cls->slot_count, Value::Null());
  if (AnyPins()) {
    // Readers hold snapshots: stamp the new object with a fresh epoch so
    // no pinned reader's extent grows underneath it.
    const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
    v.begin = commit;
    stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(commit, std::memory_order_release);
  } else {
    // Bulk-load fast path: no reader can observe an intermediate state,
    // so the object appears at the current epoch without a bump and
    // without version churn.
    v.begin = epoch_.load(std::memory_order_acquire);
  }
  Instance inst;
  inst.versions.push_back(std::move(v));
  cls->instances.push_back(std::move(inst));
  ++cls->live_count;
  stats_.objects_created.fetch_add(1, std::memory_order_relaxed);
  // local ids start at 1 so that Oid{0,0} stays the NIL reference.
  return Oid(class_id, static_cast<uint32_t>(cls->instances.size()));
}

ObjectStore::Version* ObjectStore::MutableVersionAt(Instance* inst,
                                                    Epoch commit) {
  Version& head = inst->versions.back();
  if (head.begin == commit) {
    // Already copied for this commit (second touch within one batch):
    // compose in place — the batch is atomic, intermediate states are
    // never visible.
    return &head;
  }
  Version next = head;  // copy-on-write
  next.begin = commit;
  next.end = kEpochLatest;
  head.end = commit;
  inst->versions.push_back(std::move(next));
  stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
  return &inst->versions.back();
}

Status ObjectStore::DeleteObject(Oid oid) {
  WriterLock lock(data_mu_);
  VODAK_RETURN_IF_ERROR(
      CheckOid(oid, /*slot=*/0, "delete", ResolveEpoch(kEpochLatest)));
  Instance& inst = classes_[oid.class_id - 1].instances[oid.local - 1];
  if (AnyPins()) {
    const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
    Version tomb;
    tomb.begin = commit;
    tomb.live = false;
    inst.versions.back().end = commit;
    inst.versions.push_back(std::move(tomb));
    stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(commit, std::memory_order_release);
  } else {
    Version& head = inst.versions.back();
    head.live = false;
    head.slots.clear();
  }
  --classes_[oid.class_id - 1].live_count;
  ++classes_[oid.class_id - 1].deletes;
  stats_.objects_deleted.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool ObjectStore::Exists(Oid oid, Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(oid.class_id);
  if (cls == nullptr) return false;
  if (oid.local == 0 || oid.local > cls->instances.size()) return false;
  const Version* v =
      VisibleVersion(cls->instances[oid.local - 1], ResolveEpoch(at));
  return v != nullptr && v->live;
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
  auto dead = [cls, class_id, epoch](Oid oid) {
    if (oid.class_id != class_id || oid.local == 0 ||
        oid.local > cls->instances.size()) {
      return true;
    }
    const Version* v = VisibleVersion(cls->instances[oid.local - 1], epoch);
    return v == nullptr || !v->live;
  };
  oids->erase(std::remove_if(oids->begin(), oids->end(), dead), oids->end());
  return Status::OK();
}

Result<Value> ObjectStore::GetProperty(Oid oid, uint32_t slot,
                                       Epoch at) const {
  SharedLock lock(data_mu_);
  const Epoch epoch = ResolveEpoch(at);
  VODAK_RETURN_IF_ERROR(CheckOid(oid, slot, "get", epoch));
  // Relaxed: per-row reads happen from parallel workers; a seq_cst RMW
  // here would ping-pong the stats cache line across cores.
  stats_.property_reads.fetch_add(1, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return VisibleVersion(classes_[oid.class_id - 1].instances[oid.local - 1],
                        epoch)
      ->slots[slot];
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<uint32_t>& locals,
                                      std::vector<Value>* out,
                                      Epoch at) const {
  return GetPropertyColumn(class_id, slot, locals, 0, locals.size(), out, at);
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<uint32_t>& locals,
                                      size_t begin, size_t end,
                                      std::vector<Value>* out,
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
  if (begin > end || end > locals.size()) {
    return Status::InvalidArgument(
        "get: column range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") out of bounds for " +
        std::to_string(locals.size()) + " locals");
  }
  const Epoch epoch = ResolveEpoch(at);
  size_t emitted = 0;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t local = locals[i];
    const Version* v =
        (local == 0 || local > cls->instances.size())
            ? nullptr
            : VisibleVersion(cls->instances[local - 1], epoch);
    if (v == nullptr || !v->live) {
      // Counted per object, like GetProperty: charge what was read
      // before the dangling reference stopped the column.
      stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
      return Status::NotFound("get: dangling oid " +
                              Oid(class_id, local).ToString());
    }
    out->push_back(v->slots[slot]);
    ++emitted;
  }
  stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(emitted, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ObjectStore::GetPropertyColumn(uint32_t class_id, uint32_t slot,
                                      const std::vector<Oid>& oids,
                                      size_t begin, size_t end,
                                      std::vector<Value>* out,
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
  if (begin > end || end > oids.size()) {
    return Status::InvalidArgument(
        "get: column range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") out of bounds for " +
        std::to_string(oids.size()) + " oids");
  }
  const Epoch epoch = ResolveEpoch(at);
  size_t emitted = 0;
  for (size_t i = begin; i < end; ++i) {
    const Oid oid = oids[i];
    const Version* v =
        (oid.class_id != class_id || oid.local == 0 ||
         oid.local > cls->instances.size())
            ? nullptr
            : VisibleVersion(cls->instances[oid.local - 1], epoch);
    if (v == nullptr || !v->live) {
      // Counted per object, like GetProperty: charge what was read
      // before the dangling reference stopped the column.
      stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
      return Status::NotFound("get: dangling oid " + oid.ToString());
    }
    out->push_back(v->slots[slot]);
    ++emitted;
  }
  stats_.property_reads.fetch_add(emitted, std::memory_order_relaxed);
  if (at != kEpochLatest) {
    stats_.snapshot_reads.fetch_add(emitted, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ObjectStore::SetProperty(Oid oid, uint32_t slot, Value value) {
  WriterLock lock(data_mu_);
  VODAK_RETURN_IF_ERROR(
      CheckOid(oid, slot, "set", ResolveEpoch(kEpochLatest)));
  stats_.property_writes.fetch_add(1, std::memory_order_relaxed);
  Instance& inst = classes_[oid.class_id - 1].instances[oid.local - 1];
  if (AnyPins()) {
    const Epoch commit = epoch_.load(std::memory_order_acquire) + 1;
    MutableVersionAt(&inst, commit)->slots[slot] = std::move(value);
    stats_.epochs_committed.fetch_add(1, std::memory_order_relaxed);
    epoch_.store(commit, std::memory_order_release);
  } else {
    inst.versions.back().slots[slot] = std::move(value);
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
  for (uint32_t i = 0; i < cls->instances.size(); ++i) {
    const Version* v = VisibleVersion(cls->instances[i], epoch);
    if (v != nullptr && v->live) out.emplace_back(class_id, i + 1);
  }
  return out;
}

Result<uint64_t> ObjectStore::ExtentSize(uint32_t class_id, Epoch at) const {
  SharedLock lock(data_mu_);
  const ClassStorage* cls = FindClass(class_id);
  if (cls == nullptr) {
    return Status::NotFound("unknown class id " + std::to_string(class_id));
  }
  if (at == kEpochLatest) return cls->live_count;
  const Epoch epoch = ResolveEpoch(at);
  uint64_t count = 0;
  for (const Instance& inst : cls->instances) {
    const Version* v = VisibleVersion(inst, epoch);
    if (v != nullptr && v->live) ++count;
  }
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
        Version v;
        v.begin = commit;
        v.live = true;
        v.slots.assign(cls->slot_count, Value::Null());
        for (const auto& [slot, value] : m.sets) v.slots[slot] = value;
        Instance inst;
        inst.versions.push_back(std::move(v));
        cls->instances.push_back(std::move(inst));
        ++cls->live_count;
        result.created.emplace_back(
            m.class_id, static_cast<uint32_t>(cls->instances.size()));
        stats_.objects_created.fetch_add(1, std::memory_order_relaxed);
        stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
        stats_.property_writes.fetch_add(m.sets.size(),
                                         std::memory_order_relaxed);
        break;
      }
      case Mutation::Kind::kUpdate: {
        Instance& inst =
            classes_[m.oid.class_id - 1].instances[m.oid.local - 1];
        Version* v = MutableVersionAt(&inst, commit);
        for (const auto& [slot, value] : m.sets) v->slots[slot] = value;
        ++result.updated;
        stats_.property_writes.fetch_add(m.sets.size(),
                                         std::memory_order_relaxed);
        break;
      }
      case Mutation::Kind::kDelete: {
        Instance& inst =
            classes_[m.oid.class_id - 1].instances[m.oid.local - 1];
        Version& head = inst.versions.back();
        if (head.begin == commit) {
          // Inserted or updated earlier in this same batch: the batch is
          // atomic, so the intermediate version collapses into the
          // tombstone.
          head.live = false;
          head.slots.clear();
        } else {
          Version tomb;
          tomb.begin = commit;
          tomb.live = false;
          head.end = commit;
          inst.versions.push_back(std::move(tomb));
          stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
        }
        --classes_[m.oid.class_id - 1].live_count;
        ++classes_[m.oid.class_id - 1].deletes;
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
    for (Instance& inst : cls.instances) {
      auto& versions = inst.versions;
      if (versions.size() <= 1) continue;
      size_t kept = 0;
      for (size_t i = 0; i < versions.size(); ++i) {
        // A version with end <= horizon is superseded at every epoch a
        // pinned or future reader can resolve: drop it. The current
        // version (end == kEpochLatest) always survives.
        if (versions[i].end != kEpochLatest && versions[i].end <= horizon) {
          ++freed;
          continue;
        }
        if (kept != i) versions[kept] = std::move(versions[i]);
        ++kept;
      }
      versions.resize(kept);
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
