#ifndef VODAK_OBJSTORE_OBJECT_STORE_H_
#define VODAK_OBJSTORE_OBJECT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "objstore/epoch.h"
#include "types/oid.h"
#include "types/value.h"

namespace vodak {

/// Counters exposed by the store. perfbench, tests and the cost-model
/// calibration read these to *measure* property accesses and extent scans
/// instead of guessing, which is how we validate the paper's claims about
/// access cost asymmetry between attributes and methods. Relaxed atomics:
/// concurrent drains read properties at the same time, and counting must
/// never race (column reads bump property_reads once per column, so the
/// hot path pays one fetch_add per batch, not per row).
struct StoreStats {
  std::atomic<uint64_t> property_reads{0};
  std::atomic<uint64_t> property_writes{0};
  std::atomic<uint64_t> objects_created{0};
  std::atomic<uint64_t> objects_deleted{0};
  std::atomic<uint64_t> extent_scans{0};
  /// Reads resolved at an explicitly pinned epoch (not kEpochLatest):
  /// the count of work actually served from a snapshot.
  /// mvcc_stress_test requires at least one per completed read.
  std::atomic<uint64_t> snapshot_reads{0};
  /// Version records appended by the copy-on-write path (Apply, or a
  /// legacy write forced to version because readers hold pins).
  std::atomic<uint64_t> versions_created{0};
  /// Superseded versions freed by Reclaim().
  std::atomic<uint64_t> versions_reclaimed{0};
  /// Epoch bumps committed (one per Apply batch, not per mutation).
  std::atomic<uint64_t> epochs_committed{0};
  /// Row reads resolved from a superseded version in the history map
  /// rather than from the head columns: the slow path of a reader pinned
  /// before a commit that touched the row. Latest-epoch reads never
  /// take it.
  std::atomic<uint64_t> history_reads{0};

  /// Relaxed, like every bump: resets run while no query is in flight,
  /// and an implicit assignment would pay a seq_cst fence for ordering
  /// nobody reads (scripts/lint.py rejects implicit-order atomic ops).
  void Reset() {
    property_reads.store(0, std::memory_order_relaxed);
    property_writes.store(0, std::memory_order_relaxed);
    objects_created.store(0, std::memory_order_relaxed);
    objects_deleted.store(0, std::memory_order_relaxed);
    extent_scans.store(0, std::memory_order_relaxed);
    snapshot_reads.store(0, std::memory_order_relaxed);
    versions_created.store(0, std::memory_order_relaxed);
    versions_reclaimed.store(0, std::memory_order_relaxed);
    epochs_committed.store(0, std::memory_order_relaxed);
    history_reads.store(0, std::memory_order_relaxed);
  }
};

/// One write in a batch handed to ObjectStore::Apply. The whole batch
/// commits atomically under a single epoch bump; every mutation is
/// validated against the pre-batch state before any of them applies.
struct Mutation {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  /// kInsert: the class to instantiate.
  uint32_t class_id = 0;
  /// kUpdate / kDelete: the target instance.
  Oid oid;
  /// kInsert / kUpdate: (slot, value) assignments.
  std::vector<std::pair<uint32_t, Value>> sets;

  static Mutation Insert(uint32_t class_id,
                         std::vector<std::pair<uint32_t, Value>> sets = {}) {
    Mutation m;
    m.kind = Kind::kInsert;
    m.class_id = class_id;
    m.sets = std::move(sets);
    return m;
  }
  static Mutation Update(Oid oid,
                         std::vector<std::pair<uint32_t, Value>> sets) {
    Mutation m;
    m.kind = Kind::kUpdate;
    m.oid = oid;
    m.sets = std::move(sets);
    return m;
  }
  static Mutation Delete(Oid oid) {
    Mutation m;
    m.kind = Kind::kDelete;
    m.oid = oid;
    return m;
  }
};

/// What a committed Apply batch did, and the epoch it committed as.
struct MutationResult {
  Epoch epoch = 0;
  std::vector<Oid> created;  // one Oid per kInsert, in batch order
  uint64_t updated = 0;
  uint64_t deleted = 0;
};

/// In-memory object store: the VODAK-kernel substitute (DESIGN.md S3),
/// multi-version (docs/ARCHITECTURE.md §"Writes, epochs & snapshot
/// isolation").
///
/// A class is registered with a number of property slots; its instances
/// are rows addressed by Oid {class_id, local}, row = local - 1. The
/// layout is column-major: each class keeps the newest ("head") version
/// of every row in contiguous arrays — the epoch whose commit wrote it,
/// a live flag (0 is a delete tombstone) and one Value column per slot —
/// and a side history map holds, for the rows that have them only, the
/// superseded versions, each visible at epochs in [begin, end). A read at
/// epoch E uses the head when it began at or before E (visible iff
/// live); otherwise the history entry with begin <= E < end, and without
/// one the row did not exist at E. Deletes leave a tombstone head rather
/// than reclaiming the local id, so Oids stay stable.
///
/// Writers commit through Apply() under the exclusive side of a
/// reader/writer lock and bump the global epoch once per batch; a batch
/// copies a row's head into history once, then writes the columns in
/// place. Readers pin an epoch (PinEpoch/UnpinEpoch, or the EpochPin RAII
/// helper) and pass it to every read, so a query observes one consistent
/// snapshot no matter how many batches commit while it drains. Reclaim()
/// — callable directly or via the opt-in background thread — walks the
/// history map and frees superseded versions no pinned (or future)
/// reader can ever see.
///
/// The single-object CreateObject/SetProperty/DeleteObject calls remain
/// for loaders and tests; while no reader holds a pin they write the head
/// in place without versioning or an epoch bump (bulk load stays cheap),
/// and the moment any pin exists they switch to the same copy-on-write
/// path as Apply.
class ObjectStore {
 public:
  ObjectStore() = default;
  ~ObjectStore();
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Registers storage for a class; returns its class id (>= 1).
  uint32_t RegisterClass(std::string debug_name, uint32_t slot_count);

  uint32_t class_count() const;

  /// Creates an instance with all slots NULL.
  Result<Oid> CreateObject(uint32_t class_id);

  /// Tombstones an object; its Oid becomes invalid at later epochs.
  Status DeleteObject(Oid oid);

  bool Exists(Oid oid, Epoch at = kEpochLatest) const;

  /// Drops from `oids` (all of class `class_id`, order kept) every
  /// instance not live at `at`: the filter external indexes, which
  /// never hear of deletes, apply to their hits. One shared-lock
  /// acquisition for the whole vector; returns without touching it
  /// when the class has never had a delete committed.
  Status RetainLive(uint32_t class_id, std::vector<Oid>* oids,
                    Epoch at = kEpochLatest) const;

  Result<Value> GetProperty(Oid oid, uint32_t slot,
                            Epoch at = kEpochLatest) const;
  Status SetProperty(Oid oid, uint32_t slot, Value value);

  /// Batched property read for the vectorized executor: appends the
  /// value of `slot` for instance `local` of `class_id`, for every local
  /// in `locals`, to `out` (in order). Resolves the class storage and
  /// checks the slot once for the whole column instead of once per
  /// object, and bumps the stats once: locals.size() property reads.
  Status GetPropertyColumn(uint32_t class_id, uint32_t slot,
                           const std::vector<uint32_t>& locals,
                           std::vector<Value>* out,
                           Epoch at = kEpochLatest) const;

  /// Oid-vector variant reading oids[begin, end), for callers that
  /// already hold a materialized extent (the segment ingester), so no
  /// caller copies an extent into a separate locals vector just to
  /// satisfy the column API. Every oid must belong to `class_id`.
  Status GetPropertyColumn(uint32_t class_id, uint32_t slot,
                           const std::vector<Oid>& oids,
                           size_t begin, size_t end,
                           std::vector<Value>* out,
                           Epoch at = kEpochLatest) const;

  /// Instances of a class visible at `at`, in creation order. Counts as
  /// one extent scan in the stats.
  Result<std::vector<Oid>> Extent(uint32_t class_id,
                                  Epoch at = kEpochLatest) const;

  /// Number of visible instances (cardinality statistic for the
  /// optimizer; at the latest epoch this is O(1) off the maintained
  /// live count, at a pinned epoch it passes over the head arrays).
  Result<uint64_t> ExtentSize(uint32_t class_id,
                              Epoch at = kEpochLatest) const;

  /// Commits a batch of mutations atomically under one epoch bump.
  /// Every mutation is validated against the pre-batch state first; on
  /// any validation error nothing applies and the epoch does not move.
  /// Mutations read the pre-batch snapshot (an update of an oid
  /// inserted by the same batch is rejected), except that repeated
  /// updates of one oid within a batch compose in order.
  Result<MutationResult> Apply(const std::vector<Mutation>& batch)
      EXCLUDES(data_mu_);

  /// The newest committed epoch.
  Epoch CurrentEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Registers a reader at the current epoch and returns it; every
  /// version visible at that epoch is kept alive until the matching
  /// UnpinEpoch. Pins nest and are cheap (a map bump under a mutex).
  Epoch PinEpoch() EXCLUDES(pin_mu_);
  void UnpinEpoch(Epoch epoch) EXCLUDES(pin_mu_);
  /// Oldest pinned epoch, or the current epoch when nothing is pinned —
  /// the reclaim horizon.
  Epoch MinPinnedEpoch() const EXCLUDES(pin_mu_);

  /// Frees history entries superseded at or before the reclaim horizon
  /// (entry.end <= MinPinnedEpoch()): no pinned reader can see them, and
  /// future readers pin epochs >= the horizon. Walks only the rows that
  /// have history. Returns the number of versions freed.
  size_t Reclaim() EXCLUDES(data_mu_);

  /// Opt-in background reclaim: a thread that runs Reclaim() whenever a
  /// pin release may have advanced the horizon (and periodically as a
  /// backstop). Not started by default so deterministic tests control
  /// reclaim timing themselves.
  void StartBackgroundReclaim();
  void StopBackgroundReclaim();

  const StoreStats& stats() const { return stats_; }
  StoreStats* mutable_stats() { return &stats_; }

 private:
  /// A superseded version of one row, visible at epochs in [begin, end).
  /// Only a live head is ever superseded (a tombstone takes no further
  /// write), so every history entry is live.
  struct Version {
    Epoch begin = 0;
    Epoch end = 0;
    std::vector<Value> slots;
  };
  struct ClassStorage {
    std::string debug_name;
    uint32_t slot_count = 0;
    uint64_t live_count = 0;  // at the latest epoch
    uint64_t deletes = 0;     // deletes ever committed (RetainLive)
    /// The head version of every row, indexed by row = local - 1: the
    /// epoch of the commit that wrote it, whether it is live, and its
    /// value in each slot's column (NULL in a tombstone).
    std::vector<Epoch> head_begin;
    std::vector<uint8_t> head_live;
    std::vector<std::vector<Value>> columns;
    /// row -> its superseded versions, ascending by begin; the last one
    /// ends where the head begins. Rows without history have no entry.
    std::unordered_map<uint32_t, std::vector<Version>> history;

    uint32_t rows() const { return static_cast<uint32_t>(head_begin.size()); }
  };

  /// The superseded version of `row` visible at `at`, or null when the
  /// row did not exist at `at`. Only for rows whose head began after
  /// `at`.
  static const Version* HistoryAt(const ClassStorage& cls, uint32_t row,
                                  Epoch at);
  /// Whether instance `local` is live at `at`. `*old` is the history
  /// entry the read resolved to, or null when it resolved to the head
  /// (or to nothing).
  static bool LiveAt(const ClassStorage& cls, uint32_t local, Epoch at,
                     const Version** old);

  /// Resolves kEpochLatest to the current epoch. Callers hold at least
  /// the shared side of data_mu_, under which epoch_ cannot advance
  /// (stores happen only under the exclusive side).
  Epoch ResolveEpoch(Epoch at) const {
    return at == kEpochLatest ? epoch_.load(std::memory_order_acquire) : at;
  }

  /// Checks that `oid` is live at `at` and `slot` exists in its class;
  /// `old`, when given, receives what LiveAt resolved to.
  Status CheckOid(Oid oid, uint32_t slot, const char* op, Epoch at,
                  const Version** old = nullptr) const
      REQUIRES_SHARED(data_mu_);
  const ClassStorage* FindClass(uint32_t class_id) const
      REQUIRES_SHARED(data_mu_);
  ClassStorage* FindClassMutable(uint32_t class_id) REQUIRES(data_mu_);

  /// True when any reader holds a pin — the trigger that flips the
  /// legacy single-object writes from in-place to copy-on-write. Called
  /// with data_mu_ held exclusively, which makes the check race-free: a
  /// reader pinning after it returns false cannot complete any read
  /// before this writer finishes (reads take data_mu_ shared), so that
  /// reader observes the fully applied in-place write — a valid
  /// serialization with the writer first.
  bool AnyPins() const EXCLUDES(pin_mu_);

  /// Appends a live row of NULLs whose head begins at `begin`; returns
  /// its Oid.
  Oid AppendRow(uint32_t class_id, ClassStorage* cls, Epoch begin)
      REQUIRES(data_mu_);

  /// Makes `row`'s head the version of commit `commit`: the first touch
  /// in a commit copies the head into history (moving its values out
  /// when `deleting`, since the tombstone drops them); a later touch in
  /// the same commit composes in place, because the batch is atomic and
  /// intermediate states are never visible.
  void SupersedeHead(ClassStorage* cls, uint32_t row, Epoch commit,
                     bool deleting) REQUIRES(data_mu_);

  /// Turns `row`'s head into a tombstone and NULLs its values.
  static void KillHead(ClassStorage* cls, uint32_t row);

  /// The column gather behind both GetPropertyColumn overloads: reads
  /// `slot` of oid_at(0) .. oid_at(n - 1).
  template <typename OidAt>
  Status GatherColumn(uint32_t class_id, uint32_t slot, size_t n,
                      OidAt oid_at, std::vector<Value>* out, Epoch at) const
      EXCLUDES(data_mu_);

  void ReclaimLoop();

  /// Reader/writer lock over all class storage. Readers resolve their
  /// epoch and read heads and history under the shared side; Apply and the
  /// legacy writes hold the exclusive side. Acquired before pin_mu_
  /// everywhere both are held (Apply/Reclaim take data_mu_ then consult
  /// the pin table).
  mutable SharedMutex data_mu_ ACQUIRED_BEFORE(pin_mu_);
  std::vector<ClassStorage> classes_ GUARDED_BY(data_mu_);

  /// Newest committed epoch. Stored (release) only under the exclusive
  /// side of data_mu_, as the last step of a commit; loaded (acquire)
  /// without data_mu_ by PinEpoch/CurrentEpoch, so a pinner that reads
  /// epoch C also sees every version the C commit published.
  std::atomic<Epoch> epoch_{0};

  mutable Mutex pin_mu_;
  /// epoch -> number of pins at that epoch.
  std::map<Epoch, uint32_t> pins_ GUARDED_BY(pin_mu_);
  bool reclaim_running_ GUARDED_BY(pin_mu_) = false;
  bool stop_reclaim_ GUARDED_BY(pin_mu_) = false;
  /// Set by UnpinEpoch when a pin count hits zero: the horizon may have
  /// advanced, wake the reclaim thread.
  bool horizon_moved_ GUARDED_BY(pin_mu_) = false;
  std::condition_variable_any reclaim_cv_;
  std::thread reclaim_thread_;

  mutable StoreStats stats_;
};

/// RAII pin: pins the store's current epoch for this scope.
class EpochPin {
 public:
  explicit EpochPin(ObjectStore* store)
      : store_(store), epoch_(store->PinEpoch()) {}
  ~EpochPin() {
    if (store_ != nullptr) store_->UnpinEpoch(epoch_);
  }
  EpochPin(EpochPin&& other) noexcept
      : store_(other.store_), epoch_(other.epoch_) {
    other.store_ = nullptr;
  }
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  EpochPin& operator=(EpochPin&&) = delete;

  Epoch epoch() const { return epoch_; }

 private:
  ObjectStore* store_;
  Epoch epoch_;
};

}  // namespace vodak

#endif  // VODAK_OBJSTORE_OBJECT_STORE_H_
