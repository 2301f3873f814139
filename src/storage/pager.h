// The page layer under the segment files: a single data file sliced
// into fixed-size pages, fronted by a bounded buffer cache with
// clock (second-chance) replacement and pin/unpin RAII
// (docs/ARCHITECTURE.md §"Paged storage & segment skipping"). A pinned
// page is wired in memory — the clock hand skips it — so readers hold
// stable pointers across a batch without copying; eviction writes
// dirty frames back before reuse. Hit/miss/evict/writeback counters
// are the checked signal: segment_diff_test's
// SelectiveReRunsHitTheSmallCache requires more hits than misses when
// a selective query re-runs through a deliberately small cache.
#ifndef VODAK_STORAGE_PAGER_H_
#define VODAK_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"

namespace vodak {
namespace storage {

struct PagerOptions {
  /// Bytes per page. Segment column blobs span whole pages, so ~64 KiB
  /// keeps the directory small while a blob still streams in few pins.
  size_t page_size = 64 * 1024;
  /// Buffer-cache capacity in pages. Tests cap this far below the data
  /// size to make the replacement policy observable.
  size_t cache_pages = 64;
};

/// Relaxed counters: concurrent readers bump them under no lock beyond
/// the pager mutex they already hold for the frame table, and tests
/// read them quiescently. Orders are spelled per the lint.py
/// atomics contract.
struct PagerStats {
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> writebacks{0};

  void Reset() {
    cache_hits.store(0, std::memory_order_relaxed);
    cache_misses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
    writebacks.store(0, std::memory_order_relaxed);
  }
};

class Pager;

/// RAII pin on one cached page. While alive, the frame cannot be
/// evicted and `data()` stays valid; `mutable_data()` additionally
/// marks the frame dirty so eviction (or Flush) writes it back.
/// Movable, not copyable; destruction unpins.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(Pager* pager, size_t frame, const uint8_t* data,
             uint64_t page_id)
      : pager_(pager), frame_(frame), data_(data), page_id_(page_id) {}
  ~PinnedPage();
  PinnedPage(PinnedPage&& other) noexcept { *this = std::move(other); }
  PinnedPage& operator=(PinnedPage&& other) noexcept;
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;

  bool valid() const { return pager_ != nullptr; }
  uint64_t page_id() const { return page_id_; }
  const uint8_t* data() const { return data_; }
  /// Write access; marks the frame dirty.
  uint8_t* mutable_data();

 private:
  Pager* pager_ = nullptr;
  size_t frame_ = 0;
  const uint8_t* data_ = nullptr;
  uint64_t page_id_ = 0;
};

/// Fixed-size-page file manager with a bounded in-memory frame pool.
/// All frame-table state is guarded by one mutex; page I/O runs under
/// it too — the tradeoff is deliberate for the 1-core CI container
/// (no benefit from I/O/latch overlap) and keeps the eviction
/// invariant trivially race-free: a frame is either mapped and
/// possibly pinned, or free, never mid-transition.
class Pager {
 public:
  /// Opens (creating if absent) the page file at `path`.
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             PagerOptions options);
  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Pins page `page_id`, faulting it from the file on a cache miss
  /// (pages past EOF read as zeros — freshly allocated pages are
  /// materialized on first writeback). Errors when every frame is
  /// pinned: the cache budget is a hard cap, and a caller holding that
  /// many pins is a bug the Status surfaces instead of deadlocking.
  Result<PinnedPage> Pin(uint64_t page_id) EXCLUDES(mu_);

  /// Appends a fresh page to the file's logical extent and returns its
  /// id. The page's bytes materialize on first Pin + writeback.
  uint64_t Allocate(uint64_t pages = 1) EXCLUDES(mu_);

  /// Writes every dirty cached frame back to the file.
  Status Flush() EXCLUDES(mu_);

  size_t page_size() const { return options_.page_size; }
  uint64_t page_count() const EXCLUDES(mu_);
  const PagerStats& stats() const { return stats_; }
  PagerStats* mutable_stats() { return &stats_; }

 private:
  friend class PinnedPage;

  struct Frame {
    uint64_t page_id = 0;
    bool mapped = false;
    bool dirty = false;
    bool referenced = false;  // clock second-chance bit
    uint32_t pins = 0;
    std::vector<uint8_t> bytes;
  };

  Pager(int fd, PagerOptions options, uint64_t file_pages);

  /// Finds a free frame, evicting an unpinned one if needed (dirty
  /// victims write back first). Returns the frame index or an error
  /// when every frame is pinned.
  Result<size_t> AcquireFrame() REQUIRES(mu_);
  Status ReadPage(uint64_t page_id, uint8_t* out) REQUIRES(mu_);
  Status WritePage(uint64_t page_id, const uint8_t* data) REQUIRES(mu_);
  void Unpin(size_t frame) EXCLUDES(mu_);
  void MarkDirty(size_t frame) EXCLUDES(mu_);

  const PagerOptions options_;
  const int fd_;

  mutable Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  /// page_id -> frame index for mapped frames.
  std::unordered_map<uint64_t, size_t> page_table_ GUARDED_BY(mu_);
  size_t clock_hand_ GUARDED_BY(mu_) = 0;
  /// Logical page extent (>= pages physically in the file).
  uint64_t page_extent_ GUARDED_BY(mu_) = 0;

  mutable PagerStats stats_;
};

}  // namespace storage
}  // namespace vodak

#endif  // VODAK_STORAGE_PAGER_H_
