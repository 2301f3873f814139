// Morsels: the atomic-cursor unit of work stealing in the naive
// interpreter's parallel outer-range loop (vql/interpreter.h).
#ifndef VODAK_EXEC_MORSEL_SOURCE_H_
#define VODAK_EXEC_MORSEL_SOURCE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>

namespace vodak {
namespace exec {

/// Target number of rows per morsel handed to a parallel worker. Morsels
/// are the unit of work stealing in the interpreter's outer loop: big
/// enough that a worker amortizes the (single) atomic claim over many
/// NextBatch calls, small enough that a scan splits into more morsels
/// than workers so the pool load-balances dynamically.
constexpr size_t kDefaultMorselSize = 16384;

/// Morsel size giving each of `threads` workers several morsels of a
/// `total`-row source for dynamic load balance, clamped to
/// [min(1024, cap), cap].
inline size_t BalancedMorselSize(size_t total, size_t threads,
                                 size_t cap) {
  if (cap == 0) cap = 1;
  if (threads <= 1) return cap;
  const size_t floor_size = cap < 1024 ? cap : 1024;
  const size_t target = total / (threads * 4);
  return std::max(floor_size, std::min(cap, target));
}

/// A half-open index range [begin, end) into the outer range's
/// materialized extent.
struct Morsel {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Hands out disjoint morsels of a fixed-size source behind one atomic
/// cursor. Workers call Next() until it returns false; the claims
/// partition [0, total) exactly, so per-worker scans never overlap and
/// never miss a row. Reset/total/morsel_size must not race with Next
/// (the driver configures the source before starting the workers, and
/// the pool's ParallelRun fork/join is the happens-before edge that
/// publishes the plain fields — so only the cursor needs atomicity,
/// and relaxed order suffices: each claim is independent and no other
/// data is ordered against it. See docs/ARCHITECTURE.md §"Static
/// analysis & concurrency contracts" for the memory-order rules
/// scripts/lint.py enforces here).
class MorselSource {
 public:
  MorselSource() = default;
  MorselSource(const MorselSource&) = delete;
  MorselSource& operator=(const MorselSource&) = delete;

  /// Configures a fresh scan over `total` rows. Not thread-safe; call
  /// before handing the source to workers.
  void Reset(size_t total, size_t morsel_size) {
    total_ = total;
    morsel_size_ = morsel_size == 0 ? 1 : morsel_size;
    cursor_.store(0, std::memory_order_relaxed);
  }

  /// Claims the next morsel; returns false when the source is drained.
  bool Next(Morsel* morsel) {
    size_t begin =
        cursor_.fetch_add(morsel_size_, std::memory_order_relaxed);
    if (begin >= total_) return false;
    morsel->begin = begin;
    morsel->end = std::min(begin + morsel_size_, total_);
    return true;
  }

 private:
  std::atomic<size_t> cursor_{0};
  size_t total_ = 0;
  size_t morsel_size_ = kDefaultMorselSize;
};

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_MORSEL_SOURCE_H_
