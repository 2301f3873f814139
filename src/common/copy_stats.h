// Process-wide counters of batch value movement, the observable the
// selection-vector pipeline optimizes: compaction moves (values
// physically relocated inside a RowBatch) and gather copies (values
// copied out of a batch to build a dense selection/mask view for the
// expression evaluator). exec_selvec_test's
// SelectionChainMovesAtMostOneValuePerScannedRow fails when a selection
// chain moves more values than it scanned rows. See
// docs/ARCHITECTURE.md §"Selection vectors".
#ifndef VODAK_COMMON_COPY_STATS_H_
#define VODAK_COMMON_COPY_STATS_H_

#include <atomic>
#include <cstdint>

namespace vodak {

/// Relaxed atomics: the counters are bumped once per compaction/gather
/// (not per value) from concurrent drains, and read only by the
/// benchmark/test harness while no query is in flight.
struct BatchCopyStats {
  /// Values physically moved by RowBatch::Compact.
  static inline std::atomic<uint64_t> compact_moves{0};
  /// Values copied into dense gathered sub-batches (selection views and
  /// AND/OR mask gathers in expr/expr_eval_batch.cc).
  static inline std::atomic<uint64_t> gather_copies{0};

  static uint64_t TotalMoves() {
    return compact_moves.load(std::memory_order_relaxed) +
           gather_copies.load(std::memory_order_relaxed);
  }
  static void Reset() {
    compact_moves.store(0, std::memory_order_relaxed);
    gather_copies.store(0, std::memory_order_relaxed);
  }
};

}  // namespace vodak

#endif  // VODAK_COMMON_COPY_STATS_H_
