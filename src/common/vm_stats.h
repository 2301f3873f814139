// Process-wide executor hand-off counter: how many virtual NextBatch
// entries the operator tree made. perfbench reports it per read as
// `exec.operator_handoffs_per_read`. The three vm_* counters belonged
// to the bytecode VM, which was deleted; they stay declared only
// because perfbench/src/main.cc still reads them, and nothing bumps
// them any more, so they read 0.
#ifndef VODAK_COMMON_VM_STATS_H_
#define VODAK_COMMON_VM_STATS_H_

#include <atomic>
#include <cstdint>

namespace vodak {

/// Relaxed atomics: bumped once per batch (never per row) from query
/// threads, and read only by the benchmark while no query is in
/// flight.
struct VmStats {
  /// Virtual NextBatch entries in the operator tree — one per operator
  /// per batch.
  static inline std::atomic<uint64_t> operator_handoffs{0};
  /// Always 0: read by perfbench only (exec.vm_dispatches_per_read,
  /// exec.vm_compiled_share), kept until the benchmark drops them.
  static inline std::atomic<uint64_t> vm_dispatches{0};
  static inline std::atomic<uint64_t> vm_compiled{0};
  static inline std::atomic<uint64_t> vm_fallbacks{0};
};

}  // namespace vodak

#endif  // VODAK_COMMON_VM_STATS_H_
