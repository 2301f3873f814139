// Process-wide counters of the compiled-execution backend, the
// observables the batch VM optimizes: how many fused per-batch VM
// dispatches replaced how many virtual NextBatch hand-offs in the
// operator tree, how often compilation fell back, and whether the
// per-query arena reached its zero-allocation steady state.
// vm_test asserts `0 < vm_dispatches < operator_handoffs` on a fused
// chain (FusedDispatchesStayBelowOperatorHandoffs) and zero arena
// growth after warmup (ArenaResetsBetweenQueriesAndStaysAllocationFree).
// See docs/ARCHITECTURE.md
// §"Compiled execution — the batch VM".
#ifndef VODAK_COMMON_VM_STATS_H_
#define VODAK_COMMON_VM_STATS_H_

#include <atomic>
#include <cstdint>

namespace vodak {

/// Relaxed atomics: every counter is bumped once per batch / per query
/// (never per row) from query threads, and read only by the benchmark
/// and test harnesses while no query is in flight.
struct VmStats {
  /// Fused program runs: one per scan batch the VM consumes, covering
  /// the whole filter→map→project chain in a single dispatch.
  static inline std::atomic<uint64_t> vm_dispatches{0};
  /// Virtual NextBatch entries in the operator tree — one per operator
  /// per batch, the hand-off cost the VM fuses away.
  static inline std::atomic<uint64_t> operator_handoffs{0};
  /// Queries TryCompileVm lowered to a VM program.
  static inline std::atomic<uint64_t> vm_compiled{0};
  /// Queries TryCompileVm declined (ineligible shape or no cost win).
  static inline std::atomic<uint64_t> vm_fallbacks{0};
  /// QueryArena buffer capacity-growth events. Zero across a drain
  /// means the batch loop ran allocation-free out of retained buffers.
  static inline std::atomic<uint64_t> arena_allocations{0};
  /// Bytes acquired by those growth events (cumulative).
  static inline std::atomic<uint64_t> arena_bytes{0};
  /// Per-query arena resets (Open() of a VM execution).
  static inline std::atomic<uint64_t> arena_resets{0};

  static void Reset() {
    vm_dispatches.store(0, std::memory_order_relaxed);
    operator_handoffs.store(0, std::memory_order_relaxed);
    vm_compiled.store(0, std::memory_order_relaxed);
    vm_fallbacks.store(0, std::memory_order_relaxed);
    arena_allocations.store(0, std::memory_order_relaxed);
    arena_bytes.store(0, std::memory_order_relaxed);
    arena_resets.store(0, std::memory_order_relaxed);
  }
};

}  // namespace vodak

#endif  // VODAK_COMMON_VM_STATS_H_
