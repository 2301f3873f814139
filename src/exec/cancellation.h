// Per-query cancellation and deadlines for the batch executor. A query
// carries an optional CancellationToken plus a Deadline in its
// ExecContext; the pipeline polls both at batch boundaries — every scan
// leaf's NextBatch and every nested-loop join output batch — so a
// cancel lands within ~one batch (~kDefaultBatchSize rows) of being
// requested, without any per-row cost. Cancellation points are catalogued in
// docs/ARCHITECTURE.md §"Query service & admission control".
#ifndef VODAK_EXEC_CANCELLATION_H_
#define VODAK_EXEC_CANCELLATION_H_

#include <atomic>
#include <chrono>

#include "common/status.h"

namespace vodak {
namespace exec {

/// One query's cancel flag. The requester (a service connection, a
/// client thread) calls Cancel(); every executor-side check observes it
/// via cancel_requested(). Safe to share across threads; release on the
/// store pairs with acquire on the load so whatever the canceller wrote
/// before cancelling (a reason, a log line) is visible to the drain
/// that observes the flag.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// An absolute steady-clock deadline; `armed == false` (the default)
/// means "no deadline". Value type: copied freely into ExecContexts.
struct Deadline {
  std::chrono::steady_clock::time_point at{};
  bool armed = false;

  static Deadline None() { return Deadline{}; }
  /// `ms` from now; non-positive values produce an already-expired
  /// deadline (admission rejects those up front).
  static Deadline After(double ms) {
    Deadline d;
    d.at = std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double, std::milli>(ms));
    d.armed = true;
    return d;
  }

  bool expired() const {
    return armed && std::chrono::steady_clock::now() >= at;
  }
  /// Milliseconds until expiry (negative once past); meaningless when
  /// not armed.
  double remaining_ms() const {
    return std::chrono::duration<double, std::milli>(
               at - std::chrono::steady_clock::now())
        .count();
  }
};

/// The one check every cancellation point runs: cancel wins over
/// deadline (an explicit cancel is the stronger, intentional signal).
/// Both resulting codes are terminal per-query outcomes, never batch
/// failures — the service and Submit map them to distinct statuses.
inline Status CheckQueryAlive(const CancellationToken* token,
                              const Deadline& deadline) {
  if (token != nullptr && token->cancel_requested()) {
    return Status::Cancelled("query cancelled");
  }
  if (deadline.expired()) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_CANCELLATION_H_
