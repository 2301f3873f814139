// The query service front-end: a long-running loopback TCP endpoint
// accepting a stream of VQL queries in the newline-framed protocol of
// service/protocol.h, admitting them into shared-scan generations
// (service/generation.h) and streaming replies back as members
// complete (docs/ARCHITECTURE.md §"Query service & admission
// control"). Plain poll(2) over nonblocking sockets — no event-loop
// dependency.
//
// Threading model: one event-loop thread owns all sockets and all
// connection state (no mutex needed there — documented per field);
// generation workers hand finished replies over through a mutex-backed
// outbox drained by the loop, woken through a self-pipe. Planning runs
// on the event-loop thread: the optimizer module is not built for
// concurrent Optimize calls, and serializing it there keeps the
// scheduler purely an executor. The loop also owns the plan cache
// (service/plan_cache.h), so a repeated query text plans once until the
// next commit or optimizer regeneration.
#ifndef VODAK_SERVICE_QUERY_SERVICE_H_
#define VODAK_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/database.h"
#include "service/generation.h"
#include "service/plan_cache.h"
#include "service/protocol.h"

namespace vodak {
namespace service {

struct ServiceOptions {
  /// 0 binds an ephemeral port; read the bound one back via port().
  uint16_t port = 0;
  /// Worker lanes per generation drain; 0 = hardware concurrency.
  size_t lanes = 0;
  size_t morsel_size = exec::kDefaultMorselSize;
  /// False drains with private cursors (the baseline service_test's
  /// ClosedLoopClientsShareGenerationsScansAndPlans compares against).
  bool shared_scan = true;
  /// Late-attach deadline slack (SchedulerOptions::attach_slack).
  double attach_slack = 2.0;
  /// Plan with the generated optimizer. Off by default: the service is
  /// usable on a session without GenerateOptimizer().
  bool optimize = false;
  int listen_backlog = 16;
};

/// The service. Start() binds, spawns the scheduler's executor and the
/// event loop; Stop() drains the in-flight generation, flushes its
/// replies and tears the sockets down. One Start/Stop cycle per
/// instance.
class QueryService {
 public:
  explicit QueryService(engine::Database* db, ServiceOptions options = {});
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;
  ~QueryService();

  Status Start();
  void Stop();

  /// The bound (possibly ephemeral) port; valid after Start().
  uint16_t port() const { return port_; }

  /// The scheduler's counters plus the plan cache's hits and misses.
  ServiceStats stats() const;

 private:
  /// One client connection. Owned and touched exclusively by the
  /// event-loop thread — never lock-protected by design.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    /// Bytes received but not yet newline-terminated; at most
    /// kMaxLineBytes plus one read.
    std::string inbuf;
    /// Formatted reply bytes not yet accepted by the socket.
    std::string outbuf;
    /// In-flight queries by request id; the target of `C <id>` and of
    /// the cancel-on-disconnect sweep.
    std::map<std::string, std::shared_ptr<exec::CancellationToken>> inflight;
    /// Set once a line exceeded kMaxLineBytes: nothing more is read, and
    /// the connection closes as soon as its `E` reply is sent.
    bool closing = false;
  };

  /// A finished query's formatted reply, posted by a generation worker
  /// for the loop to route to its connection (which may be gone).
  struct PendingReply {
    uint64_t conn_id = 0;
    std::string request_id;
    std::string line;
  };

  void EventLoop();
  /// Handles one complete request line from `conn` (loop thread).
  void HandleLine(Connection& conn, const std::string& line);
  /// The plan for `vql`: from the plan cache when an entry made under
  /// the current stamps exists, else from Database::Prepare, caching
  /// only a successful plan (loop thread).
  Result<const CachedPlan*> PlanFor(const std::string& vql);
  /// Queues `line` (no newline) for `conn` and arms POLLOUT via the
  /// next poll rebuild (loop thread).
  void QueueReply(Connection& conn, const std::string& line);
  /// Worker-side: posts a finished reply and wakes the loop.
  void PostReply(PendingReply reply) EXCLUDES(out_mu_);
  /// Loop-side: drains the outbox into connection buffers.
  void DrainOutbox() EXCLUDES(out_mu_);
  void CloseConnection(Connection& conn);

  engine::Database* const db_;
  const ServiceOptions options_;
  GenerationScheduler scheduler_;

  int listen_fd_ = -1;
  /// Self-pipe: workers write one byte to wake the loop out of poll.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  /// Loop shutdown flag. Release/acquire pairs Stop()'s state writes
  /// with the loop's final iteration.
  std::atomic<bool> running_{false};
  std::thread loop_;

  // Event-loop-thread-only state; no guard by design (single owner).
  std::map<int, std::unique_ptr<Connection>> conns_;
  /// conn id → fd, for reply routing after the fd may have been
  /// reused; erased together with conns_.
  std::map<uint64_t, int> conn_fds_;
  uint64_t next_conn_id_ = 0;
  PlanCache plan_cache_;
  /// Written by the loop, read by stats() on any thread. Relaxed: pure
  /// counters that order nothing.
  std::atomic<uint64_t> plan_cache_hits_{0};
  std::atomic<uint64_t> plan_cache_misses_{0};

  /// The worker → loop mailbox.
  Mutex out_mu_;
  std::vector<PendingReply> outbox_ GUARDED_BY(out_mu_);
};

}  // namespace service
}  // namespace vodak

#endif  // VODAK_SERVICE_QUERY_SERVICE_H_
