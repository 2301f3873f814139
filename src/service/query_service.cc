#include "service/query_service.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace vodak {
namespace service {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

QueryService::QueryService(engine::Database* db, ServiceOptions options)
    : db_(db),
      options_(options),
      scheduler_(db, options.lanes) {}

QueryService::~QueryService() { Stop(); }

Status QueryService::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(listen_fd_, options_.listen_backlog) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  VODAK_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  VODAK_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  VODAK_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));

  scheduler_.Start();
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void QueryService::Stop() {
  if (listen_fd_ < 0) return;  // never started (or already stopped)
  // Scheduler first: the loop keeps running while the in-flight
  // generation drains, so its final replies still reach clients.
  scheduler_.Stop();
  running_.store(false, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    // Best-effort wake; a full pipe means a wake is already pending.
    (void)!write(wake_write_fd_, &byte, 1);
  }
  if (loop_.joinable()) loop_.join();
  for (auto& [fd, conn] : conns_) close(fd);
  conns_.clear();
  conn_fds_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
}

void QueryService::PostReply(PendingReply reply) {
  {
    MutexLock lock(out_mu_);
    outbox_.push_back(std::move(reply));
  }
  const char byte = 1;
  (void)!write(wake_write_fd_, &byte, 1);
}

void QueryService::DrainOutbox() {
  std::vector<PendingReply> replies;
  {
    MutexLock lock(out_mu_);
    replies.swap(outbox_);
  }
  for (PendingReply& reply : replies) {
    auto it = conn_fds_.find(reply.conn_id);
    if (it == conn_fds_.end()) continue;  // client disconnected
    auto conn_it = conns_.find(it->second);
    if (conn_it == conns_.end()) continue;
    Connection& conn = *conn_it->second;
    conn.inflight.erase(reply.request_id);
    QueueReply(conn, reply.line);
  }
}

void QueryService::QueueReply(Connection& conn, const std::string& line) {
  conn.outbuf += line;
  conn.outbuf += '\n';
}

void QueryService::CloseConnection(Connection& conn) {
  // Disconnect cancels the client's in-flight queries: nobody is left
  // to read their results, so let their lanes free up within a batch.
  for (auto& [id, token] : conn.inflight) token->Cancel();
  conn_fds_.erase(conn.id);
  close(conn.fd);
}

void QueryService::HandleLine(Connection& conn, const std::string& line) {
  if (line.empty()) return;
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    QueueReply(conn, "E " + parsed.status().message());
    return;
  }
  Request& req = parsed.value();
  switch (req.kind) {
    case Request::Kind::kStats:
      QueueReply(conn, FormatStatsLine(stats()));
      return;
    case Request::Kind::kCancel: {
      // Fire-and-forget; an unknown or already-finished id is a no-op
      // (its reply may already be in flight).
      auto it = conn.inflight.find(req.id);
      if (it != conn.inflight.end()) it->second->Cancel();
      return;
    }
    case Request::Kind::kQuery:
      break;
  }
  if (conn.inflight.count(req.id) != 0) {
    QueueReply(conn, "E duplicate in-flight request id: " + req.id);
    return;
  }
  const auto arrival = std::chrono::steady_clock::now();
  ServiceQuery query;
  query.request_id = req.id;
  query.cancel = std::make_shared<exec::CancellationToken>();
  query.deadline = req.deadline_ms > 0
                       ? exec::Deadline::After(req.deadline_ms)
                       : exec::Deadline::None();
  // Planning runs here, serialized on the event thread — the optimizer
  // module is not built for concurrent Optimize calls, and a plan
  // error can answer immediately without touching the scheduler.
  Result<const CachedPlan*> planned = PlanFor(req.vql);
  query.plan_ms = MsBetween(arrival, std::chrono::steady_clock::now());
  if (!planned.ok()) {
    engine::QueryStats stats;
    stats.plan_ms = query.plan_ms;
    QueueReply(conn, FormatReplyLine(req.id, planned.status(),
                                     /*result=*/nullptr, stats));
    return;
  }
  const CachedPlan& plan = *planned.value();
  query.plan = plan.plan;
  query.result_ref = plan.result_ref;
  query.admitted_at = std::chrono::steady_clock::now();
  conn.inflight[req.id] = query.cancel;
  const uint64_t conn_id = conn.id;
  query.done = [this, conn_id](QueryReply reply) {
    PendingReply pending;
    pending.conn_id = conn_id;
    pending.request_id = reply.request_id;
    pending.line =
        FormatReplyLine(reply.request_id, reply.status,
                        reply.status.ok() ? &reply.result : nullptr,
                        reply.stats);
    PostReply(std::move(pending));
  };
  scheduler_.Admit(std::move(query));
}

Result<const CachedPlan*> QueryService::PlanFor(const std::string& vql) {
  // Stamps are read before planning: a commit or regeneration racing
  // the Prepare below leaves the entry stamped old, so the next lookup
  // discards it rather than trusting a plan of unknown vintage.
  const PlanStamp stamp{db_->store()->CurrentEpoch(),
                        db_->optimizer_generation()};
  if (const CachedPlan* hit = plan_cache_.Find(vql, stamp)) {
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  VODAK_ASSIGN_OR_RETURN(
      engine::PreparedQuery prepared,
      db_->Prepare(vql, {/*optimize=*/options_.optimize, /*trace=*/false}));
  CachedPlan plan;
  plan.plan = prepared.planned.chosen_plan;
  plan.result_ref = std::move(prepared.result_ref);
  return plan_cache_.Insert(vql, stamp, std::move(plan));
}

ServiceStats QueryService::stats() const {
  ServiceStats stats = scheduler_.stats();
  stats.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  stats.plan_cache_misses =
      plan_cache_misses_.load(std::memory_order_relaxed);
  return stats;
}

void QueryService::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<int> doomed;
  char buf[4096];
  // Armed at the first shutdown observation: pending replies get a
  // bounded flush window, so a client that stopped reading cannot
  // hang Stop() on its full socket buffer.
  std::chrono::steady_clock::time_point flush_deadline;
  bool flushing = false;
  for (;;) {
    const bool running = running_.load(std::memory_order_acquire);
    // Keep looping while replies are still pending flush on shutdown.
    if (!running) {
      if (!flushing) {
        flushing = true;
        flush_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
      }
      bool pending = false;
      {
        MutexLock lock(out_mu_);
        pending = !outbox_.empty();
      }
      if (!pending) {
        for (auto& [fd, conn] : conns_) {
          if (!conn->outbuf.empty()) pending = true;
        }
      }
      if (!pending || std::chrono::steady_clock::now() >= flush_deadline) {
        return;
      }
    }

    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = conn->closing ? 0 : POLLIN;
      if (!conn->outbuf.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    // 200ms tick bounds shutdown latency even if a wake byte is lost.
    (void)poll(fds.data(), fds.size(), 200);

    if (fds[1].revents & POLLIN) {
      while (read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    DrainOutbox();

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd).ok()) {
          close(fd);
          continue;
        }
        auto conn = std::make_unique<Connection>();
        conn->id = ++next_conn_id_;
        conn->fd = fd;
        conn_fds_[conn->id] = fd;
        conns_[fd] = std::move(conn);
      }
    }

    doomed.clear();
    for (size_t i = 2; i < fds.size(); ++i) {
      auto conn_it = conns_.find(fds[i].fd);
      if (conn_it == conns_.end()) continue;
      Connection& conn = *conn_it->second;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        doomed.push_back(conn.fd);
        continue;
      }
      if (fds[i].revents & POLLIN) {
        bool eof = false;
        for (;;) {
          const ssize_t n = read(conn.fd, buf, sizeof(buf));
          if (n > 0) {
            conn.inbuf.append(buf, static_cast<size_t>(n));
            // The rest stays in the socket until these lines are parsed.
            if (conn.inbuf.size() > kMaxLineBytes) break;
          } else if (n == 0) {
            eof = true;
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK) eof = true;
            break;
          }
        }
        size_t start = 0;
        bool overlong = false;
        for (;;) {
          const size_t nl = conn.inbuf.find('\n', start);
          if (nl == std::string::npos) break;
          if (nl - start > kMaxLineBytes) {
            overlong = true;
            break;
          }
          std::string line = conn.inbuf.substr(start, nl - start);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          HandleLine(conn, line);
          start = nl + 1;
        }
        conn.inbuf.erase(0, start);
        if (overlong || conn.inbuf.size() > kMaxLineBytes) {
          QueueReply(conn, "E request line exceeds " +
                               std::to_string(kMaxLineBytes) + " bytes");
          conn.inbuf.clear();
          conn.closing = true;
        }
        if (eof) {
          doomed.push_back(conn.fd);
          continue;
        }
      }
      if (!conn.outbuf.empty()) {
        const ssize_t n = send(conn.fd, conn.outbuf.data(),
                               conn.outbuf.size(), MSG_NOSIGNAL);
        if (n > 0) {
          conn.outbuf.erase(0, static_cast<size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          doomed.push_back(conn.fd);
          continue;
        }
      }
      if (conn.closing && conn.outbuf.empty()) doomed.push_back(conn.fd);
    }
    for (int fd : doomed) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      CloseConnection(*it->second);
      conns_.erase(it);
    }
  }
}

}  // namespace service
}  // namespace vodak
