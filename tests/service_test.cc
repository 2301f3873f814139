// End-to-end tests of the query service: protocol parsing, the socket
// front-end, shared-scan generations, per-query deadlines and
// cancellation over the wire (docs/ARCHITECTURE.md §"Query service &
// admission control").
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/generation.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "vql/interpreter.h"
#include "workload/document_db.h"
#include "workload/document_knowledge.h"

namespace vodak {
namespace service {
namespace {

// ------------------------------------------------------- protocol

TEST(ProtocolTest, ParsesRequestLines) {
  auto q = ParseRequestLine("Q q1 250 ACCESS p FROM p IN Paragraph");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().kind, Request::Kind::kQuery);
  EXPECT_EQ(q.value().id, "q1");
  EXPECT_EQ(q.value().deadline_ms, 250.0);
  EXPECT_EQ(q.value().vql, "ACCESS p FROM p IN Paragraph");

  auto c = ParseRequestLine("C q1");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().kind, Request::Kind::kCancel);
  EXPECT_EQ(c.value().id, "q1");

  auto s = ParseRequestLine("S");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().kind, Request::Kind::kStats);

  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("X nope").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1 -5 ACCESS ...").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1 abc ACCESS ...").ok());
  EXPECT_FALSE(ParseRequestLine("Q q1 10 ").ok());
}

TEST(ProtocolTest, ReplyLineRoundTrips) {
  engine::QueryStats stats;
  stats.queue_ms = 1.5;
  stats.plan_ms = 0.25;
  stats.drain_ms = 3.75;
  stats.generation_id = 7;
  stats.attached_late = true;
  Value result = Value::Set({Value::Int(1), Value::Int(2)});
  const std::string ok_line =
      FormatReplyLine("q9", Status::OK(), &result, stats);
  auto ok = ParseReplyLine(ok_line);
  ASSERT_TRUE(ok.ok()) << ok_line;
  EXPECT_TRUE(ok.value().ok());
  EXPECT_EQ(ok.value().id, "q9");
  EXPECT_EQ(ok.value().rows, 2u);
  EXPECT_EQ(ok.value().hash, DigestHex(ResultDigest(result)));
  EXPECT_EQ(ok.value().stats.generation_id, 7u);
  EXPECT_TRUE(ok.value().stats.attached_late);
  EXPECT_DOUBLE_EQ(ok.value().stats.drain_ms, 3.75);

  const std::string bad_line = FormatReplyLine(
      "q2", Status::DeadlineExceeded("too slow by far"), nullptr, stats);
  auto bad = ParseReplyLine(bad_line);
  ASSERT_TRUE(bad.ok()) << bad_line;
  EXPECT_EQ(bad.value().status, "DEADLINE_EXCEEDED");
  EXPECT_EQ(bad.value().message, "too slow by far");

  const std::string err_line =
      FormatReplyLine("q3", Status::ParseError("boom"), nullptr, stats);
  auto err = ParseReplyLine(err_line);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().status, "ERROR:ParseError");
}

TEST(ProtocolTest, StatsLineRoundTrips) {
  ServiceStats stats;
  stats.queries_admitted = 10;
  stats.queries_ok = 7;
  stats.queries_cancelled = 1;
  stats.queries_expired = 1;
  stats.queries_failed = 1;
  stats.generations = 3;
  stats.late_attached = 2;
  stats.extent_passes = 5;
  stats.property_reads = 40;
  stats.plan_cache_hits = 6;
  stats.plan_cache_misses = 4;
  const std::string line = FormatStatsLine(stats);
  auto parsed = ParseStatsLine(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed.value().queries_admitted, 10u);
  EXPECT_EQ(parsed.value().queries_ok, 7u);
  EXPECT_EQ(parsed.value().generations, 3u);
  EXPECT_EQ(parsed.value().late_attached, 2u);
  EXPECT_EQ(parsed.value().property_reads, 40u);
  EXPECT_EQ(parsed.value().plan_cache_hits, 6u);
  EXPECT_EQ(parsed.value().plan_cache_misses, 4u);
  // A line missing a field (the pre-plan-cache shape) is refused.
  EXPECT_FALSE(
      ParseStatsLine(line.substr(0, line.find(" plan_cache_hits="))).ok());
}

TEST(ProtocolTest, DigestIsOrderInsensitiveViaCanonicalSets) {
  // Sets are canonical, so two routes to the same set digest equally.
  Value a = Value::Set({Value::Int(3), Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(3), Value::Int(1)});
  EXPECT_EQ(ResultDigest(a), ResultDigest(b));
  Value c = Value::Set({Value::Int(1), Value::Int(2)});
  EXPECT_NE(ResultDigest(a), ResultDigest(c));
  EXPECT_EQ(DigestHex(ResultDigest(a)).size(), 16u);
}

// ---------------------------------------------------- socket client

/// A minimal blocking line client for the tests.
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  /// Makes reads give up after `seconds` without data.
  void SetReadTimeout(int seconds) {
    timeval tv{};
    tv.tv_sec = seconds;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// True when the peer has closed the connection (EOF or reset);
  /// false when data arrives or a read timeout expires first.
  bool PeerClosed() {
    if (!buf_.empty()) return false;
    char c;
    const ssize_t n = recv(fd_, &c, 1, 0);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

  void Send(const std::string& line) { ASSERT_TRUE(SendBytes(line + "\n")); }

  /// Sends raw bytes; false once the peer has closed the connection.
  bool SendBytes(const std::string& bytes) const {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until one full line arrives.
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

// ----------------------------------------------------- service tests

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 12;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    ASSERT_TRUE(db_.Populate(params).ok());
    session_ = std::make_unique<engine::Database>(
        &db_.catalog(), &db_.store(), &db_.methods());
  }

  Value Oracle(const std::string& vql) {
    vql::Interpreter::Options row_mode;
    row_mode.row_mode = true;
    auto result = session_->RunNaive(vql, row_mode);
    EXPECT_TRUE(result.ok()) << vql;
    return result.ok() ? result.value() : Value();
  }

  /// One round trip: sends `vql` as request `id`, returns the reply.
  static Reply Ask(LineClient& client, const std::string& id,
                   const std::string& vql) {
    client.Send("Q " + id + " 0 " + vql);
    auto reply = ParseReplyLine(client.ReadLine());
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? reply.value() : Reply{};
  }

  /// A plan-cache entry over a real (if trivial) logical plan.
  CachedPlan PlanOf(const std::string& ref) {
    algebra::AlgebraContext ctx(&db_.catalog());
    CachedPlan plan;
    plan.plan = ctx.Get(ref, "Paragraph").value();
    plan.result_ref = ref;
    plan.scan_keys = PlanScanSourceKeys(plan.plan, &db_.catalog());
    return plan;
  }

  workload::DocumentDb db_;
  std::unique_ptr<engine::Database> session_;
};

TEST_F(ServiceTest, AnswersQueriesCorrectlyOverTheWire) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> queries = {
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS d.title FROM d IN Document",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    client.Send("Q q" + std::to_string(i) + " 0 " + queries[i]);
  }
  std::vector<bool> seen(queries.size(), false);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto reply = ParseReplyLine(client.ReadLine());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply.value().ok()) << reply.value().message;
    const size_t idx = reply.value().id[1] - '0';
    ASSERT_LT(idx, queries.size());
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
    const Value expect = Oracle(queries[idx]);
    EXPECT_EQ(reply.value().hash, DigestHex(ResultDigest(expect)))
        << queries[idx];
    EXPECT_EQ(reply.value().rows, expect.AsSet().size());
    EXPECT_GT(reply.value().stats.generation_id, 0u);
  }
  service.Stop();
}

TEST_F(ServiceTest, TinyDeadlineExpiresDeterministically) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());

  // 1e-6 ms expires before admission can possibly look at it.
  client.Send("Q dead 0.000001 ACCESS p FROM p IN Paragraph");
  auto reply = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().status, "DEADLINE_EXCEEDED");
  EXPECT_EQ(reply.value().stats.generation_id, 0u);

  // The service is not wedged: the next query drains normally.
  client.Send("Q live 0 ACCESS d.title FROM d IN Document");
  auto live = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value().ok()) << live.value().message;
  EXPECT_EQ(live.value().hash,
            DigestHex(ResultDigest(
                Oracle("ACCESS d.title FROM d IN Document"))));
  service.Stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_expired, 1u);
  EXPECT_EQ(stats.queries_ok, 1u);
}

TEST_F(ServiceTest, CancelCommandAndBadLinesDoNotWedgeTheService) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());

  // A malformed line answers E and leaves the connection usable.
  client.Send("BOGUS");
  std::string e_line = client.ReadLine();
  ASSERT_FALSE(e_line.empty());
  EXPECT_EQ(e_line[0], 'E');

  // Cancelling an unknown id is a no-op, not an error.
  client.Send("C ghost");

  // A parse failure in VQL comes back as ERROR:..., not a dead socket.
  client.Send("Q broken 0 THIS IS NOT VQL");
  auto broken = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(broken.ok());
  EXPECT_EQ(broken.value().status.find("ERROR:"), 0u) << broken.value().status;

  // And real work still flows afterwards.
  client.Send("Q ok 0 ACCESS p.number FROM p IN Paragraph");
  auto ok = ParseReplyLine(client.ReadLine());
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok.value().ok());

  // S reports coherent counters. (The generation counter itself is
  // bumped by the executor after the drain's replies are already out,
  // so it is asserted on the post-Stop snapshot below instead.)
  client.Send("S");
  auto stats = ParseStatsLine(client.ReadLine());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().queries_ok, 1u);
  EXPECT_EQ(stats.value().queries_failed, 0u);
  service.Stop();
  EXPECT_GE(service.stats().generations, 1u);
}

TEST_F(ServiceTest, ServesMultipleConnections) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  const std::string query = "ACCESS p.number FROM p IN Paragraph";
  const std::string expect = DigestHex(ResultDigest(Oracle(query)));

  std::vector<std::unique_ptr<LineClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<LineClient>(service.port()));
    ASSERT_TRUE(clients.back()->connected());
    clients.back()->Send("Q c" + std::to_string(i) + " 0 " + query);
  }
  for (auto& client : clients) {
    auto reply = ParseReplyLine(client->ReadLine());
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().ok()) << reply.value().message;
    EXPECT_EQ(reply.value().hash, expect);
  }
  service.Stop();
  EXPECT_EQ(service.stats().queries_ok, 4u);
}

TEST_F(ServiceTest, OverlongLineGetsOneErrorAndItsConnectionCloses) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient hostile(service.port());
  ASSERT_TRUE(hostile.connected());
  hostile.SetReadTimeout(10);  // a missing reply fails instead of hanging
  // 2 MiB without a newline, from a second thread: the service closes
  // the connection before it has read all of it, so the send may fail.
  std::thread sender(
      [&hostile] { (void)hostile.SendBytes(std::string(2u << 20, 'x')); });
  const std::string error = hostile.ReadLine();
  const bool closed = hostile.PeerClosed();
  sender.join();
  ASSERT_FALSE(error.empty()) << "no reply to the overlong line";
  EXPECT_EQ(error[0], 'E') << error;
  EXPECT_TRUE(closed) << "connection still open after the E reply";

  // Another connection is still served correctly.
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());
  const std::string query = "ACCESS d.title FROM d IN Document";
  const Reply reply = Ask(client, "after", query);
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(reply.hash, DigestHex(ResultDigest(Oracle(query))));
  service.Stop();
}

TEST_F(ServiceTest, ClosedLoopClientsShareGenerationsScansAndPlans) {
  // K closed-loop socket clients over a repeating mix, once with
  // shared-scan generations and once with private cursors. Every reply
  // must equal the row-mode oracle's digest; the shared run must group
  // arrivals (fewer generations than queries), pay fewer extent passes
  // than the private run, and plan repeated texts from the plan cache.
  const std::vector<std::string> mix = {
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
      "ACCESS d.title FROM d IN Document",
  };
  std::vector<std::string> oracle;
  for (const std::string& query : mix) {
    oracle.push_back(DigestHex(ResultDigest(Oracle(query))));
  }
  constexpr size_t kClients = 8;
  constexpr size_t kRequests = 25;

  struct ModeRun {
    ServiceStats stats;
    uint64_t extent_passes = 0;
    size_t wrong = 0;
  };
  auto run_mode = [&](bool shared_scan) {
    ServiceOptions options;
    options.shared_scan = shared_scan;
    QueryService service(session_.get(), options);
    EXPECT_TRUE(service.Start().ok());
    ModeRun run;
    const std::atomic<uint64_t>& extent_scans =
        db_.store().stats().extent_scans;
    const uint64_t before = extent_scans.load(std::memory_order_relaxed);
    std::vector<size_t> wrong(kClients, 0);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        LineClient client(service.port());
        for (size_t r = 0; r < kRequests; ++r) {
          const size_t q = (c + r) % mix.size();
          const std::string id =
              "c" + std::to_string(c) + "r" + std::to_string(r);
          if (!client.SendBytes("Q " + id + " 0 " + mix[q] + "\n")) {
            ++wrong[c];
            continue;
          }
          auto reply = ParseReplyLine(client.ReadLine());
          if (!reply.ok() || !reply.value().ok() ||
              reply.value().id != id || reply.value().hash != oracle[q]) {
            ++wrong[c];
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    // The generation count is bumped after a drain's replies are out.
    service.Stop();
    run.stats = service.stats();
    run.extent_passes = extent_scans.load(std::memory_order_relaxed) - before;
    for (size_t w : wrong) run.wrong += w;
    return run;
  };
  const ModeRun shared = run_mode(/*shared_scan=*/true);
  const ModeRun priv = run_mode(/*shared_scan=*/false);

  EXPECT_EQ(shared.wrong, 0u);
  EXPECT_EQ(priv.wrong, 0u);
  EXPECT_EQ(shared.stats.queries_ok, kClients * kRequests);
  EXPECT_EQ(priv.stats.queries_ok, kClients * kRequests);
  EXPECT_LT(shared.stats.generations, shared.stats.queries_admitted);
  EXPECT_LT(shared.extent_passes, priv.extent_passes);
  EXPECT_GT(shared.stats.plan_cache_hits, 0u);
}

// ------------------------------------------------------- plan cache

TEST_F(ServiceTest, RepeatedTextIsPlannedOnce) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());
  const std::string query =
      "ACCESS p.number FROM p IN Paragraph WHERE p.number >= 1";
  const Reply first = Ask(client, "a", query);
  const Reply second = Ask(client, "b", query);
  ASSERT_TRUE(first.ok()) << first.message;
  ASSERT_TRUE(second.ok()) << second.message;
  const Value expect = Oracle(query);
  EXPECT_EQ(first.hash, DigestHex(ResultDigest(expect)));
  EXPECT_EQ(second.hash, first.hash);
  EXPECT_EQ(second.rows, first.rows);
  EXPECT_EQ(second.rows, expect.AsSet().size());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  // The S line carries the same counters.
  client.Send("S");
  auto line = ParseStatsLine(client.ReadLine());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value().plan_cache_hits, 1u);
  EXPECT_EQ(line.value().plan_cache_misses, 1u);
  service.Stop();
}

TEST_F(ServiceTest, CommitBetweenRepeatsForcesAReplan) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());
  const std::string query = "ACCESS p.number FROM p IN Paragraph";
  const Reply before = Ask(client, "a", query);
  ASSERT_TRUE(before.ok()) << before.message;

  engine::QueryRequest write;
  write.vql = "UPDATE Paragraph SET number = 99 WHERE self.number == 1";
  std::vector<engine::QueryOutcome> wrote = session_->Submit({write});
  ASSERT_TRUE(wrote[0].status.ok()) << wrote[0].status.ToString();

  const Reply after = Ask(client, "b", query);
  ASSERT_TRUE(after.ok()) << after.message;
  // No writer runs after the commit, so the latest epoch is the one the
  // reply read.
  const Value expect = Oracle(query);
  EXPECT_EQ(after.hash, DigestHex(ResultDigest(expect)));
  EXPECT_NE(after.hash, before.hash);
  EXPECT_EQ(service.stats().plan_cache_misses, 2u);
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
  // Without a further commit the replanned entry serves the next repeat.
  const Reply again = Ask(client, "c", query);
  ASSERT_TRUE(again.ok()) << again.message;
  EXPECT_EQ(again.hash, after.hash);
  EXPECT_EQ(service.stats().plan_cache_hits, 1u);
  service.Stop();
}

TEST_F(ServiceTest, RegeneratedOptimizerForcesAReplan) {
  // The paper's knowledge without E5: contains_string stays a per-row
  // method filter and never searches the inverted index.
  auto made = workload::MakePaperSession(&db_, {"E1", "E2", "E3", "E4"});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  engine::Database& paper = *made.value();
  ServiceOptions options;
  options.optimize = true;
  QueryService service(&paper, options);
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());
  const std::string query =
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')";
  const std::string expect = DigestHex(ResultDigest(Oracle(query)));

  const uint64_t searches_before = db_.paragraph_index().search_count();
  const Reply without = Ask(client, "a", query);
  ASSERT_TRUE(without.ok()) << without.message;
  EXPECT_EQ(without.hash, expect);
  EXPECT_EQ(db_.paragraph_index().search_count(), searches_before);

  // Adding E5 and regenerating changes the plan for the same text: the
  // reply must come from the new plan (an index search), not the cache.
  ASSERT_TRUE(
      workload::RegisterPaperKnowledge(&paper, db_.params(), {"E5"}).ok());
  ASSERT_TRUE(paper.GenerateOptimizer().ok());
  const Reply with = Ask(client, "b", query);
  ASSERT_TRUE(with.ok()) << with.message;
  EXPECT_EQ(with.hash, expect);
  EXPECT_GT(db_.paragraph_index().search_count(), searches_before);
  EXPECT_EQ(service.stats().plan_cache_misses, 2u);
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
  service.Stop();
}

TEST_F(ServiceTest, PlanErrorsAreNeverCached) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());
  for (const std::string bad :
       {"THIS IS NOT VQL", "ACCESS x FROM x IN NoSuchClass"}) {
    for (const char* id : {"e1", "e2"}) {
      const Reply reply = Ask(client, id, bad);
      EXPECT_EQ(reply.status.find("ERROR:"), 0u) << bad << ": "
                                                  << reply.status;
    }
  }
  // Every attempt planned afresh: an error left no entry to hit.
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
  EXPECT_EQ(service.stats().plan_cache_misses, 4u);
  service.Stop();
}

TEST_F(ServiceTest, ConnectionsSharingATextShareOnePlan) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  const std::string query = "ACCESS s FROM s IN Section WHERE s.number == 1";
  const std::string expect = DigestHex(ResultDigest(Oracle(query)));
  LineClient a(service.port());
  LineClient b(service.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  // Both arrive back to back, so they usually land in one generation
  // (together or by late attach); either way the second reuses the
  // first's plan.
  a.Send("Q a 0 " + query);
  b.Send("Q b 0 " + query);
  for (LineClient* client : {&a, &b}) {
    auto reply = ParseReplyLine(client->ReadLine());
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().ok()) << reply.value().message;
    EXPECT_EQ(reply.value().hash, expect);
  }
  EXPECT_EQ(service.stats().plan_cache_misses, 1u);
  EXPECT_EQ(service.stats().plan_cache_hits, 1u);
  service.Stop();
  EXPECT_EQ(service.stats().queries_ok, 2u);
}

TEST_F(ServiceTest, DistinctTextsBeyondCapacityStayBounded) {
  QueryService service(session_.get());
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());
  const size_t n = PlanCache::kCapacity + 8;
  auto text = [](size_t i) {
    return "ACCESS p.number FROM p IN Paragraph WHERE p.number <= " +
           std::to_string(i);
  };
  for (size_t i = 0; i < n; ++i) {
    const Reply reply = Ask(client, "q" + std::to_string(i), text(i));
    ASSERT_TRUE(reply.ok()) << reply.message;
    EXPECT_EQ(reply.hash, DigestHex(ResultDigest(Oracle(text(i)))));
  }
  EXPECT_EQ(service.stats().plan_cache_misses, n);
  // The oldest text was evicted to stay within the cap; the newest was
  // not.
  ASSERT_TRUE(Ask(client, "old", text(0)).ok());
  EXPECT_EQ(service.stats().plan_cache_misses, n + 1);
  ASSERT_TRUE(Ask(client, "new", text(n - 1)).ok());
  EXPECT_EQ(service.stats().plan_cache_hits, 1u);
  service.Stop();
}

TEST_F(ServiceTest, SubmitsOfOtherSizesKeepTheServicePoolAlive) {
  // The service's scheduler holds its lane pool for its whole life;
  // Submits asking the session for other sizes must not replace it.
  ServiceOptions options;
  options.lanes = 3;
  QueryService service(session_.get(), options);
  ASSERT_TRUE(service.Start().ok());
  LineClient client(service.port());
  ASSERT_TRUE(client.connected());
  const std::string query = "ACCESS p.number FROM p IN Paragraph";
  const std::string expect = DigestHex(ResultDigest(Oracle(query)));
  const Reply first = Ask(client, "a", query);
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_EQ(first.hash, expect);

  // A lone query on the intra-query path with 4 threads.
  engine::RunOptions four;
  four.threads = 4;
  auto single = session_->Run(query, {/*optimize=*/false}, four);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  // A two-query batch on 2 lanes.
  engine::QueryRequest request;
  request.vql = query;
  request.plan.optimize = false;
  engine::SubmitOptions two;
  two.lanes = 2;
  for (const engine::QueryOutcome& outcome :
       session_->Submit({request, request}, two)) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }

  const Reply after = Ask(client, "b", query);
  ASSERT_TRUE(after.ok()) << after.message;
  EXPECT_EQ(after.hash, expect);
  service.Stop();
  EXPECT_EQ(service.stats().queries_ok, 2u);
}


TEST_F(ServiceTest, PlanCacheHitSharesTheStoredPlan) {
  PlanCache cache;
  const PlanStamp stamp{4, 1};
  EXPECT_EQ(cache.Find("q", stamp), nullptr);
  const CachedPlan* stored = cache.Insert("q", stamp, PlanOf("p"));
  const CachedPlan* first = cache.Find("q", stamp);
  const CachedPlan* second = cache.Find("q", stamp);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first, stored);
  // Every hit hands out the one LogicalRef planning produced.
  EXPECT_EQ(first->plan.get(), second->plan.get());
  EXPECT_EQ(first->result_ref, "p");
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ServiceTest, PlanCacheEmptiesOnAnyStampChange) {
  PlanCache cache;
  cache.Insert("a", {4, 1}, PlanOf("p"));
  cache.Insert("b", {4, 1}, PlanOf("p"));
  // A commit (epoch) or a regenerated optimizer (generation) each
  // invalidate every entry.
  EXPECT_EQ(cache.Find("a", {5, 1}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert("a", {5, 1}, PlanOf("p"));
  EXPECT_EQ(cache.Find("a", {5, 2}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // Going back to an old stamp does not resurrect anything.
  EXPECT_EQ(cache.Find("b", {4, 1}), nullptr);
}

TEST_F(ServiceTest, PlanCacheStaysWithinCapacityEvictingLru) {
  PlanCache cache;
  const PlanStamp stamp{1, 1};
  const size_t n = PlanCache::kCapacity + 10;
  for (size_t i = 0; i < n; ++i) {
    cache.Insert("q" + std::to_string(i), stamp, PlanOf("p"));
    if (i == 0) continue;
    // Keep q0 hot: it must survive every eviction.
    ASSERT_NE(cache.Find("q0", stamp), nullptr) << i;
    EXPECT_LE(cache.size(), PlanCache::kCapacity);
  }
  EXPECT_EQ(cache.size(), PlanCache::kCapacity);
  EXPECT_EQ(cache.Find("q1", stamp), nullptr);  // least recently used
  EXPECT_NE(cache.Find("q" + std::to_string(n - 1), stamp), nullptr);
  // Re-inserting a present text replaces it without growing.
  cache.Insert("q0", stamp, PlanOf("r"));
  EXPECT_EQ(cache.size(), PlanCache::kCapacity);
  EXPECT_EQ(cache.Find("q0", stamp)->result_ref, "r");
}

// ------------------------------------------------ scheduler (direct)

TEST_F(ServiceTest, SchedulerRejectsDeadArrivalsBeforeAttach) {
  GenerationScheduler scheduler(session_.get());
  scheduler.Start();

  auto prepared = session_->Prepare("ACCESS p FROM p IN Paragraph",
                                    {/*optimize=*/false});
  ASSERT_TRUE(prepared.ok());

  ServiceQuery query;
  query.request_id = "dead";
  query.plan = prepared.value().planned.chosen_plan;
  query.result_ref = prepared.value().result_ref;
  query.cancel = std::make_shared<exec::CancellationToken>();
  query.cancel->Cancel();
  query.admitted_at = std::chrono::steady_clock::now();
  query.scan_keys = PlanScanSourceKeys(query.plan, &db_.catalog());
  EXPECT_FALSE(query.scan_keys.empty());

  Status got;
  query.done = [&](QueryReply reply) { got = reply.status; };
  scheduler.Admit(std::move(query));
  // Rejection is synchronous: done fired inside Admit.
  EXPECT_EQ(got.code(), StatusCode::kCancelled);
  scheduler.Stop();
  EXPECT_EQ(scheduler.stats().queries_cancelled, 1u);
  EXPECT_EQ(scheduler.stats().queries_admitted, 0u);
}

}  // namespace
}  // namespace service
}  // namespace vodak
