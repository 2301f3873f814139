// Load harness for the query service (docs/ARCHITECTURE.md §"Query
// service & admission control"). K closed-loop clients connect to an
// in-process QueryService over real loopback sockets and each fires
// --requests queries back-to-back, drawn round-robin from a small mix
// over the same extents. The run happens twice — shared-scan
// generations on, then off (private cursors) — and the acceptance
// claims are measured, not inferred:
//   * every reply's rows+hash must equal the row-mode interpreter
//     oracle's digest for that query (computed up front),
//   * the shared run must form strictly fewer generations than it
//     admitted queries (arrivals actually grouped), and
//   * the shared run must pay strictly fewer extent passes than the
//     private one, and
//   * repeated query texts must hit the service's plan cache.
// scripts/ci.sh --service gates on the JSON fields.
//
// Flags: --docs=N      corpus size in documents (default 400)
//        --clients=N   closed-loop client connections (default 8)
//        --requests=N  queries per client (default 25)
//        --lanes=N     generation drain lanes (default 0 = hw)
//        --json=PATH   machine-readable record (BENCH_service.json)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "engine/database.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "vql/interpreter.h"
#include "workload/document_db.h"

namespace {

using namespace vodak;

/// The query mix: all touch the Paragraph/Section/Document extents, so
/// a generation's members overlap on scan sources and sharing pays.
const char* kMix[] = {
    "ACCESS p.number FROM p IN Paragraph",
    "ACCESS p FROM p IN Paragraph WHERE p.number >= 1",
    "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
    "ACCESS s FROM s IN Section WHERE s.number == 1",
    "ACCESS d.title FROM d IN Document",
};
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

/// One client's view of a blocking line socket.
struct Client {
  int fd = -1;
  std::string buf;

  bool Connect(uint16_t port) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendLine(const std::string& line) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          send(fd, framed.data() + sent, framed.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        *line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

  ~Client() {
    if (fd >= 0) close(fd);
  }
};

struct ModeResult {
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  uint64_t errors = 0;
  uint64_t extent_scans = 0;
  uint64_t property_reads = 0;
  service::ServiceStats stats;
};

double Percentile(std::vector<double>* latencies, double p) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = std::min(
      latencies->size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies->size())));
  return (*latencies)[idx];
}

/// Runs one full closed-loop experiment against a fresh service.
ModeResult RunMode(engine::Database* session, workload::DocumentDb* db,
                   bool shared_scan, size_t clients, size_t requests,
                   size_t lanes,
                   const std::vector<std::string>& oracle_hash) {
  ModeResult mode;
  service::ServiceOptions options;
  options.shared_scan = shared_scan;
  options.lanes = lanes;
  service::QueryService service(session, options);
  VODAK_CHECK(service.Start().ok()) << "service failed to start";

  db->ResetCounters();
  const StoreStats& store_stats = db->store().stats();
  const uint64_t scans_before =
      store_stats.extent_scans.load(std::memory_order_relaxed);
  const uint64_t reads_before =
      store_stats.property_reads.load(std::memory_order_relaxed);

  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> errors(clients, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect(service.port())) {
        errors[c] = requests;
        return;
      }
      for (size_t r = 0; r < requests; ++r) {
        const size_t q = (c + r) % kMixSize;
        const std::string id =
            "c" + std::to_string(c) + "r" + std::to_string(r);
        const auto start = std::chrono::steady_clock::now();
        std::string line;
        if (!client.SendLine("Q " + id + " 0 " + kMix[q]) ||
            !client.ReadLine(&line)) {
          ++errors[c];
          continue;
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count());
        auto reply = service::ParseReplyLine(line);
        // Correctness, per reply: id, row count and digest must match
        // the row-mode oracle.
        if (!reply.ok() || !reply.value().ok() || reply.value().id != id ||
            reply.value().hash != oracle_hash[q]) {
          ++errors[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  mode.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
  mode.stats = service.stats();
  service.Stop();

  mode.extent_scans =
      store_stats.extent_scans.load(std::memory_order_relaxed) -
      scans_before;
  mode.property_reads =
      store_stats.property_reads.load(std::memory_order_relaxed) -
      reads_before;
  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  for (uint64_t e : errors) mode.errors += e;
  mode.p50_ms = Percentile(&all, 0.50);
  mode.p99_ms = Percentile(&all, 0.99);
  mode.qps = mode.wall_ms > 0
                 ? static_cast<double>(all.size()) / (mode.wall_ms / 1000.0)
                 : 0.0;
  return mode;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t docs = 400;
  size_t clients = 8;
  size_t requests = 25;
  size_t lanes = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--docs=", 7) == 0) {
      docs = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = static_cast<size_t>(std::atoi(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--lanes=", 8) == 0) {
      lanes = static_cast<size_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--docs=N] [--clients=N] [--requests=N] "
                   "[--lanes=N] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (clients == 0) clients = 1;
  if (requests == 0) requests = 1;

  workload::DocumentDb db;
  VODAK_CHECK(db.Init().ok());
  workload::CorpusParams params;
  params.num_documents = docs;
  params.sections_per_document = 3;
  params.paragraphs_per_section = 4;
  params.words_per_paragraph = 8;
  params.vocabulary_size = 200;
  VODAK_CHECK(db.Populate(params).ok());
  engine::Database session(&db.catalog(), &db.store(), &db.methods());

  // Oracle digests through the row-mode interpreter: a fully
  // independent evaluation path from the batch executor the service
  // drains with.
  std::vector<std::string> oracle_hash(kMixSize);
  vql::Interpreter::Options row_mode;
  row_mode.row_mode = true;
  for (size_t q = 0; q < kMixSize; ++q) {
    auto oracle = session.RunNaive(kMix[q], row_mode);
    VODAK_CHECK(oracle.ok()) << kMix[q];
    oracle_hash[q] =
        service::DigestHex(service::ResultDigest(oracle.value()));
  }

  std::printf(
      "service load: %u docs, %zu clients x %zu requests, lanes=%zu\n",
      docs, clients, requests, lanes);
  ModeResult shared =
      RunMode(&session, &db, /*shared_scan=*/true, clients, requests,
              lanes, oracle_hash);
  ModeResult priv =
      RunMode(&session, &db, /*shared_scan=*/false, clients, requests,
              lanes, oracle_hash);

  auto report = [&](const char* name, const ModeResult& m) {
    std::printf(
        "  %-8s qps=%8.1f  p50=%7.3fms  p99=%7.3fms  errors=%llu\n"
        "           generations=%llu queries=%llu late=%llu "
        "extent_passes=%llu property_reads=%llu\n"
        "           plan_cache_hits=%llu plan_cache_misses=%llu\n",
        name, m.qps, m.p50_ms, m.p99_ms,
        static_cast<unsigned long long>(m.errors),
        static_cast<unsigned long long>(m.stats.generations),
        static_cast<unsigned long long>(m.stats.queries_admitted),
        static_cast<unsigned long long>(m.stats.late_attached),
        static_cast<unsigned long long>(m.extent_scans),
        static_cast<unsigned long long>(m.property_reads),
        static_cast<unsigned long long>(m.stats.plan_cache_hits),
        static_cast<unsigned long long>(m.stats.plan_cache_misses));
  };
  report("shared", shared);
  report("private", priv);

  // Hard checks the harness itself enforces, shared mode or not: every
  // reply correct, nothing lost.
  const uint64_t expected =
      static_cast<uint64_t>(clients) * static_cast<uint64_t>(requests);
  if (shared.errors != 0 || priv.errors != 0) {
    std::fprintf(stderr, "FAIL: %llu replies wrong or missing\n",
                 static_cast<unsigned long long>(shared.errors +
                                                 priv.errors));
    return 1;
  }
  if (shared.stats.queries_ok != expected ||
      priv.stats.queries_ok != expected) {
    std::fprintf(stderr, "FAIL: expected %llu ok queries per mode\n",
                 static_cast<unsigned long long>(expected));
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"service\",\n");
    std::fprintf(f,
                 "  \"workload\": \"K closed-loop socket clients over a "
                 "5-query mix, shared-scan generations vs private\",\n");
    std::fprintf(f, "  \"docs\": %u,\n", docs);
    std::fprintf(f, "  \"clients\": %zu,\n", clients);
    std::fprintf(f, "  \"requests_per_client\": %zu,\n", requests);
    std::fprintf(f, "  \"lanes\": %zu,\n", lanes);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"qps_shared\": %.1f,\n", shared.qps);
    std::fprintf(f, "  \"qps_private\": %.1f,\n", priv.qps);
    std::fprintf(f, "  \"p50_ms_shared\": %.3f,\n", shared.p50_ms);
    std::fprintf(f, "  \"p99_ms_shared\": %.3f,\n", shared.p99_ms);
    std::fprintf(f, "  \"p50_ms_private\": %.3f,\n", priv.p50_ms);
    std::fprintf(f, "  \"p99_ms_private\": %.3f,\n", priv.p99_ms);
    std::fprintf(f, "  \"queries_shared\": %llu,\n",
                 static_cast<unsigned long long>(
                     shared.stats.queries_admitted));
    std::fprintf(f, "  \"generations_shared\": %llu,\n",
                 static_cast<unsigned long long>(shared.stats.generations));
    std::fprintf(f, "  \"late_attached_shared\": %llu,\n",
                 static_cast<unsigned long long>(
                     shared.stats.late_attached));
    std::fprintf(f, "  \"extent_scans_shared\": %llu,\n",
                 static_cast<unsigned long long>(shared.extent_scans));
    std::fprintf(f, "  \"extent_scans_private\": %llu,\n",
                 static_cast<unsigned long long>(priv.extent_scans));
    std::fprintf(f, "  \"property_reads_shared\": %llu,\n",
                 static_cast<unsigned long long>(shared.property_reads));
    std::fprintf(f, "  \"property_reads_private\": %llu,\n",
                 static_cast<unsigned long long>(priv.property_reads));
    std::fprintf(f, "  \"plan_cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(
                     shared.stats.plan_cache_hits));
    std::fprintf(f, "  \"plan_cache_misses\": %llu\n",
                 static_cast<unsigned long long>(
                     shared.stats.plan_cache_misses));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}
