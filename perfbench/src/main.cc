// The benchmark of record (perfbench/README.md, BENCHMARK.json). One
// process runs one workload against the engine's public entry points —
// the socket QueryService and Database::Submit — and prints, as the
// last line of stdout, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate single-client
// traced run (--trace 1). Human-readable detail goes to stderr.
//
//   vodak_perfbench --workload example4|scan|read_write --seed N
//                   --seconds S --trace 0|1 --workdir DIR [--docs N]
//                   [--part N]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/copy_stats.h"
#include "common/vm_stats.h"
#include "engine/database.h"
#include "ops.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/segment_store.h"
#include "trace.h"
#include "vql/interpreter.h"
#include "workload/document_knowledge.h"

namespace perfbench {
namespace {

using namespace vodak;
using Clock = std::chrono::steady_clock;

/// Fixed knobs of the system under test (recorded in BENCHMARK.json).
/// Service drain lanes, fixed per workload: one per closed-loop client
/// on example4 and scan. read_write drives the service only in its
/// traced run, and its untimed oracle re-runs size the session pool to
/// the same 3 lanes.
size_t LanesFor(const std::string& workload) {
  if (workload == "read_write") return 3;
  return ClientsFor(workload);
}
constexpr uint32_t kDocuments = 8000;
constexpr size_t kOracleThreads = 4;
/// Closed-loop warm-up before the timed phase (example4, scan).
constexpr double kWarmupSeconds = 1.0;
/// Untimed writes at the start of the example4/scan write probe.
constexpr std::ptrdiff_t kWriteWarmup = 200;
/// read_write's think time between ops (see ThinkTime).
constexpr std::chrono::milliseconds kThinkTime{2};
const char* kExample4 =
    "ACCESS p FROM p IN Paragraph WHERE "
    "p->contains_string('implementation') AND "
    "(p->document()).title == 'Query Optimization'";

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir;
  uint32_t docs = kDocuments;
  int part = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--docs") {
      args->docs = static_cast<uint32_t>(std::atoi(value));
    } else if (flag == "--part") {
      args->part = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && KnownWorkload(args->workload) &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1) &&
         !args->workdir.empty() && args->docs >= 2 && args->part >= 0;
}

// ------------------------------------------------------------ one CPU

/// Confines every thread of the process to one CPU while it lives;
/// threads started meanwhile inherit the confinement. The service hands
/// each query from thread to thread (client, event thread, drain lane,
/// client). Spread over several virtual CPUs, each hand-off wakes an
/// idle one, and a host that runs other guests charges the wake-up as
/// steal time: measured on a 4-vCPU guest, steal took 0 to 40% of the
/// timed phase from one minute to the next, and the latencies followed.
/// On one CPU the hand-offs stay inside the guest's scheduler and steal
/// stays near zero. Timed phases run pinned; untimed work that runs on
/// several threads (set-up, oracle digests and checks) does not.
class CpuPin {
 public:
  CpuPin() {
    CPU_ZERO(&saved_);
    CPU_ZERO(&one_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one_);
        break;
      }
    }
    Apply(one_);
  }
  ~CpuPin() { Apply(saved_); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// Gives every CPU back for the guard's lifetime.
  class Lifted {
   public:
    explicit Lifted(CpuPin& pin) : pin_(pin) { Apply(pin_.saved_); }
    ~Lifted() { Apply(pin_.one_); }
    Lifted(const Lifted&) = delete;
    Lifted& operator=(const Lifted&) = delete;

   private:
    CpuPin& pin_;
  };

 private:
  static void Apply(const cpu_set_t& set) {
    if (CPU_COUNT(&set) == 0) return;
    std::error_code error;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", error)) {
      // A thread that ended since the listing is simply skipped.
      sched_setaffinity(std::atoi(task.path().filename().c_str()), sizeof(set), &set);
    }
  }

  cpu_set_t saved_;
  cpu_set_t one_;
};

// ---------------------------------------------------------------- set-up

/// One loaded system: corpus, paper session with its generated
/// optimizer, a fresh page file with every class ingested, and the
/// running service. Members are declared so that destruction runs
/// service → session → segments → corpus.
struct System {
  std::unique_ptr<workload::DocumentDb> db;
  std::unique_ptr<storage::SegmentStore> segments;
  std::unique_ptr<engine::Database> session;
  std::unique_ptr<service::QueryService> service;
  std::string page_file;
  size_t lanes = 0;
  double populate_s = 0.0;
  double generate_ms = 0.0;
  double ingest_s = 0.0;
  double total_s = 0.0;

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System() {
    if (service != nullptr) service->Stop();
    service.reset();
    if (db != nullptr) db->store().StopBackgroundReclaim();
    session.reset();
    segments.reset();
    if (!page_file.empty()) std::remove(page_file.c_str());
  }
};

workload::CorpusParams CorpusFor(uint32_t docs, uint64_t seed) {
  workload::CorpusParams params;
  params.num_documents = docs;
  params.seed = SubSeed(seed, "corpus");
  return params;
}

/// Everything a user pays at load or restart; timed as one span.
Result<std::unique_ptr<System>> SetUp(uint32_t docs, uint64_t seed, size_t lanes,
                                      const std::string& page_file) {
  const auto start = Clock::now();
  auto sys = std::make_unique<System>();
  sys->db = std::make_unique<workload::DocumentDb>();
  VODAK_RETURN_IF_ERROR(sys->db->Init());
  VODAK_RETURN_IF_ERROR(sys->db->Populate(CorpusFor(docs, seed)));
  sys->populate_s = MsSince(start) / 1000.0;

  const auto gen_start = Clock::now();
  VODAK_ASSIGN_OR_RETURN(sys->session, workload::MakePaperSession(sys->db.get()));
  sys->generate_ms = MsSince(gen_start);

  // A fresh page file every time: reopening an old one keeps its pages.
  const auto ingest_start = Clock::now();
  std::remove(page_file.c_str());
  sys->page_file = page_file;
  VODAK_ASSIGN_OR_RETURN(sys->segments,
                         storage::SegmentStore::Open(page_file, {}));
  sys->session->AttachSegmentStore(sys->segments.get());
  VODAK_RETURN_IF_ERROR(sys->session->RefreshSegments());
  sys->ingest_s = MsSince(ingest_start) / 1000.0;

  service::ServiceOptions options;
  sys->lanes = lanes;
  options.lanes = lanes;
  options.optimize = true;
  options.shared_scan = true;
  sys->service = std::make_unique<service::QueryService>(sys->session.get(),
                                                         options);
  VODAK_RETURN_IF_ERROR(sys->service->Start());
  sys->total_s = MsSince(start) / 1000.0;
  return sys;
}

// ------------------------------------------------------------- the oracle

struct Expected {
  uint64_t rows = 0;
  std::string hash;
};

Expected ExpectedOf(const Value& value) {
  return {value.AsSet().size(), service::DigestHex(service::ResultDigest(value))};
}

vql::Interpreter::Options RowMode(Epoch at, size_t threads) {
  vql::Interpreter::Options options;
  options.row_mode = true;
  options.threads = threads;
  options.snapshot_epoch = at;
  return options;
}

/// Row-mode oracle digest of every distinct query, computed on a few
/// threads (each query evaluates serially on its own thread).
Result<std::vector<Expected>> OracleDigests(
    const engine::Database& session, const std::vector<std::string>& queries) {
  std::vector<Expected> out(queries.size());
  std::vector<Status> status(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kOracleThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < queries.size();) {
        auto r = session.RunNaive(queries[i], RowMode(kEpochLatest, 1));
        if (r.ok()) {
          out[i] = ExpectedOf(r.value());
        } else {
          status[i] = r.status();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!status[i].ok()) return status[i];
  }
  return out;
}

// ------------------------------------------------------- failure ledger

/// Outcome tally. `unexplained` failures make the run incorrect;
/// `stale` ones are wrong answers the optimized plan gives while the
/// unoptimized plan of the same query at the same epoch is right — the
/// stale semantic knowledge of ROADMAP item 1, counted as failed ops
/// and reported, not hidden.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t stale = 0;
  uint64_t unexplained = 0;
  std::vector<std::string> examples;
  /// Query + error pairs already shown to be stale knowledge: the same
  /// error on the same query has the same cause and is not re-checked.
  std::set<std::string> stale_errors;

  void Fail(bool is_stale, const std::string& what) {
    ++failed;
    ++(is_stale ? stale : unexplained);
    if (examples.size() < 8) examples.push_back(what);
  }
  void Merge(const Ledger& other) {
    attempted += other.attempted;
    failed += other.failed;
    stale += other.stale;
    unexplained += other.unexplained;
    for (const std::string& e : other.examples) {
      if (examples.size() < 8) examples.push_back(e);
    }
  }
};

bool Matches(const service::Reply& reply, const Expected& e) {
  return reply.ok() && reply.rows == e.rows && reply.hash == e.hash;
}

/// Checks one Submit read against the row-mode oracle at the epoch the
/// read reported. Called with no write in between, so a re-run now
/// sees the same snapshot. Untimed.
void CheckSubmitRead(engine::Database& session, size_t threads,
                     const std::string& vql, const engine::QueryOutcome& outcome,
                     Ledger* ledger) {
  const std::string error_key =
      outcome.status.ok() ? "" : vql + "\n" + outcome.status.ToString();
  if (ledger->stale_errors.count(error_key) > 0) {
    ledger->Fail(true, "stale (seen): " + outcome.status.ToString());
    return;
  }
  const Epoch at = outcome.status.ok() ? outcome.stats.snapshot_epoch
                                       : kEpochLatest;
  auto oracle = session.RunNaive(vql, RowMode(at, kOracleThreads));
  if (!oracle.ok()) {
    ledger->Fail(false, "oracle failed: " + oracle.status().ToString() +
                            " on " + vql);
    return;
  }
  const Expected want = ExpectedOf(oracle.value());
  if (outcome.status.ok()) {
    const Expected got = ExpectedOf(outcome.result.result);
    if (got.rows == want.rows && got.hash == want.hash) return;
  }
  engine::QueryRequest unopt;
  unopt.vql = vql;
  unopt.plan.optimize = false;
  // The session's pool is shared with the service's generation drains
  // and is rebuilt when a call asks for another size: stay at its size.
  unopt.run.threads = threads;
  auto redo = session.Submit({unopt});
  const bool stale = redo[0].status.ok() &&
                     ExpectedOf(redo[0].result.result).hash == want.hash;
  if (stale && !error_key.empty()) ledger->stale_errors.insert(error_key);
  ledger->Fail(stale, (stale ? "stale: " : "wrong: ") + vql + " -> " +
                          (outcome.status.ok()
                               ? std::to_string(outcome.result.result.AsSet().size()) +
                                     " rows, oracle " + std::to_string(want.rows)
                               : outcome.status.ToString()));
}

// ------------------------------------------------------------- counters

/// Public counters of every layer, read quiescently around a call.
struct Counters {
  enum Id {
    kPropertyReads, kPropertyWrites, kExtentScans, kSnapshotReads,
    kVersionsCreated, kVersionsReclaimed, kEpochsCommitted,
    kPageHits, kPageMisses, kEvictions, kSegmentsScanned, kSegmentsSkipped,
    kMethodCalls, kIrSearches, kPostings, kTitleLookups,
    kVmDispatches, kOperatorHandoffs, kVmCompiled, kVmFallbacks,
    kCompactMoves, kCount
  };
  uint64_t v[kCount] = {};

  static Counters Take(System& sys) {
    const auto r = std::memory_order_relaxed;
    Counters c;
    const StoreStats& st = sys.db->store().stats();
    c.v[kPropertyReads] = st.property_reads.load(r);
    c.v[kPropertyWrites] = st.property_writes.load(r);
    c.v[kExtentScans] = st.extent_scans.load(r);
    c.v[kSnapshotReads] = st.snapshot_reads.load(r);
    c.v[kVersionsCreated] = st.versions_created.load(r);
    c.v[kVersionsReclaimed] = st.versions_reclaimed.load(r);
    c.v[kEpochsCommitted] = st.epochs_committed.load(r);
    const storage::PagerStats& ps = sys.segments->pager()->stats();
    c.v[kPageHits] = ps.cache_hits.load(r);
    c.v[kPageMisses] = ps.cache_misses.load(r);
    c.v[kEvictions] = ps.evictions.load(r);
    c.v[kSegmentsScanned] = sys.segments->stats().segments_scanned.load(r);
    c.v[kSegmentsSkipped] = sys.segments->stats().segments_skipped.load(r);
    c.v[kMethodCalls] = sys.db->methods().total_invocations();
    c.v[kIrSearches] = sys.db->paragraph_index().search_count();
    c.v[kPostings] = sys.db->paragraph_index().postings_scanned();
    c.v[kTitleLookups] = sys.db->title_index().lookup_count();
    c.v[kVmDispatches] = VmStats::vm_dispatches.load(r);
    c.v[kOperatorHandoffs] = VmStats::operator_handoffs.load(r);
    c.v[kVmCompiled] = VmStats::vm_compiled.load(r);
    c.v[kVmFallbacks] = VmStats::vm_fallbacks.load(r);
    c.v[kCompactMoves] = BatchCopyStats::compact_moves.load(r);
    return c;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    for (int i = 0; i < kCount; ++i) v[i] += after.v[i] - before.v[i];
  }
  double Per(Id id, uint64_t n) const {
    return Ratio(static_cast<double>(v[id]), static_cast<double>(n));
  }
};

// ---------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Ledger& ledger,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-38s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  ops attempted %llu, failed %llu (stale %llu, unexplained %llu)\n",
               static_cast<unsigned long long>(ledger.attempted),
               static_cast<unsigned long long>(ledger.failed),
               static_cast<unsigned long long>(ledger.stale),
               static_cast<unsigned long long>(ledger.unexplained));
  for (const std::string& e : ledger.examples) {
    std::fprintf(stderr, "    %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string QueryLine(const std::string& id, const std::string& vql) {
  return "Q " + id + " 0 " + vql;
}

/// One service round trip, checked against the oracle digest.
struct RoundTripResult {
  bool replied = false;
  bool correct = false;
  service::Reply reply;
};

RoundTripResult ServiceRead(LineClient& client, const std::string& id,
                            const std::string& vql, const Expected* want) {
  RoundTripResult r;
  std::string line;
  if (!client.RoundTrip(QueryLine(id, vql), &line)) return r;
  auto parsed = service::ParseReplyLine(line);
  if (!parsed.ok() || parsed.value().id != id) return r;
  r.replied = true;
  r.reply = parsed.value();
  r.correct = r.reply.ok() && (want == nullptr || Matches(r.reply, *want));
  return r;
}

// ----------------------------------------------------- end-to-end run

/// One part's timed-phase samples.
struct Samples {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  /// Timed ops completed, reads and writes.
  size_t ops = 0;
  double wall_s = 0.0;
};

/// example4 / scan: `clients` closed-loop socket clients, first for a
/// warm-up whose samples are dropped, then for `seconds`.
void ClosedLoop(System& sys, const Workload& w,
                const std::vector<Expected>& expected, double seconds,
                Samples* samples, Ledger* ledger) {
  const size_t clients = w.clients.size();
  std::vector<Samples> per_client(clients);
  std::vector<Ledger> ledgers(clients);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point timed_start;
  const uint16_t port = sys.service->port();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      const bool connected = client.Connect(port);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!connected) {
        ++ledgers[c].attempted;
        ledgers[c].Fail(false, "cannot connect to the service");
        return;
      }
      const auto deadline =
          timed_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
      const auto& stream = w.clients[c];
      Samples& mine = per_client[c];
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const Op& op = stream[i % stream.size()];
        const auto t = Clock::now();
        RoundTripResult r =
            ServiceRead(client, "c" + std::to_string(c) + "." + std::to_string(i),
                        w.queries[op.query], &expected[op.query]);
        const bool timed = t >= timed_start && Clock::now() < deadline;
        ++ledgers[c].attempted;
        if (r.replied && timed) {
          mine.read_ms.push_back(MsSince(t));
          ++mine.ops;
        }
        if (!r.correct) {
          ledgers[c].Fail(false, (r.replied ? r.reply.status : "no reply") +
                                     std::string(": ") + op.text);
          if (!r.replied) break;
        }
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  timed_start = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(kWarmupSeconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < clients; ++c) {
    const Samples& mine = per_client[c];
    samples->read_ms.insert(samples->read_ms.end(), mine.read_ms.begin(),
                            mine.read_ms.end());
    samples->ops += mine.ops;
    ledger->Merge(ledgers[c]);
  }
  samples->wall_s = seconds;
}

/// Times a single-client sequence of writes through Submit.
void TimeWrites(System& sys, const std::vector<Op>& writes, Samples* samples,
                Ledger* ledger) {
  for (const Op& op : writes) {
    const auto t = Clock::now();
    auto out = sys.session->Submit({op.write});
    samples->write_ms.push_back(MsSince(t));
    ++ledger->attempted;
    if (!out[0].status.ok()) {
      ledger->Fail(false, out[0].status.ToString() + ": " + op.text);
    }
  }
}

/// The example4/scan write probe, run after the read phase, which
/// leaves the data untouched: the first kWriteWarmup writes warm the
/// write path untimed, the rest are timed into `samples`.
void WriteProbe(System& sys, const Workload& w, Samples* samples, Ledger* ledger) {
  const auto warm_end = w.write_probe.begin() + kWriteWarmup;
  Samples warm;
  TimeWrites(sys, std::vector<Op>(w.write_probe.begin(), warm_end), &warm, ledger);
  TimeWrites(sys, std::vector<Op>(warm_end, w.write_probe.end()), samples, ledger);
}

/// The read_write client's pause before each op, on the untimed clock.
/// Every read's unpin wakes background reclaim for a sweep under the
/// store's writer lock. Without the pause the next op races that sweep,
/// and whether it waits is a coin toss that splits write latency into
/// two modes with the median on the boundary between them. The client
/// yields instead of sleeping, so the sweep gets the (pinned) CPU but
/// the CPU never idles: an idle virtual CPU is handed to other guests,
/// and the next op would start on cold caches.
void ThinkTime(double* untimed_ms) {
  const auto t = Clock::now();
  while (Clock::now() - t < kThinkTime) std::this_thread::yield();
  *untimed_ms += MsSince(t);
}

/// read_write: one client plays its stream through Submit after one
/// untimed read of every distinct query. Oracle checks run untimed.
void PlayMixed(System& sys, const Workload& w, const std::vector<Op>& stream,
               CpuPin& pin, Samples* samples, Ledger* ledger) {
  engine::SubmitOptions submit;
  submit.lanes = sys.lanes;
  for (const std::string& vql : w.queries) {
    engine::QueryRequest request;
    request.vql = vql;
    sys.session->Submit({request}, submit);
  }
  double untimed_ms = 0.0;
  const auto start = Clock::now();
  for (const Op& op : stream) {
    ThinkTime(&untimed_ms);
    ++samples->ops;
    if (op.kind == Op::Kind::kWrite) {
      TimeWrites(sys, {op}, samples, ledger);
      continue;
    }
    engine::QueryRequest request;
    request.vql = w.queries[op.query];
    const auto t = Clock::now();
    auto out = sys.session->Submit({request}, submit);
    samples->read_ms.push_back(MsSince(t));
    ++ledger->attempted;
    if (op.check || !out[0].status.ok()) {
      const auto c = Clock::now();
      CpuPin::Lifted lifted(pin);
      CheckSubmitRead(*sys.session, sys.lanes, request.vql, out[0], ledger);
      untimed_ms += MsSince(c);
    }
  }
  samples->wall_s = (MsSince(start) - untimed_ms) / 1000.0;
  std::fprintf(stderr, "  untimed oracle checks and pauses: %.3f s\n",
               untimed_ms / 1000.0);
}

/// One part of a run (run.py starts several and reports their medians):
/// a fresh load, the oracle digests (example4, scan; untimed), then
/// `--seconds` of timed ops.
int RunEndToEnd(const Args& args) {
  auto made = SetUp(args.docs, args.seed, LanesFor(args.workload),
                    args.workdir + "/pages");
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<System> sys = std::move(made).value();
  std::fprintf(stderr, "  set-up: %.3f s (populate %.3f s, ingest %.3f s)\n",
               sys->total_s, sys->populate_s, sys->ingest_s);
  auto corpus = LoadCorpus(sys->db->catalog(), sys->db->store());
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  const Workload w =
      Generate(args.workload, args.seed, args.seconds, corpus.value(), args.part);
  const uint64_t segment_bytes =
      sys->segments->pager()->page_count() * storage::PagerOptions{}.page_size;
  std::fprintf(stderr,
               "workload %s seed %llu: %u documents, segments %.1f MB in a "
               "%.1f MB cache, %zu client(s), %zu lanes, closed loop\n"
               "op_stream_digest %016llx\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.docs, segment_bytes / 1e6,
               storage::PagerOptions{}.cache_pages *
                   storage::PagerOptions{}.page_size / 1e6,
               w.clients.size(), sys->lanes,
               static_cast<unsigned long long>(OpsDigest(w)));

  Samples samples;
  Samples writes;
  Ledger ledger;
  if (w.name == "read_write") {
    sys->db->store().StartBackgroundReclaim();
    CpuPin pin;
    PlayMixed(*sys, w, w.clients[0], pin, &samples, &ledger);
    writes.write_ms = samples.write_ms;
  } else {
    auto expected = OracleDigests(*sys->session, w.queries);
    if (!expected.ok()) {
      std::fprintf(stderr, "oracle failed: %s\n", expected.status().ToString().c_str());
      return 1;
    }
    // Warm-up: every distinct query once, checked, not timed.
    LineClient warm;
    if (!warm.Connect(sys->service->port())) return 1;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      if (!ServiceRead(warm, "warm" + std::to_string(q), w.queries[q],
                       &expected.value()[q]).correct) {
        std::fprintf(stderr, "warm-up reply wrong: %s\n", w.queries[q].c_str());
        return 1;
      }
    }
    CpuPin pin;
    ClosedLoop(*sys, w, expected.value(), args.seconds, &samples, &ledger);
    WriteProbe(*sys, w, &writes, &ledger);
  }
  std::fprintf(stderr, "  samples: %zu reads, %zu writes, %zu timed ops in %.3f s\n",
               samples.read_ms.size(), writes.write_ms.size(), samples.ops,
               samples.wall_s);

  const std::vector<Metric> metrics = {
      {"setup_s", sys->total_s, "s"},
      {"read_p50_ms", Percentile(samples.read_ms, 0.50), "ms"},
      {"read_p95_ms", Percentile(samples.read_ms, 0.95), "ms"},
      {"write_p50_ms", Percentile(writes.write_ms, 0.50), "ms"},
      {"write_p95_ms", Percentile(writes.write_ms, 0.95), "ms"},
      {"throughput_ops", Ratio(static_cast<double>(samples.ops), samples.wall_s),
       "ops/s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"ok_share",
       1.0 - Ratio(static_cast<double>(ledger.failed),
                   static_cast<double>(ledger.attempted)),
       "fraction"},
  };
  PrintResult(ledger.unexplained == 0, ledger, metrics);
  return 0;
}

// ------------------------------------------------------------ traced run

/// Median wall time of `reps` Submit calls of one query, and whether
/// every result equals `*result` (set by the first call when null).
double TimeQuery(engine::Database& session, const std::string& vql, bool optimize,
                 int reps, Value* result, bool* same) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    engine::QueryRequest request;
    request.vql = vql;
    request.plan.optimize = optimize;
    const auto t = Clock::now();
    auto out = session.Submit({request});
    ms.push_back(MsSince(t));
    if (!out[0].status.ok()) {
      *same = false;
    } else if (result->is_null()) {
      *result = out[0].result.result;
    } else if (!(*result == out[0].result.result)) {
      *same = false;
    }
  }
  return Median(ms);
}

/// The paper's headline: Example 4 unoptimized over optimized.
double Headline(engine::Database& session, int unopt_reps, bool* same) {
  Value result;
  const double unopt = TimeQuery(session, kExample4, false, unopt_reps, &result, same);
  const double opt = TimeQuery(session, kExample4, true, 21, &result, same);
  std::fprintf(stderr, "  Example 4: unoptimized %.3f ms, optimized %.3f ms\n",
               unopt, opt);
  return Ratio(unopt, opt);
}

/// Everything the traced pass measures, by call kind.
struct TracedTotals {
  Counters read_submit;
  Counters write_submit;
  uint64_t reads = 0;
  uint64_t writes = 0;
  double memo_exprs = 0.0;
  double rule_applications = 0.0;
  double log_cost_ratio = 0.0;
  uint64_t costed = 0;
  std::vector<double> read_ms;
};

/// Plays the traced stream once. With a tracer, every op records spans
/// around each public call and counter deltas around each Submit; with
/// none, it is the untraced baseline (service round trip on example4
/// and scan, Submit on read_write).
void PlayTraced(System& sys, const Workload& w, const std::vector<Expected>* expected,
                Tracer* tracer, TracedTotals* totals, Ledger* ledger) {
  CpuPin pin;
  const bool via_service = w.name != "read_write";
  LineClient client;
  if (!client.Connect(sys.service->port())) {
    ledger->Fail(false, "cannot connect to the service");
    return;
  }
  engine::SubmitOptions submit;
  submit.lanes = sys.lanes;
  double think_ms = 0.0;
  for (size_t i = 0; i < w.traced.size(); ++i) {
    const Op& op = w.traced[i];
    if (!via_service) ThinkTime(&think_ms);
    const int root = tracer ? tracer->Begin("op", -1, i) : -1;
    ++ledger->attempted;
    if (op.kind == Op::Kind::kWrite) {
      const Counters before = tracer ? Counters::Take(sys) : Counters{};
      const int s = tracer ? tracer->Begin("engine.submit", root, i) : -1;
      auto out = sys.session->Submit({op.write}, submit);
      if (tracer) {
        tracer->End(s);
        totals->write_submit.AddDelta(before, Counters::Take(sys));
        const engine::QueryStats& st = out[0].stats;
        tracer->Child("engine.plan", s, tracer->span(s).start_ms, st.plan_ms);
        tracer->Child("exec.apply", s, tracer->span(s).start_ms + st.plan_ms,
                      st.drain_ms);
        tracer->End(root);
      }
      ++totals->writes;
      if (!out[0].status.ok()) ledger->Fail(false, out[0].status.ToString() + ": " + op.text);
      continue;
    }
    const std::string& vql = w.queries[op.query];
    ++totals->reads;
    const Expected* want = expected ? &(*expected)[op.query] : nullptr;
    const std::string id = "t" + std::to_string(i);

    // Service round trip, with the reply's own queue/plan/drain times
    // as children; what they leave uncovered is wire time.
    if (tracer || via_service) {
      const int rt = tracer ? tracer->Begin("service.roundtrip", root, i) : -1;
      const auto t = Clock::now();
      RoundTripResult r = ServiceRead(client, id, vql, want);
      const double ms = MsSince(t);
      if (tracer) {
        tracer->End(rt);
        const engine::QueryStats& st = r.reply.stats;
        const double t0 = tracer->span(rt).start_ms;
        tracer->Child("service.plan", rt, t0, st.plan_ms);
        tracer->Child("service.queue", rt, t0 + st.plan_ms, st.queue_ms);
        tracer->Child("service.drain", rt, t0 + st.plan_ms + st.queue_ms,
                      st.drain_ms);
      }
      if (via_service) totals->read_ms.push_back(ms);
      // On read_write the Submit below is the judged read; this leg only
      // has to come back (its status repeats the Submit's).
      if (via_service ? !r.correct : !r.replied) {
        ledger->Fail(false, (r.replied ? r.reply.status : "no reply") + ": " + op.text);
      }
    }
    if (tracer) {
      int s = tracer->Begin("vql.prepare", root, i);
      auto unopt = sys.session->Prepare(vql, {/*optimize=*/false});
      tracer->End(s);
      s = tracer->Begin("optimizer.prepare", root, i);
      auto opt = sys.session->Prepare(vql, {/*optimize=*/true});
      tracer->End(s);
      if (opt.ok()) {
        const engine::QueryResult& p = opt.value().planned;
        tracer->Child("optimizer.optimize", s, tracer->span(s).end_ms - p.optimize_ms,
                      p.optimize_ms);
        totals->memo_exprs += static_cast<double>(p.memo_exprs);
        totals->rule_applications += static_cast<double>(p.rule_applications);
        if (p.original_cost > 0 && p.chosen_cost > 0) {
          totals->log_cost_ratio += std::log(p.original_cost / p.chosen_cost);
          ++totals->costed;
        }
      }
      if (!unopt.ok() || !opt.ok()) ledger->Fail(false, "prepare failed: " + op.text);
    }
    if (tracer || !via_service) {
      engine::QueryRequest request;
      request.vql = vql;
      const Counters before = tracer ? Counters::Take(sys) : Counters{};
      const int s = tracer ? tracer->Begin("engine.submit", root, i) : -1;
      const auto t = Clock::now();
      auto out = sys.session->Submit({request}, submit);
      const double ms = MsSince(t);
      if (tracer) {
        tracer->End(s);
        totals->read_submit.AddDelta(before, Counters::Take(sys));
        const engine::QueryStats& st = out[0].stats;
        const double t0 = tracer->span(s).start_ms;
        tracer->Child("engine.plan", s, t0, st.plan_ms);
        tracer->Child("engine.queue", s, t0 + st.plan_ms, st.queue_ms);
        tracer->Child("exec.drain", s, t0 + st.plan_ms + st.queue_ms, st.drain_ms);
      }
      if (!via_service) totals->read_ms.push_back(ms);
      if (want != nullptr) {
        if (!out[0].status.ok() || ExpectedOf(out[0].result.result).hash != want->hash) {
          ledger->Fail(false, "submit disagrees with the oracle: " + op.text);
        }
      } else if (op.check || !out[0].status.ok()) {
        CpuPin::Lifted lifted(pin);
        CheckSubmitRead(*sys.session, sys.lanes, vql, out[0], ledger);
      }
    }
    if (tracer) tracer->End(root);
  }
}

/// ServiceStats through the `S` command, once the last reply's
/// generation has been counted: a reply can reach the client before its
/// generation's totals are, so read until two snapshots agree.
Result<service::ServiceStats> ServiceStatsOf(System& sys) {
  LineClient client;
  if (!client.Connect(sys.service->port())) return Status::Internal("no service");
  std::string last;
  for (int i = 0; i < 100; ++i) {
    std::string line;
    if (!client.RoundTrip("S", &line)) return Status::Internal("no reply to S");
    if (line == last) return service::ParseStatsLine(line);
    last = line;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::Internal("service stats did not settle");
}

int RunTraced(const Args& args) {
  Ledger ledger;
  bool same = true;
  double small_ratio = 0.0;
  {
    workload::DocumentDb small;
    if (!small.Init().ok() ||
        !small.Populate(CorpusFor(std::max<uint32_t>(args.docs / 10, 2), args.seed)).ok()) {
      return 1;
    }
    auto session = workload::MakePaperSession(&small);
    if (!session.ok()) return 1;
    small_ratio = Headline(*session.value(), 5, &same);
  }

  auto made = SetUp(args.docs, args.seed, LanesFor(args.workload),
                    args.workdir + "/pages-a");
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<System> sys = std::move(made).value();
  if (args.workload == "read_write") sys->db->store().StartBackgroundReclaim();
  const double populate_s = sys->populate_s;
  const double generate_ms = sys->generate_ms;
  const double ingest_s = sys->ingest_s;
  const double ratio = Headline(*sys->session, 3, &same);
  if (!same) ledger.Fail(false, "Example 4 optimized and unoptimized disagree");

  auto corpus = LoadCorpus(sys->db->catalog(), sys->db->store());
  if (!corpus.ok()) return 1;
  const Workload w =
      Generate(args.workload, args.seed, args.seconds, corpus.value(), 0);
  std::fprintf(stderr, "workload %s seed %llu traced\nop_stream_digest %016llx\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(OpsDigest(w)));
  std::vector<Expected> expected;
  if (w.name != "read_write") {
    auto digests = OracleDigests(*sys->session, w.queries);
    if (!digests.ok()) return 1;
    expected = std::move(digests).value();
  }
  const std::vector<Expected>* want = expected.empty() ? nullptr : &expected;

  TracedTotals untraced;
  PlayTraced(*sys, w, want, nullptr, &untraced, &ledger);
  if (w.name == "read_write") {
    // The untraced pass committed writes; trace from the same start.
    sys.reset();
    made = SetUp(args.docs, args.seed, LanesFor(args.workload),
                 args.workdir + "/pages-b");
    if (!made.ok()) return 1;
    sys = std::move(made).value();
    sys->db->store().StartBackgroundReclaim();
  }

  auto service_before = ServiceStatsOf(*sys);
  const Counters start = Counters::Take(*sys);
  Tracer tracer;
  TracedTotals t;
  PlayTraced(*sys, w, want, &tracer, &t, &ledger);
  auto service_after = ServiceStatsOf(*sys);
  sys->db->store().StopBackgroundReclaim();
  sys->db->store().Reclaim();
  Counters pass;
  pass.AddDelta(start, Counters::Take(*sys));
  if (!service_before.ok() || !service_after.ok()) {
    ledger.Fail(false, "service stats unavailable");
    service_before = service_after = service::ServiceStats{};
  }
  const service::ServiceStats& sb = service_before.value();
  const service::ServiceStats& sa = service_after.value();

  const std::string trace_path = args.workdir + "/trace-" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  if (!tracer.WriteChromeJson(trace_path)) {
    ledger.Fail(false, "cannot write " + trace_path);
  }
  std::fprintf(stderr, "  chrome trace: %s\n", trace_path.c_str());

  const Counters& rc = t.read_submit;
  const uint64_t reads = t.reads;
  const uint64_t compiled = rc.v[Counters::kVmCompiled];
  const uint64_t pages = rc.v[Counters::kPageHits] + rc.v[Counters::kPageMisses];
  const double overhead = Median(t.read_ms) - Median(untraced.read_ms);
  std::fprintf(stderr, "  read p50: traced %.4f ms, untraced %.4f ms\n",
               Median(t.read_ms), Median(untraced.read_ms));
  const std::vector<Metric> metrics = {
      {"service.wire_p50_ms", Median(tracer.SelfTimes("service.roundtrip")), "ms"},
      {"service.queue_p50_ms", Median(tracer.Durations("service.queue")), "ms"},
      {"service.queries_per_generation",
       Ratio(static_cast<double>(sa.queries_admitted - sb.queries_admitted),
             static_cast<double>(sa.generations - sb.generations)),
       "count"},
      {"service.late_attach_share",
       Ratio(static_cast<double>(sa.late_attached - sb.late_attached),
             static_cast<double>(sa.queries_admitted - sb.queries_admitted)),
       "fraction"},
      {"vql.parse_bind_p50_ms", Median(tracer.Durations("vql.prepare")), "ms"},
      {"optimizer.plan_p50_ms", Median(tracer.Durations("optimizer.optimize")), "ms"},
      {"optimizer.memo_exprs", Ratio(t.memo_exprs, static_cast<double>(reads)), "count"},
      {"optimizer.rule_applications",
       Ratio(t.rule_applications, static_cast<double>(reads)), "count"},
      {"optimizer.est_cost_ratio",
       t.costed ? std::exp(t.log_cost_ratio / static_cast<double>(t.costed)) : 0.0,
       "ratio"},
      {"optimizer.unopt_over_opt", ratio, "ratio"},
      {"optimizer.unopt_over_opt_small", small_ratio, "ratio"},
      {"optimizer.stale_answers", static_cast<double>(ledger.stale), "count"},
      {"semantics.generate_ms", generate_ms, "ms"},
      {"exec.drain_p50_ms", Median(tracer.Durations("exec.drain")), "ms"},
      {"exec.vm_compiled_share",
       Ratio(static_cast<double>(compiled),
             static_cast<double>(compiled + rc.v[Counters::kVmFallbacks])),
       "fraction"},
      {"exec.vm_dispatches_per_read", rc.Per(Counters::kVmDispatches, reads), "count"},
      {"exec.operator_handoffs_per_read", rc.Per(Counters::kOperatorHandoffs, reads),
       "count"},
      {"exec.compact_moves_per_read", rc.Per(Counters::kCompactMoves, reads), "count"},
      {"engine.submit_self_p50_ms", Median(tracer.SelfTimes("engine.submit")), "ms"},
      {"engine.property_writes_per_write",
       t.write_submit.Per(Counters::kPropertyWrites, t.writes), "count"},
      {"engine.epochs_committed",
       static_cast<double>(t.write_submit.v[Counters::kEpochsCommitted]), "count"},
      {"methods.invocations_per_read", rc.Per(Counters::kMethodCalls, reads), "count"},
      {"extindex.ir_searches_per_read", rc.Per(Counters::kIrSearches, reads), "count"},
      {"extindex.postings_per_read", rc.Per(Counters::kPostings, reads), "count"},
      {"extindex.title_lookups_per_read", rc.Per(Counters::kTitleLookups, reads),
       "count"},
      {"objstore.property_reads_per_read", rc.Per(Counters::kPropertyReads, reads),
       "count"},
      {"objstore.extent_scans_per_read", rc.Per(Counters::kExtentScans, reads), "count"},
      {"objstore.snapshot_reads_per_read", rc.Per(Counters::kSnapshotReads, reads),
       "count"},
      {"objstore.versions_created",
       static_cast<double>(pass.v[Counters::kVersionsCreated]), "count"},
      {"objstore.versions_reclaimed",
       static_cast<double>(pass.v[Counters::kVersionsReclaimed]), "count"},
      {"objstore.versions_live_end",
       static_cast<double>(pass.v[Counters::kVersionsCreated] -
                           pass.v[Counters::kVersionsReclaimed]),
       "count"},
      {"storage.ingest_s", ingest_s, "s"},
      {"storage.cache_hit_rate",
       Ratio(static_cast<double>(rc.v[Counters::kPageHits]), static_cast<double>(pages)),
       "fraction"},
      {"storage.evictions_per_read", rc.Per(Counters::kEvictions, reads), "count"},
      {"storage.segments_scanned_per_read", rc.Per(Counters::kSegmentsScanned, reads),
       "count"},
      {"storage.segments_skipped_per_read", rc.Per(Counters::kSegmentsSkipped, reads),
       "count"},
      {"workload.populate_s", populate_s, "s"},
      {"trace.overhead_ms", overhead, "ms"},
  };
  PrintResult(ledger.unexplained == 0, ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload example4|scan|read_write --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--docs N] [--part N]\n",
                 argv[0]);
    return 2;
  }
  return args.trace == 1 ? perfbench::RunTraced(args)
                         : perfbench::RunEndToEnd(args);
}
