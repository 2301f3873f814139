// Experiment X7: the batch-at-a-time physical pipeline and the
// morsel-driven parallel driver. Drives one scan+select plan (extent
// scan over ~100k Paragraph objects, predicate on a stored property)
// through the serial NextBatch pipeline and the parallel driver at a
// sweep of thread counts, and reports throughput plus the
// parallel/serial speedups. Acceptance bar: >= 2x at threads=4 over
// threads=1 (on hardware with >= 4 cores; the JSON records
// hardware_concurrency so single-core CI runs are interpretable).
//
// A second section (X8) measures the set-at-a-time method ABI on the
// paper's own workload shape — WHERE clauses calling external methods:
// the IR predicate `p->contains_string(s)` (batch dispatch amortizes
// the content-column read and query tokenization) and the IR retrieval
// `p IS-IN Paragraph->retrieve_by_string(s)` (batch dispatch dedups the
// constant argument into ONE postings intersection per ~1024-row
// batch). The method corpus is capped (--method-docs) to keep the
// section quick; the JSON records the probe counts so the amortization
// is checkable, not just the wall clock.
//
// A third section (X9) measures the selection-vector pipeline on a
// multi-predicate selection chain (map + three stacked filters, the
// shape the semantic optimizer's derived predicates produce): the
// marking pipeline (filters intersect the batch's selection vector,
// density restored once at the drain boundary) against the compacting
// baseline (ExecContext::filter_compacts — every filter physically
// moves the survivors). Both wall clock and the BatchCopyStats value
// move/copy counters are recorded, so the copy-tax claim is checkable;
// scripts/ci.sh fails when the selection path regresses to more copies
// than rows.
//
// Flags: --docs=N        corpus size in documents (default 8350 ->
//                        ~100k paragraphs, 3 sections x 4 paragraphs)
//        --method-docs=N corpus size for the method workloads
//                        (default min(docs, 800))
//        --reps=N        timed repetitions per measurement (default 5)
//        --json=PATH     machine-readable scan+parallel results
//        --json-method=PATH machine-readable method-ABI results
//        --json-selvec=PATH machine-readable selection-chain results
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "algebra/translate.h"
#include "bench_util.h"
#include "common/copy_stats.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "vql/parser.h"

namespace {

using namespace vodak;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct PlanFixture {
  std::unique_ptr<algebra::AlgebraContext> ctx;
  algebra::LogicalRef plan;
  exec::ExecContext exec_ctx;
};

PlanFixture MakePlan(workload::DocumentDb* db, const std::string& vql) {
  PlanFixture fixture;
  fixture.ctx =
      std::make_unique<algebra::AlgebraContext>(&db->catalog());
  auto query = vql::ParseQuery(vql);
  VODAK_CHECK(query.ok()) << query.status().ToString();
  vql::Binder binder(&db->catalog());
  auto bound = binder.Bind(query.value());
  VODAK_CHECK(bound.ok()) << bound.status().ToString();
  auto plan = algebra::TranslateQuery(*fixture.ctx, bound.value());
  VODAK_CHECK(plan.ok()) << plan.status().ToString();
  fixture.plan = plan.value();
  fixture.exec_ctx =
      exec::ExecContext{&db->catalog(), &db->store(), &db->methods()};
  return fixture;
}

/// One timed serial NextBatch drain; returns (elapsed ms, rows emitted
/// by the plan root).
std::pair<double, size_t> RunOnce(const PlanFixture& fixture) {
  auto phys = exec::BuildPhysical(fixture.plan, fixture.exec_ctx);
  VODAK_CHECK(phys.ok()) << phys.status().ToString();
  exec::PhysOperator* root = phys.value().get();
  size_t rows = 0;
  auto start = std::chrono::steady_clock::now();
  VODAK_CHECK(root->Open().ok());
  exec::RowBatch batch;
  for (;;) {
    auto more = root->NextBatch(&batch);
    VODAK_CHECK(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    rows += batch.active_rows();  // filters emit selected batches
  }
  root->Close();
  return {MsSince(start), rows};
}

/// One timed drain through the morsel-driven parallel driver (threads=1
/// degenerates to the serial batch pipeline inside the driver).
std::pair<double, size_t> RunParallelOnce(const PlanFixture& fixture,
                                          size_t threads,
                                          exec::WorkerPool* pool) {
  exec::ParallelOptions options;
  options.threads = threads;
  options.pool = pool;
  auto start = std::chrono::steady_clock::now();
  auto rows = exec::ParallelDrainRows(fixture.plan, fixture.exec_ctx,
                                      options);
  double ms = MsSince(start);
  VODAK_CHECK(rows.ok()) << rows.status().ToString();
  return {ms, rows.value().size()};
}

struct ParallelPoint {
  size_t threads = 0;
  double ms = 0.0;
  double mrows_per_s = 0.0;
  double speedup_vs_threads1 = 0.0;
};

/// Batch-drain timing for one method-ABI workload, plus the external
/// index probe count that proves the set-at-a-time amortization.
struct MethodPoint {
  const char* key = "";
  const char* vql = "";
  double batch_ms = 0.0;
  size_t hits = 0;
  uint64_t probes_batch = 0;  // IR searches during one batch drain
};

/// Times one method workload and records the IR probe count of a single
/// drain.
MethodPoint RunMethodWorkload(workload::DocumentDb* db, const char* key,
                              const char* vql, int reps) {
  MethodPoint point;
  point.key = key;
  point.vql = vql;
  PlanFixture fixture = MakePlan(db, vql);
  db->ResetCounters();
  point.hits = RunOnce(fixture).second;
  point.probes_batch = db->paragraph_index().search_count();
  for (int r = 0; r < reps; ++r) point.batch_ms += RunOnce(fixture).first;
  point.batch_ms /= reps;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t docs = 8350;
  uint32_t method_docs = 0;  // 0 = min(docs, 800)
  int reps = 5;
  std::string json_path;
  std::string json_method_path;
  std::string json_selvec_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--docs=", 7) == 0) {
      docs = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--method-docs=", 14) == 0) {
      method_docs = static_cast<uint32_t>(std::atoi(argv[i] + 14));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--json-method=", 14) == 0) {
      json_method_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--json-selvec=", 14) == 0) {
      json_selvec_path = argv[i] + 14;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--docs=N] [--method-docs=N] [--reps=N] "
                   "[--json=PATH] [--json-method=PATH] "
                   "[--json-selvec=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (method_docs == 0) method_docs = docs < 800 ? docs : 800;

  workload::CorpusParams params;
  params.num_documents = docs;
  params.sections_per_document = 3;
  params.paragraphs_per_section = 4;
  params.words_per_paragraph = 8;  // keep corpus build cheap
  params.vocabulary_size = 200;
  const size_t num_paragraphs = static_cast<size_t>(docs) * 3 * 4;

  std::printf("building corpus: %u documents, %zu paragraphs...\n", docs,
              num_paragraphs);
  workload::DocumentDb db;
  VODAK_CHECK(db.Init().ok());
  VODAK_CHECK(db.Populate(params).ok());

  // Scan + select on a stored property; translates to
  // Filter(p.number >= 1) over ExtentScan(Paragraph).
  PlanFixture fixture = MakePlan(
      &db, "ACCESS p FROM p IN Paragraph WHERE p.number >= 1");

  // Warm-up; its cardinality is the reference for the parallel sweep.
  const size_t hits = RunOnce(fixture).second;

  double batch_ms = 0.0;
  for (int r = 0; r < reps; ++r) batch_ms += RunOnce(fixture).first;
  batch_ms /= reps;

  const double batch_mrows =
      num_paragraphs / batch_ms / 1000.0;  // million rows/s
  std::printf("workload: scan+select over %zu paragraphs, %zu hits\n",
              num_paragraphs, hits);
  std::printf("batch-at-a-time (NextBatch): %8.2f ms  %6.2f Mrows/s\n",
              batch_ms, batch_mrows);

  // Morsel-driven parallel sweep. One pool sized for the largest sweep
  // point, reused across thread counts (ParallelRun claims only as many
  // lanes as there are worker drains).
  const std::vector<size_t> sweep = {1, 2, 4, 8};
  exec::WorkerPool pool(sweep.back());
  std::vector<ParallelPoint> points;
  double t1_ms = 0.0;
  for (size_t threads : sweep) {
    auto warm = RunParallelOnce(fixture, threads, &pool);
    VODAK_CHECK(warm.second == hits)
        << "parallel cardinality mismatch at threads=" << threads
        << ": " << warm.second << " vs " << hits;
    double ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      ms += RunParallelOnce(fixture, threads, &pool).first;
    }
    ms /= reps;
    if (threads == 1) t1_ms = ms;
    ParallelPoint point;
    point.threads = threads;
    point.ms = ms;
    point.mrows_per_s = num_paragraphs / ms / 1000.0;
    point.speedup_vs_threads1 = t1_ms / ms;
    points.push_back(point);
    std::printf(
        "parallel (threads=%zu):       %8.2f ms  %6.2f Mrows/s  "
        "%5.2fx vs threads=1\n",
        threads, point.ms, point.mrows_per_s,
        point.speedup_vs_threads1);
  }
  double speedup_t4 = 0.0;
  for (const ParallelPoint& p : points) {
    if (p.threads == 4) speedup_t4 = p.speedup_vs_threads1;
  }
  std::printf("parallel_speedup_threads4: %.2fx (hardware threads: %u)\n",
              speedup_t4, std::thread::hardware_concurrency());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"parallel_exec\",\n");
    std::fprintf(f, "  \"workload\": \"scan+select p.number >= 1\",\n");
    std::fprintf(f, "  \"docs\": %u,\n", docs);
    std::fprintf(f, "  \"paragraphs\": %zu,\n", num_paragraphs);
    std::fprintf(f, "  \"hits\": %zu,\n", hits);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"batch_ms\": %.3f,\n", batch_ms);
    std::fprintf(f, "  \"parallel\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      std::fprintf(f,
                   "    {\"threads\": %zu, \"ms\": %.3f, "
                   "\"mrows_per_s\": %.3f, "
                   "\"speedup_vs_threads1\": %.3f}%s\n",
                   points[i].threads, points[i].ms,
                   points[i].mrows_per_s,
                   points[i].speedup_vs_threads1,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"parallel_speedup_threads4\": %.3f\n",
                 speedup_t4);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }

  // -------- X8: set-at-a-time method dispatch on external methods.
  const size_t method_paragraphs = static_cast<size_t>(method_docs) * 3 * 4;
  // The scan corpus is reused when it already has the right size (the
  // CI smoke shape); otherwise a capped method corpus is built.
  workload::DocumentDb mdb_storage;
  workload::DocumentDb* mdb = &db;
  if (method_docs != docs) {
    std::printf(
        "\nbuilding method corpus: %u documents, %zu paragraphs...\n",
        method_docs, method_paragraphs);
    workload::CorpusParams mparams = params;
    mparams.num_documents = method_docs;
    VODAK_CHECK(mdb_storage.Init().ok());
    VODAK_CHECK(mdb_storage.Populate(mparams).ok());
    mdb = &mdb_storage;
  }

  std::vector<MethodPoint> method_points;
  method_points.push_back(RunMethodWorkload(
      mdb, "contains_string",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      reps));
  method_points.push_back(RunMethodWorkload(
      mdb, "retrieve_is_in",
      "ACCESS p FROM p IN Paragraph WHERE p IS-IN "
      "Paragraph->retrieve_by_string('implementation')",
      reps));
  for (const MethodPoint& p : method_points) {
    std::printf("method workload %-16s %8.2f ms  %zu hits  "
                "(IR probes: %llu for %zu rows)\n",
                p.key, p.batch_ms, p.hits,
                static_cast<unsigned long long>(p.probes_batch),
                method_paragraphs);
  }

  if (!json_method_path.empty()) {
    std::FILE* f = std::fopen(json_method_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n",
                   json_method_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"method_batch\",\n");
    std::fprintf(f, "  \"method_docs\": %u,\n", method_docs);
    std::fprintf(f, "  \"paragraphs\": %zu,\n", method_paragraphs);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"workloads\": [\n");
    for (size_t i = 0; i < method_points.size(); ++i) {
      const MethodPoint& p = method_points[i];
      std::fprintf(
          f,
          "    {\"workload\": \"%s\", \"vql\": \"%s\", \"hits\": %zu,\n"
          "     \"batch_ms\": %.3f, \"ir_probes_batch\": %llu}%s\n",
          p.key, p.vql, p.hits, p.batch_ms,
          static_cast<unsigned long long>(p.probes_batch),
          i + 1 < method_points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_method_path.c_str());
  }

  // -------- X9: selection-vector chain vs compacting filters.
  // The chain: map n := p.number, then three stacked cheap predicates
  // (75% / 50% / 25% cumulative survivors over numbers 0..3). Each
  // Select is its own Filter operator, so the compacting baseline pays
  // one full-batch compaction per predicate while the marking pipeline
  // narrows one selection vector and compacts once at the drain
  // boundary.
  auto parse_expr = [](const char* text) {
    auto e = vql::ParseExpr(text);
    VODAK_CHECK(e.ok()) << e.status().ToString();
    return e.value();
  };
  algebra::AlgebraContext selvec_ctx(&db.catalog());
  auto chain_get = selvec_ctx.Get("p", "Paragraph");
  VODAK_CHECK(chain_get.ok());
  auto chain_map =
      selvec_ctx.Map("n", parse_expr("p.number"), chain_get.value());
  VODAK_CHECK(chain_map.ok());
  // A second carried column (the section reference a later operator
  // would consume): real optimized plans drag several references
  // through their filter stack, and every one of them is a column the
  // compacting baseline moves per predicate while the marking pipeline
  // leaves all of them in place.
  auto chain_map2 =
      selvec_ctx.Map("s", parse_expr("p.section"), chain_map.value());
  VODAK_CHECK(chain_map2.ok());
  auto chain_f1 =
      selvec_ctx.Select(parse_expr("n >= 1"), chain_map2.value());
  VODAK_CHECK(chain_f1.ok());
  auto chain_f2 =
      selvec_ctx.Select(parse_expr("n <= 2"), chain_f1.value());
  VODAK_CHECK(chain_f2.ok());
  auto chain_f3 =
      selvec_ctx.Select(parse_expr("n >= 2"), chain_f2.value());
  VODAK_CHECK(chain_f3.ok());
  const algebra::LogicalRef chain = chain_f3.value();
  const char* chain_desc =
      "map n := p.number; map s := p.section; "
      "select n >= 1; select n <= 2; select n >= 2";

  // One timed drain of the chain under the given pipeline mode,
  // including the drain-boundary Compact() (the batch representation's
  // density boundary). Returns (ms, rows); the BatchCopyStats counters
  // accumulate across the call.
  exec::ExecContext selvec_exec = exec::ExecContext{
      &db.catalog(), &db.store(), &db.methods()};
  exec::ExecContext compact_exec = selvec_exec;
  compact_exec.filter_compacts = true;
  auto run_chain =
      [&](const exec::ExecContext& mode) -> std::pair<double, size_t> {
    auto phys = exec::BuildPhysical(chain, mode);
    VODAK_CHECK(phys.ok()) << phys.status().ToString();
    size_t rows = 0;
    auto start = std::chrono::steady_clock::now();
    VODAK_CHECK(phys.value()->Open().ok());
    exec::RowBatch batch;
    for (;;) {
      auto more = phys.value()->NextBatch(&batch);
      VODAK_CHECK(more.ok()) << more.status().ToString();
      if (!more.value()) break;
      batch.Compact();  // density boundary: rows leave the pipeline
      rows += batch.num_rows();
    }
    phys.value()->Close();
    return {MsSince(start), rows};
  };

  struct SelvecPoint {
    double ms = 0.0;
    size_t hits = 0;
    uint64_t compact_moves = 0;  // values moved by compaction
    uint64_t gather_copies = 0;  // values copied into selection gathers
    uint64_t total() const { return compact_moves + gather_copies; }
  };
  auto measure_chain = [&](const exec::ExecContext& mode) {
    SelvecPoint point;
    // Counted warm drain: the move/copy counters are deterministic per
    // drain, so one counted pass suffices.
    BatchCopyStats::Reset();
    point.hits = run_chain(mode).second;
    point.compact_moves =
        BatchCopyStats::compact_moves.load(std::memory_order_relaxed);
    point.gather_copies =
        BatchCopyStats::gather_copies.load(std::memory_order_relaxed);
    for (int r = 0; r < reps; ++r) point.ms += run_chain(mode).first;
    point.ms /= reps;
    return point;
  };
  SelvecPoint marking = measure_chain(selvec_exec);
  SelvecPoint compacting = measure_chain(compact_exec);
  VODAK_CHECK(marking.hits == compacting.hits)
      << "selection-chain cardinality mismatch: " << marking.hits
      << " vs " << compacting.hits;
  std::printf("\nselection chain over %zu paragraphs, %zu hits: %s\n",
              num_paragraphs, marking.hits, chain_desc);
  std::printf(
      "selection-vector pipeline:   %8.2f ms  %10llu value moves "
      "(%llu compact + %llu gather)\n",
      marking.ms, static_cast<unsigned long long>(marking.total()),
      static_cast<unsigned long long>(marking.compact_moves),
      static_cast<unsigned long long>(marking.gather_copies));
  std::printf(
      "compacting baseline:         %8.2f ms  %10llu value moves "
      "(%llu compact + %llu gather)\n",
      compacting.ms, static_cast<unsigned long long>(compacting.total()),
      static_cast<unsigned long long>(compacting.compact_moves),
      static_cast<unsigned long long>(compacting.gather_copies));
  std::printf("selvec_vs_compact_speedup: %.2fx, moves %llu -> %llu\n",
              compacting.ms / marking.ms,
              static_cast<unsigned long long>(compacting.total()),
              static_cast<unsigned long long>(marking.total()));

  if (!json_selvec_path.empty()) {
    std::FILE* f = std::fopen(json_selvec_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_selvec_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"selvec\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", chain_desc);
    std::fprintf(f, "  \"docs\": %u,\n", docs);
    std::fprintf(f, "  \"paragraphs\": %zu,\n", num_paragraphs);
    std::fprintf(f, "  \"hits\": %zu,\n", marking.hits);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"selvec_ms\": %.3f,\n", marking.ms);
    std::fprintf(f, "  \"compact_ms\": %.3f,\n", compacting.ms);
    std::fprintf(f, "  \"selvec_vs_compact_speedup\": %.3f,\n",
                 compacting.ms / marking.ms);
    std::fprintf(f, "  \"selvec_compact_moves\": %llu,\n",
                 static_cast<unsigned long long>(marking.compact_moves));
    std::fprintf(f, "  \"selvec_gather_copies\": %llu,\n",
                 static_cast<unsigned long long>(marking.gather_copies));
    std::fprintf(f, "  \"selvec_moves_total\": %llu,\n",
                 static_cast<unsigned long long>(marking.total()));
    std::fprintf(
        f, "  \"compact_moves_total\": %llu\n",
        static_cast<unsigned long long>(compacting.total()));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json_selvec_path.c_str());
  }
  return 0;
}
