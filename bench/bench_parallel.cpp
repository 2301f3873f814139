// The morsel-parallel thread sweep. One scan+select plan,
// Filter(p.number >= 1) over ExtentScan(Paragraph), is drained serially
// through NextBatch and then through the morsel-driven parallel driver
// at 1, 2, 4 and 8 threads. perfbench pins every timed phase to one
// CPU, so it cannot measure this. The sweep runs unpinned on
// perfbench's corpus (8,000 documents, CorpusParams defaults: 96,000
// paragraphs), large enough that a drain's wall clock means something.
// Every parallel drain's rows must equal the serial drain's as a
// multiset; any mismatch makes the run fail.
//
// Detail goes to stderr. The last line of stdout is the result in
// perfbench's shape:
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
// BENCH_parallel_exec.json holds that line from a recorded run.
//
// Flags: --docs=N  corpus size in documents (default 8000)
//        --reps=N  timed drains per configuration (default 5)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "algebra/translate.h"
#include "common/logging.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "exec/row_hash.h"
#include "vql/binder.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace {

using namespace vodak;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/// One timed serial NextBatch drain into rows.
std::vector<exec::Row> SerialDrain(const algebra::LogicalRef& plan,
                                   const exec::ExecContext& ctx,
                                   double* ms) {
  auto phys = exec::BuildPhysical(plan, ctx);
  VODAK_CHECK(phys.ok()) << phys.status().ToString();
  exec::PhysOperator* root = phys.value().get();
  std::vector<exec::Row> rows;
  exec::RowBatch batch;
  exec::Row row;
  const auto start = Clock::now();
  VODAK_CHECK(root->Open().ok());
  for (;;) {
    auto more = root->NextBatch(&batch);
    VODAK_CHECK(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    batch.Compact();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      batch.CopyRowTo(r, &row);
      rows.push_back(row);
    }
  }
  root->Close();
  *ms = MsSince(start);
  return rows;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

}  // namespace

int main(int argc, char** argv) {
  uint32_t docs = 8000;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--docs=", 7) == 0) {
      docs = static_cast<uint32_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else {
      std::fprintf(stderr, "usage: %s [--docs=N] [--reps=N]\n", argv[0]);
      return 2;
    }
  }
  if (docs == 0 || reps <= 0) {
    std::fprintf(stderr, "--docs and --reps must be positive\n");
    return 2;
  }

  workload::CorpusParams params;
  params.num_documents = docs;
  workload::DocumentDb db;
  VODAK_CHECK(db.Init().ok());
  VODAK_CHECK(db.Populate(params).ok());
  const size_t paragraphs = static_cast<size_t>(docs) *
                            params.sections_per_document *
                            params.paragraphs_per_section;

  algebra::AlgebraContext algebra_ctx(&db.catalog());
  auto query = vql::ParseQuery("ACCESS p FROM p IN Paragraph WHERE p.number >= 1");
  VODAK_CHECK(query.ok()) << query.status().ToString();
  vql::Binder binder(&db.catalog());
  auto bound = binder.Bind(query.value());
  VODAK_CHECK(bound.ok()) << bound.status().ToString();
  auto translated = algebra::TranslateQuery(algebra_ctx, bound.value());
  VODAK_CHECK(translated.ok()) << translated.status().ToString();
  const algebra::LogicalRef plan = translated.value();
  exec::ExecContext ctx;
  ctx.catalog = &db.catalog();
  ctx.store = &db.store();
  ctx.methods = &db.methods();

  // Warm-up drain; its sorted rows are the reference multiset.
  double ms = 0.0;
  std::vector<exec::Row> reference = SerialDrain(plan, ctx, &ms);
  exec::SortRows(&reference);
  std::vector<double> serial_ms;
  for (int r = 0; r < reps; ++r) {
    SerialDrain(plan, ctx, &ms);
    serial_ms.push_back(ms);
  }
  const double serial = Median(serial_ms);
  std::fprintf(stderr, "%zu paragraphs, %zu hits; serial drain %.2f ms\n",
               paragraphs, reference.size(), serial);

  // One pool sized for the largest sweep point, reused across thread
  // counts (ParallelRun claims only as many lanes as it has drains).
  const std::vector<size_t> sweep = {1, 2, 4, 8};
  exec::WorkerPool pool(sweep.back());
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics = {{"serial_ms", serial, "ms"}};
  double threads1_ms = 0.0;
  double threads4_ms = 0.0;
  for (size_t threads : sweep) {
    exec::ParallelOptions options;
    options.threads = threads;
    options.pool = &pool;
    std::vector<double> samples;
    // The first drain warms up and is checked but not timed.
    for (int r = 0; r <= reps; ++r) {
      bool parallelized = false;
      const auto start = Clock::now();
      auto rows = exec::ParallelDrainRows(plan, ctx, options, &parallelized);
      const double drain_ms = MsSince(start);
      ++attempted;
      bool ok = rows.ok() && (threads == 1 || parallelized);
      if (ok) {
        exec::SortRows(&rows.value());
        ok = rows.value() == reference;
      }
      if (!ok) {
        ++failed;
        std::fprintf(stderr, "threads=%zu drain %d disagrees with the "
                     "serial drain\n", threads, r);
      }
      if (r > 0) samples.push_back(drain_ms);
    }
    const double median = Median(samples);
    if (threads == 1) threads1_ms = median;
    if (threads == 4) threads4_ms = median;
    std::fprintf(stderr, "threads=%zu: %.2f ms (%.2fx vs threads=1)\n",
                 threads, median, threads1_ms / median);
    metrics.push_back(
        {"threads" + std::to_string(threads) + "_ms", median, "ms"});
  }
  metrics.push_back({"speedup_threads4", threads1_ms / threads4_ms, "ratio"});
  metrics.push_back({"hardware_threads",
                     static_cast<double>(std::thread::hardware_concurrency()),
                     "count"});
  metrics.push_back({"paragraphs", static_cast<double>(paragraphs), "count"});

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.6g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}
