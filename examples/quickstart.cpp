// Quickstart: build the paper's §2.1 document schema, load a synthetic
// corpus, register the Example 4 equivalences, run the paper's
// headline query with and without semantic optimization, then submit
// a concurrent batch through the Submit API so the queries share one
// extent pass.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <iostream>

#include "workload/document_knowledge.h"

int main() {
  using namespace vodak;

  // 1. The paper's document database (classes Document, Section,
  //    Paragraph with the §2.1 methods) with a synthetic corpus.
  workload::DocumentDb db;
  if (auto s = db.Init(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  workload::CorpusParams params;
  params.num_documents = 200;
  if (auto s = db.Populate(params); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  // 2. A database session with the paper's knowledge (E1–E5, the
  //    largeParagraphs implication and the range inverse R1) and a
  //    generated optimizer (§7).
  auto session = workload::MakePaperSession(&db);
  if (!session.ok()) {
    std::cerr << session.status().ToString() << "\n";
    return 1;
  }

  // 3. The Example 4 query, exactly as a user would write it.
  const std::string query =
      "ACCESS p FROM p IN Paragraph "
      "WHERE p->contains_string('implementation') "
      "AND (p->document()).title == 'Query Optimization'";

  std::cout << "Registered knowledge:\n"
            << (*session)->knowledge().ToString() << "\n";

  auto unoptimized = (*session)->Run(query, {/*optimize=*/false});
  auto optimized = (*session)->Run(query, {/*optimize=*/true});
  if (!unoptimized.ok() || !optimized.ok()) {
    std::cerr << "query failed\n";
    return 1;
  }

  std::cout << "Query:\n  " << query << "\n\n";
  std::cout << "Unoptimized plan (cost "
            << unoptimized.value().original_cost << ", "
            << unoptimized.value().execute_ms << " ms):\n"
            << unoptimized.value().chosen_plan->ToTreeString() << "\n";
  std::cout << "Optimized plan (cost " << optimized.value().chosen_cost
            << ", " << optimized.value().execute_ms << " ms, optimized in "
            << optimized.value().optimize_ms << " ms):\n"
            << optimized.value().chosen_plan->ToTreeString() << "\n";
  std::cout << "Results agree: "
            << (unoptimized.value().result == optimized.value().result
                    ? "yes"
                    : "NO (bug!)")
            << ", " << optimized.value().result.AsSet().size()
            << " paragraphs found\n";
  std::cout << "Speedup: "
            << unoptimized.value().execute_ms /
                   std::max(1e-6, optimized.value().execute_ms)
            << "x\n";

  // 4. A concurrent batch through the Submit API: each request carries
  //    its own plan/run knobs (and optionally a deadline or a
  //    CancellationToken); the batch drains on shared scans, so these
  //    three Paragraph queries pay one extent pass between them.
  std::vector<engine::QueryRequest> batch(3);
  batch[0].vql = "ACCESS p FROM p IN Paragraph WHERE p.number >= 2";
  batch[1].vql = "ACCESS p FROM p IN Paragraph WHERE p.number <= 1";
  batch[2].vql = query;  // the Example 4 query again, optimized
  for (auto& request : batch) request.plan.optimize = true;

  auto outcomes = (*session)->Submit(batch, {/*lanes=*/2});
  std::cout << "\nSubmit batch (" << batch.size() << " queries):\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (!out.status.ok()) {
      std::cerr << "  [" << i << "] " << out.status.ToString() << "\n";
      return 1;
    }
    std::cout << "  [" << i << "] " << out.result.result.AsSet().size()
              << " rows, generation " << out.stats.generation_id
              << ", queue " << out.stats.queue_ms << " ms, drain "
              << out.stats.drain_ms << " ms\n";
  }
  return 0;
}
