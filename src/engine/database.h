#ifndef VODAK_ENGINE_DATABASE_H_
#define VODAK_ENGINE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "engine/query_api.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "exec/worker_pool.h"
#include "semantics/generator.h"
#include "vql/interpreter.h"

namespace vodak {
namespace engine {

/// The public face of the system: a VODAK-style database session over a
/// schema (catalog), a store, a method registry and a knowledge base,
/// with a per-schema generated optimizer (§7).
///
/// Typical use (see examples/quickstart.cc):
///   workload::DocumentDb db;  db.Init();  db.Populate({});
///   engine::Database session(&db.catalog(), &db.store(), &db.methods());
///   session.knowledge().AddCondEquivalence("E3", ...);
///   session.GenerateOptimizer();
///   auto result = session.Run("ACCESS p FROM p IN Paragraph WHERE ...");
class Database {
 public:
  Database(const Catalog* catalog, ObjectStore* store,
           MethodRegistry* methods);

  /// The schema-specific knowledge collection; add entries before
  /// calling GenerateOptimizer().
  semantics::KnowledgeBase& knowledge() { return knowledge_; }
  const semantics::KnowledgeBase& knowledge() const { return knowledge_; }

  /// Installs an argument-aware statistics provider (index document
  /// frequencies etc.) used by the generated cost model.
  void AddStatsProvider(opt::MethodStatsProvider provider);

  /// (Re)generates the optimizer module from builtin + derived rules —
  /// the §7 per-schema generation step. Must be called before Run() with
  /// optimize=true, and again after knowledge changes. Every call bumps
  /// optimizer_generation(), successful or not.
  Status GenerateOptimizer(opt::OptimizerOptions options = {});

  /// How many times GenerateOptimizer has run. A plan derived from the
  /// module stays valid only while this is unchanged: the query
  /// service's plan cache stamps its entries with it. Acquire pairs
  /// with the release bump that follows the module swap, so a reader
  /// that sees the new value also sees the new module.
  uint64_t optimizer_generation() const {
    return optimizer_generation_.load(std::memory_order_acquire);
  }

  bool HasOptimizer() const { return module_.optimizer != nullptr; }

  /// The one execution entry point everything else shims over: submits
  /// a batch of queries that plan serially (parse / bind / optimize —
  /// the optimizer module is not built for concurrent Optimize calls).
  /// Write requests commit during that admission pass, in request
  /// order; the readers then pin one snapshot epoch and drain through
  /// DrainRead. A single read runs under its own RunOptions (threads,
  /// vm). Two or more reads drain concurrently on the session pool, one
  /// lane per query up to `options.lanes`, each with threads = 1 and
  /// vm = kOff, their scan leaves attached to one SharedScanManager per
  /// batch — K queries over the same extent pay ~1 scan pass and ~1
  /// property-column read per source instead of K
  /// (options.shared_scan = false keeps the private-scan baseline).
  /// outcomes[i] belongs to requests[i]; a member that fails to plan,
  /// is cancelled, or misses its deadline reports that in its own
  /// outcome.status without failing its siblings. Every read's
  /// physical_explain renders the operator tree it drained.
  std::vector<QueryOutcome> Submit(const std::vector<QueryRequest>& requests,
                                   const SubmitOptions& options = {});

  /// The planning half of Submit as a public step: parse / bind /
  /// (optionally) optimize, no execution. The query service plans on
  /// its event thread through this and hands the PreparedQuery to a
  /// shared-scan generation drain.
  Result<PreparedQuery> Prepare(const std::string& vql,
                                const PlanOptions& options = {});

  /// Parses, binds, (optionally) optimizes and executes one VQL query:
  /// a thin shim over Submit. The two-options split keeps the old
  /// `Run(vql, {/*optimize=*/false})` call shape working (those braces
  /// now initialize PlanOptions).
  Result<QueryResult> Run(const std::string& vql,
                          const PlanOptions& plan = {},
                          const RunOptions& run = {});

  /// Ground-truth evaluation through the naive interpreter (S9); used by
  /// the correctness property tests and as the paper's "straightforward
  /// evaluation" baseline. `options` selects the interpreter's row-mode
  /// (fully independent oracle) or its morsel-parallel outer loop.
  Result<Value> RunNaive(const std::string& vql,
                         const vql::Interpreter::Options& options = {}) const;

  /// Human-readable optimization report: original plan, chosen plan,
  /// costs, and with `plan.trace` the full rewrite storyboard.
  Result<std::string> Explain(const std::string& vql,
                              const PlanOptions& plan = {},
                              const RunOptions& run = {});

  const Catalog* catalog() const { return catalog_; }
  ObjectStore* store() const { return store_; }
  MethodRegistry* methods() const { return methods_; }

  /// Attaches the paged segment store (docs/ARCHITECTURE.md §"Paged
  /// storage & segment skipping"; not owned, outlives the session).
  /// Read paths — serial, morsel-parallel, shared-scan and VM — then
  /// prefer segment-backed scans whenever a SegmentVersion covers
  /// their pinned snapshot, and every write commit through this
  /// session drops the touched classes' versions before its epoch is
  /// published, so stale segments are never read. Writes that bypass
  /// the session (direct store mutations) are invisible here:
  /// re-ingest before relying on segment scans after such writes.
  void AttachSegmentStore(storage::SegmentStore* segments) {
    segments_ = segments;
  }
  storage::SegmentStore* segment_store() const { return segments_; }

  /// (Re)ingests every catalog class into the attached segment store
  /// at the current epoch — the bulk (re)load step after populating
  /// the store or after a write burst dropped versions. Holds the
  /// write lock throughout, so no commit lands between the snapshot
  /// and the publish. No-op without an attached store.
  Status RefreshSegments() EXCLUDES(write_mu_);

  /// The session's worker pool of exactly `threads` lanes, created on
  /// first request and reused across queries so repeated parallel Runs
  /// don't pay thread spawn latency. Pools live as long as the session:
  /// a caller may hold the pointer (the query service's scheduler does,
  /// for its whole lifetime) while other callers ask for other sizes.
  exec::WorkerPool* EnsurePool(size_t threads) EXCLUDES(pool_mu_);

  /// The one code path that builds and drains a read plan: Submit's
  /// lone reads and batch members, and the query service's generation
  /// members, all come through here. With run.threads > 1 the
  /// morsel-parallel driver runs when the plan has a driving scan;
  /// otherwise the bytecode VM runs when TryCompileVm picks it under
  /// run.vm; otherwise the operator tree drains, over shared leaves
  /// when ctx.shared_scans is set. `ctx` carries the query's snapshot
  /// epoch, cancel token, deadline and segment store; a query already
  /// cancelled or expired never opens, so it never attaches to a
  /// shared scan. `result` receives result_ref's value set and
  /// stats->drain_ms this call's wall time. `explain` (optional)
  /// receives the EXPLAIN text of the tree that ran; null renders none.
  Status DrainRead(const algebra::LogicalRef& plan,
                   const std::string& result_ref,
                   const exec::ExecContext& ctx, const RunOptions& run,
                   Value* result, QueryStats* stats,
                   std::string* explain = nullptr);

  /// The next shared-scan generation id; Submit takes one per executed
  /// batch and the query service takes one per generation it forms.
  uint64_t NextGenerationId() {
    return next_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  Result<vql::BoundQuery> Parse(const std::string& vql) const;
  /// The planning half of Submit (parse / bind / optimize): fills
  /// everything in QueryResult except the executed result and its
  /// timing.
  Result<QueryResult> PlanQuery(const std::string& vql,
                                const PlanOptions& options,
                                vql::BoundQuery* bound_out);
  /// The write half of Submit: parses/binds a VQL write statement (or
  /// takes the programmatic Mutation batch verbatim), expands
  /// UPDATE/DELETE predicates into per-object mutations, and commits
  /// the whole request atomically under one epoch bump. Serialized
  /// under write_mu_ so the expansion scan and the Apply are one
  /// indivisible writer step.
  Status ExecuteWrite(const QueryRequest& request, QueryResult* result,
                      QueryStats* stats) EXCLUDES(write_mu_);
  /// Expands a bound write statement into the store's mutation batch:
  /// INSERT evaluates its closed SET expressions once; UPDATE/DELETE
  /// scan the class extent at the current epoch and evaluate the
  /// predicate (and UPDATE's SET expressions) per candidate under
  /// `self`. Caller holds write_mu_.
  Result<std::vector<Mutation>> BuildMutations(
      const vql::BoundWrite& write) const REQUIRES(write_mu_);
  const Catalog* catalog_;
  ObjectStore* store_;
  MethodRegistry* methods_;
  storage::SegmentStore* segments_ = nullptr;
  /// Serializes write requests across Submit calls: the predicate
  /// expansion scan in BuildMutations and the subsequent Apply must see
  /// no interleaved writer, or an UPDATE could target objects a
  /// concurrent DELETE already removed. Guards a critical section, not
  /// data — the store's own data_mu_ protects the objects.
  Mutex write_mu_;  // lint: no-guarded-fields(serializes build+apply, guards no data)
  semantics::KnowledgeBase knowledge_;
  std::vector<opt::MethodStatsProvider> providers_;
  semantics::GeneratedOptimizer module_;
  opt::OptimizerOptions options_;
  /// Bumped (release) after every module swap in GenerateOptimizer.
  std::atomic<uint64_t> optimizer_generation_{0};
  /// One pool per lane count, never destroyed before the session.
  Mutex pool_mu_;
  std::map<size_t, std::unique_ptr<exec::WorkerPool>> pools_
      GUARDED_BY(pool_mu_);
  /// Generation ids handed out to Submit batches and the query
  /// service's scheduler; monotone across the session so per-query
  /// stats from either path never collide. Relaxed: an id only needs
  /// uniqueness, it orders nothing.
  std::atomic<uint64_t> next_generation_{0};
};

}  // namespace engine
}  // namespace vodak

#endif  // VODAK_ENGINE_DATABASE_H_
