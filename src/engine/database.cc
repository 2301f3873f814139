#include "engine/database.h"

#include <algorithm>
#include <chrono>

#include "algebra/translate.h"
#include "vql/parser.h"

namespace vodak {
namespace engine {

namespace {
double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

Database::Database(const Catalog* catalog, ObjectStore* store,
                   MethodRegistry* methods)
    : catalog_(catalog),
      store_(store),
      methods_(methods),
      knowledge_(catalog) {}

void Database::AddStatsProvider(opt::MethodStatsProvider provider) {
  providers_.push_back(std::move(provider));
}

Status Database::GenerateOptimizer(opt::OptimizerOptions options) {
  options_ = options;
  semantics::OptimizerGenerator generator(catalog_, store_, methods_);
  Result<semantics::GeneratedOptimizer> generated =
      generator.Generate(&knowledge_, providers_, options);
  if (generated.ok()) module_ = std::move(generated).value();
  // Even a failed generation changed options_, which planning reads.
  optimizer_generation_.fetch_add(1, std::memory_order_release);
  return generated.status();
}

Result<vql::BoundQuery> Database::Parse(const std::string& vql) const {
  VODAK_ASSIGN_OR_RETURN(vql::Query query, vql::ParseQuery(vql));
  vql::Binder binder(catalog_);
  return binder.Bind(query);
}

Result<QueryResult> Database::PlanQuery(const std::string& vql,
                                        const PlanOptions& options,
                                        vql::BoundQuery* bound_out) {
  VODAK_ASSIGN_OR_RETURN(vql::BoundQuery bound, Parse(vql));

  // A throwaway algebra context suffices when no optimizer was
  // generated.
  algebra::AlgebraContext local_ctx(catalog_);
  const algebra::AlgebraContext& ctx =
      module_.algebra != nullptr ? *module_.algebra : local_ctx;

  QueryResult out;
  VODAK_ASSIGN_OR_RETURN(out.original_plan, algebra::TranslateQuery(ctx, bound));
  out.chosen_plan = out.original_plan;

  if (options.optimize) {
    if (module_.optimizer == nullptr) {
      return Status::InvalidArgument(
          "no optimizer generated; call GenerateOptimizer() first");
    }
    opt::OptimizerOptions run_options = options_;
    run_options.enable_trace = options.trace;
    opt::Optimizer tracer(module_.algebra.get(), module_.cost.get(),
                          module_.optimizer->rules(), run_options);
    auto start = std::chrono::steady_clock::now();
    VODAK_ASSIGN_OR_RETURN(opt::OptimizeResult opt_result,
                           tracer.Optimize(out.original_plan));
    out.optimize_ms = MsSince(start);
    out.chosen_plan = opt_result.best_plan;
    out.chosen_cost = opt_result.best_cost;
    out.original_cost = opt_result.original_cost;
    out.memo_groups = opt_result.group_count;
    out.memo_exprs = opt_result.expr_count;
    out.rule_applications = opt_result.rule_applications;
    out.trace = std::move(opt_result.trace);
  }

  if (bound_out != nullptr) *bound_out = std::move(bound);
  return out;
}

Result<PreparedQuery> Database::Prepare(const std::string& vql,
                                        const PlanOptions& options) {
  vql::BoundQuery bound;
  PreparedQuery prepared;
  VODAK_ASSIGN_OR_RETURN(prepared.planned,
                         PlanQuery(vql, options, &bound));
  prepared.result_ref = algebra::ResultRef(bound);
  return prepared;
}

Status Database::DrainRead(const algebra::LogicalRef& plan,
                           const std::string& result_ref,
                           const exec::ExecContext& ctx, Value* result,
                           QueryStats* stats, std::string* explain) {
  const auto start = std::chrono::steady_clock::now();
  const Status status = [&]() -> Status {
    // A query cancelled or expired while it waited for a lane never
    // opens; its siblings drain on unaffected.
    VODAK_RETURN_IF_ERROR(exec::CheckQueryAlive(ctx.cancel, ctx.deadline));
    VODAK_ASSIGN_OR_RETURN(exec::PhysOpPtr root,
                           exec::BuildPhysical(plan, ctx));
    if (explain != nullptr) *explain = exec::ExplainPhysical(*root);
    VODAK_ASSIGN_OR_RETURN(*result,
                           exec::ExecuteColumn(root.get(), result_ref));
    return Status::OK();
  }();
  stats->drain_ms = MsSince(start);
  return status;
}

Result<std::vector<Mutation>> Database::BuildMutations(
    const vql::BoundWrite& write) const {
  const ExprEvaluator evaluator(catalog_, store_, methods_);
  std::vector<Mutation> mutations;
  if (write.kind == vql::WriteStatement::Kind::kInsert) {
    std::vector<std::pair<uint32_t, Value>> sets;
    sets.reserve(write.sets.size());
    for (const auto& [slot, expr] : write.sets) {
      VODAK_ASSIGN_OR_RETURN(Value v, evaluator.Eval(expr, {}));
      sets.emplace_back(slot, std::move(v));
    }
    mutations.push_back(Mutation::Insert(write.class_id, std::move(sets)));
    return mutations;
  }
  // UPDATE / DELETE: expand the predicate over the current extent. The
  // caller holds write_mu_, so no other writer can move the extent
  // between this scan and the Apply.
  VODAK_ASSIGN_OR_RETURN(std::vector<Oid> extent,
                         store_->Extent(write.class_id));
  for (Oid oid : extent) {
    Env env;
    env["self"] = Value::OfOid(oid);
    if (write.where != nullptr) {
      VODAK_ASSIGN_OR_RETURN(bool keep,
                             evaluator.EvalPredicate(write.where, env));
      if (!keep) continue;
    }
    if (write.kind == vql::WriteStatement::Kind::kDelete) {
      mutations.push_back(Mutation::Delete(oid));
      continue;
    }
    std::vector<std::pair<uint32_t, Value>> sets;
    sets.reserve(write.sets.size());
    for (const auto& [slot, expr] : write.sets) {
      VODAK_ASSIGN_OR_RETURN(Value v, evaluator.Eval(expr, env));
      sets.emplace_back(slot, std::move(v));
    }
    mutations.push_back(Mutation::Update(oid, std::move(sets)));
  }
  return mutations;
}

Status Database::ExecuteWrite(const QueryRequest& request,
                              QueryResult* result, QueryStats* stats) {
  auto plan_start = std::chrono::steady_clock::now();
  UniqueLock lock(write_mu_);
  std::vector<Mutation> mutations;
  bool vql_insert = false;
  if (!request.mutations.empty()) {
    mutations = request.mutations;
  } else {
    VODAK_ASSIGN_OR_RETURN(vql::WriteStatement stmt,
                           vql::ParseWrite(request.vql));
    vql::Binder binder(catalog_);
    VODAK_ASSIGN_OR_RETURN(vql::BoundWrite write, binder.BindWrite(stmt));
    vql_insert = write.kind == vql::WriteStatement::Kind::kInsert;
    VODAK_ASSIGN_OR_RETURN(mutations, BuildMutations(write));
  }
  stats->plan_ms = MsSince(plan_start);

  auto apply_start = std::chrono::steady_clock::now();
  if (segments_ != nullptr) {
    // Segment data is about to predate this commit: drop the touched
    // classes' versions before Apply publishes the commit epoch, so no
    // reader pinned at or above it can resolve one. A reader that
    // already holds a version pinned below the commit and keeps
    // reading it; one that resolves after the drop reads the in-memory
    // extent until the class is re-ingested.
    for (const Mutation& m : mutations) {
      segments_->DropVersion(m.kind == Mutation::Kind::kInsert
                                 ? m.class_id
                                 : m.oid.class_id);
    }
  }
  VODAK_ASSIGN_OR_RETURN(MutationResult applied, store_->Apply(mutations));
  stats->drain_ms = MsSince(apply_start);
  result->execute_ms = stats->drain_ms;
  // A write's "snapshot" is the epoch its batch committed as — the
  // first epoch at which its effects are visible.
  result->snapshot_epoch = applied.epoch;
  stats->snapshot_epoch = applied.epoch;

  // Result shape: creations yield the created oids (a set, like a
  // read); pure update/delete batches yield the affected-object count.
  if (!applied.created.empty() || vql_insert) {
    std::vector<Value> oids;
    oids.reserve(applied.created.size());
    for (Oid oid : applied.created) oids.push_back(Value::OfOid(oid));
    result->result = Value::Set(std::move(oids));
  } else {
    result->result =
        Value::Int(static_cast<int64_t>(applied.updated + applied.deleted));
  }
  return Status::OK();
}

Status Database::RefreshSegments() {
  if (segments_ == nullptr) return Status::OK();
  // Commits wait until every class is ingested: one that landed after
  // `at` would be missing from a version served at its epoch.
  MutexLock lock(write_mu_);
  const Epoch at = store_->CurrentEpoch();
  for (const auto& cls : catalog_->classes()) {
    uint32_t slot_count = 0;
    for (const PropertyDef& prop : cls->properties()) {
      slot_count = std::max(slot_count, prop.slot + 1);
    }
    VODAK_RETURN_IF_ERROR(
        segments_->IngestClass(*store_, cls->class_id(), slot_count, at));
  }
  return Status::OK();
}

std::vector<QueryOutcome> Database::Submit(
    const std::vector<QueryRequest>& requests,
    const SubmitOptions& options) {
  std::vector<QueryOutcome> out(requests.size());
  // Plan serially (the optimizer module is not built for concurrent
  // Optimize calls); the drains below overlap. A request that is
  // already cancelled or expired is rejected here, before planning.
  // Write requests commit right here, in request order, during this
  // admission pass — so the snapshot the batch's readers pin below
  // already contains every write the batch carried.
  std::vector<size_t> runnable;
  std::vector<std::string> result_refs;  // parallel to runnable
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& request = requests[i];
    QueryOutcome& o = out[i];
    o.status = exec::CheckQueryAlive(request.cancel, request.deadline);
    if (!o.status.ok()) continue;
    if (!request.mutations.empty() || vql::IsWriteStatement(request.vql)) {
      o.status = ExecuteWrite(request, &o.result, &o.stats);
      continue;
    }
    auto plan_start = std::chrono::steady_clock::now();
    vql::BoundQuery bound;
    Result<QueryResult> planned = PlanQuery(request.vql, request.plan,
                                            &bound);
    o.stats.plan_ms = MsSince(plan_start);
    if (!planned.ok()) {
      o.status = planned.status();
      continue;
    }
    o.result = std::move(planned).value();
    runnable.push_back(i);
    result_refs.push_back(algebra::ResultRef(bound));
  }
  if (runnable.empty()) return out;

  // Pin the batch's read snapshot: one epoch for every reader, taken
  // after the batch's writes committed. Versions visible at this epoch
  // survive reclaim until the pin drops at the end of the drain.
  EpochPin pin(store_);
  exec::ExecContext ctx;
  ctx.catalog = catalog_;
  ctx.store = store_;
  ctx.methods = methods_;
  ctx.snapshot_epoch = pin.epoch();
  ctx.segments = segments_;
  const uint64_t generation = NextGenerationId();
  auto drain = [&](size_t k) {
    QueryOutcome& o = out[runnable[k]];
    const QueryRequest& request = requests[runnable[k]];
    o.stats.snapshot_epoch = pin.epoch();
    o.result.snapshot_epoch = pin.epoch();
    o.stats.generation_id = generation;
    exec::ExecContext member_ctx = ctx;
    member_ctx.cancel = request.cancel;
    member_ctx.deadline = request.deadline;
    o.status = DrainRead(o.result.chosen_plan, result_refs[k], member_ctx,
                         &o.result.result, &o.stats,
                         &o.result.physical_explain);
    // The honest per-query number: this drain, not the batch's.
    o.result.execute_ms = o.stats.drain_ms;
  };

  if (runnable.size() == 1) {
    // A lone query drains on the calling thread.
    drain(0);
    return out;
  }

  const size_t lanes =
      std::min(exec::ResolveThreads(options.lanes), runnable.size());
  const auto submitted = std::chrono::steady_clock::now();
  // One task per member, each over its own private scan leaves;
  // members beyond the lane count queue and run as lanes free up.
  EnsurePool(lanes)->ParallelRun(runnable.size(), [&](size_t k) {
    out[runnable[k]].stats.queue_ms = MsSince(submitted);
    drain(k);
  });
  return out;
}

Result<QueryResult> Database::Run(const std::string& vql,
                                  const PlanOptions& plan) {
  QueryRequest request;
  request.vql = vql;
  request.plan = plan;
  std::vector<QueryOutcome> outcomes = Submit({request});
  VODAK_RETURN_IF_ERROR(outcomes[0].status);
  return std::move(outcomes[0].result);
}

exec::WorkerPool* Database::EnsurePool(size_t threads) {
  threads = exec::ResolveThreads(threads);
  MutexLock lock(pool_mu_);
  std::unique_ptr<exec::WorkerPool>& pool = pools_[threads];
  if (pool == nullptr) pool = std::make_unique<exec::WorkerPool>(threads);
  return pool.get();
}

Result<Value> Database::RunNaive(
    const std::string& vql,
    const vql::Interpreter::Options& options) const {
  VODAK_ASSIGN_OR_RETURN(vql::BoundQuery bound, Parse(vql));
  vql::Interpreter interpreter(catalog_, store_, methods_);
  return interpreter.Run(bound, options);
}

Result<std::string> Database::Explain(const std::string& vql,
                                      const PlanOptions& plan) {
  VODAK_ASSIGN_OR_RETURN(QueryResult result, Run(vql, plan));
  std::string out;
  out += "== VQL ==\n" + vql + "\n";
  out += "== algebra (translated, cost " +
         std::to_string(result.original_cost) + ") ==\n";
  out += result.original_plan->ToTreeString();
  out += "== algebra (optimized, cost " +
         std::to_string(result.chosen_cost) + ") ==\n";
  out += result.chosen_plan->ToTreeString();
  out += "== physical plan ==\n" + result.physical_explain;
  if (!result.trace.empty()) {
    out += "== rule applications (" +
           std::to_string(result.trace.size()) + ") ==\n";
    for (const auto& entry : result.trace) {
      out += "  [" + entry.rule + "]\n    " + entry.before + "\n    => " +
             entry.after + "\n";
    }
  }
  return out;
}

}  // namespace engine
}  // namespace vodak
