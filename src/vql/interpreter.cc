#include "vql/interpreter.h"

namespace vodak {
namespace vql {

Status Interpreter::Flush(const BoundQuery& query, const Options& options,
                          Pending* pending,
                          std::vector<Value>* out) const {
  exec::RowBatch& batch = pending->batch;
  if (batch.empty()) return Status::OK();
  // Re-aim the const evaluator at the query's pinned snapshot (a free
  // pointer copy): every property/method read below resolves there.
  const ExprEvaluator ev = evaluator_.WithSnapshot(options.snapshot_epoch);
  if (options.row_mode) {
    // Independent-oracle path: per-row Eval/EvalPredicate only, no
    // shared code with the batched evaluators the executor uses.
    Env env;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      env.clear();
      for (size_t i = 0; i < pending->names.size(); ++i) {
        env[pending->names[i]] = batch.column(i)[r];
      }
      if (query.where != nullptr) {
        VODAK_ASSIGN_OR_RETURN(bool keep,
                               ev.EvalPredicate(query.where, env));
        if (!keep) continue;
      }
      VODAK_ASSIGN_OR_RETURN(Value v, ev.Eval(query.access, env));
      out->push_back(std::move(v));
    }
    batch.Reset(pending->names.size());
    return Status::OK();
  }
  BatchEnv env{&pending->names, &batch.columns(), batch.num_rows()};
  if (query.where != nullptr) {
    std::vector<char> keep;
    VODAK_RETURN_IF_ERROR(
        ev.EvalPredicateBatch(query.where, env, &keep));
    // Mark the survivors in the batch's selection vector instead of
    // compacting; the ACCESS expression below evaluates only the
    // selected rows through the selection view. An all-rejected batch
    // is dropped here — an empty selection has no data() to view.
    if (batch.IntersectSelection(keep) == 0) {
      batch.Reset(pending->names.size());
      return Status::OK();
    }
    batch.ExportSelectionTo(&env);
  }
  if (env.active_rows() > 0) {
    VODAK_ASSIGN_OR_RETURN(ValueColumn values,
                           ev.EvalBatch(query.access, env));
    for (Value& v : values) out->push_back(std::move(v));
  }
  batch.Reset(pending->names.size());
  return Status::OK();
}

Status Interpreter::RunRanges(const BoundQuery& query,
                              const Options& options, size_t index,
                              Env* env, Pending* pending,
                              std::vector<Value>* out) const {
  if (index == query.from.size()) {
    exec::RowBatch& batch = pending->batch;
    for (size_t i = 0; i < pending->names.size(); ++i) {
      batch.column(i).push_back(env->at(pending->names[i]));
    }
    batch.set_num_rows(batch.num_rows() + 1);
    if (batch.num_rows() >= exec::kDefaultBatchSize) {
      return Flush(query, options, pending, out);
    }
    return Status::OK();
  }

  const BoundRange& range = query.from[index];
  if (range.kind == RangeKind::kExtent) {
    const ClassDef* cls = evaluator_.catalog()->FindClass(range.class_name);
    if (cls == nullptr) {
      return Status::BindError("unknown class '" + range.class_name + "'");
    }
    VODAK_ASSIGN_OR_RETURN(
        std::vector<Oid> extent,
        evaluator_.store()->Extent(cls->class_id(), options.snapshot_epoch));
    for (Oid oid : extent) {
      (*env)[range.var] = Value::OfOid(oid);
      VODAK_RETURN_IF_ERROR(
          RunRanges(query, options, index + 1, env, pending, out));
    }
    env->erase(range.var);
    return Status::OK();
  }

  auto domain =
      evaluator_.WithSnapshot(options.snapshot_epoch).Eval(range.domain, *env);
  if (!domain.ok()) return domain.status();
  if (domain.value().is_null()) return Status::OK();
  if (!domain.value().is_set()) {
    return Status::ExecError("range domain of '" + range.var +
                             "' evaluated to non-set " +
                             domain.value().ToString());
  }
  for (const Value& member : domain.value().AsSet()) {
    (*env)[range.var] = member;
    VODAK_RETURN_IF_ERROR(
        RunRanges(query, options, index + 1, env, pending, out));
  }
  env->erase(range.var);
  return Status::OK();
}

Status Interpreter::RunFrom(const BoundQuery& query, const Options& options,
                            size_t first_range, Env env,
                            std::vector<Value>* out) const {
  Pending pending;
  pending.names.reserve(query.from.size());
  for (const BoundRange& range : query.from) {
    pending.names.push_back(range.var);
  }
  pending.batch.Reset(pending.names.size());
  VODAK_RETURN_IF_ERROR(
      RunRanges(query, options, first_range, &env, &pending, out));
  return Flush(query, options, &pending, out);
}

Status Interpreter::RunParallel(const BoundQuery& query,
                                const Options& options,
                                const std::vector<Oid>& extent,
                                size_t threads,
                                std::vector<Value>* out) const {
  // Morselize the outermost extent with the same load-balanced sizing
  // as the physical parallel driver.
  exec::MorselSource morsels;
  morsels.Reset(extent.size(),
                exec::BalancedMorselSize(extent.size(), threads,
                                         options.morsel_size));

  const std::string& outer_var = query.from[0].var;
  std::vector<std::vector<Value>> worker_out(threads);
  std::vector<Status> worker_status(threads, Status::OK());
  auto task = [&](size_t w) {
    worker_status[w] = [&]() -> Status {
      // Worker-local buffering: one Pending across all claimed morsels
      // keeps the batches full; inner ranges stay nested per worker.
      Pending pending;
      pending.names.reserve(query.from.size());
      for (const BoundRange& range : query.from) {
        pending.names.push_back(range.var);
      }
      pending.batch.Reset(pending.names.size());
      Env env;
      exec::Morsel morsel;
      while (morsels.Next(&morsel)) {
        for (size_t i = morsel.begin; i < morsel.end; ++i) {
          env[outer_var] = Value::OfOid(extent[i]);
          VODAK_RETURN_IF_ERROR(RunRanges(query, options, 1, &env,
                                          &pending, &worker_out[w]));
        }
      }
      return Flush(query, options, &pending, &worker_out[w]);
    }();
  };
  if (options.pool != nullptr) {
    options.pool->ParallelRun(threads, task);
  } else {
    exec::WorkerPool ephemeral(threads);
    ephemeral.ParallelRun(threads, task);
  }
  for (const Status& status : worker_status) {
    VODAK_RETURN_IF_ERROR(status);
  }
  for (std::vector<Value>& rows : worker_out) {
    for (Value& v : rows) out->push_back(std::move(v));
  }
  return Status::OK();
}

Result<Value> Interpreter::Run(const BoundQuery& query,
                               const Options& options) const {
  std::vector<Value> results;
  const size_t threads = exec::ResolveThreads(options.threads);
  if (threads > 1 && !query.from.empty() &&
      query.from[0].kind == RangeKind::kExtent) {
    const BoundRange& outer = query.from[0];
    const ClassDef* cls = evaluator_.catalog()->FindClass(outer.class_name);
    if (cls == nullptr) {
      return Status::BindError("unknown class '" + outer.class_name + "'");
    }
    VODAK_ASSIGN_OR_RETURN(
        std::vector<Oid> extent,
        evaluator_.store()->Extent(cls->class_id(), options.snapshot_epoch));
    VODAK_RETURN_IF_ERROR(
        RunParallel(query, options, extent, threads, &results));
  } else {
    VODAK_RETURN_IF_ERROR(RunFrom(query, options, 0, Env(), &results));
  }
  return Value::Set(std::move(results));
}

}  // namespace vql
}  // namespace vodak
