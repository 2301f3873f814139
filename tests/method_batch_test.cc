// Set-at-a-time method dispatch (docs/ARCHITECTURE.md, "The batch
// method ABI"): batch-vs-scalar parity for every workload method, the
// once-per-batch external-probe amortization the ABI exists for, and
// the mask semantics — rows a row-at-a-time evaluation would have
// short-circuited past must never reach a method body — and that the
// oracles never take the batch path at all.
#include <gtest/gtest.h>

#include <atomic>

#include "algebra/eval.h"
#include "engine/database.h"
#include "exec/physical.h"
#include "expr/expr_eval.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace {

class MethodBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 12;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = MethodCallContext{&db_.catalog(), &db_.store(), &db_.methods(),
                             0};
    for (Oid par : db_.store().Extent(db_.paragraph_class_id()).value()) {
      paragraphs_.push_back(Value::OfOid(par));
    }
  }

  ExprEvaluator MakeEvaluator() {
    return ExprEvaluator(&db_.catalog(), &db_.store(), &db_.methods());
  }

  /// A column of paragraph receivers with NULLs interleaved every
  /// `null_stride`-th row (0 = no NULLs).
  ValueColumn ReceiverColumn(size_t null_stride) const {
    ValueColumn col;
    for (size_t i = 0; i < paragraphs_.size(); ++i) {
      if (null_stride != 0 && i % null_stride == 0) {
        col.push_back(Value::Null());
      } else {
        col.push_back(paragraphs_[i]);
      }
    }
    return col;
  }

  workload::DocumentDb db_;
  MethodCallContext ctx_;
  ValueColumn paragraphs_;
};

TEST_F(MethodBatchTest, InstanceBatchMatchesScalarIncludingNulls) {
  const std::string kWord = workload::DocumentDb::kSearchWord;
  struct Case {
    std::string method;
    std::vector<Value> args;  // same arguments for every row
  };
  const std::vector<Case> cases = {
      {"document", {}},
      {"wordCount", {}},
      {"contains_string", {Value::String(kWord)}},
      {"sameDocument", {paragraphs_.back()}},
  };
  for (const Case& c : cases) {
    ValueColumn selves = ReceiverColumn(/*null_stride=*/3);
    std::vector<ValueColumn> args;
    for (const Value& arg : c.args) {
      args.emplace_back(selves.size(), arg);
    }
    ValueColumn batch_out;
    ASSERT_TRUE(db_.methods()
                    .InvokeInstanceBatch(ctx_, selves, c.method, args,
                                         &batch_out)
                    .ok())
        << c.method;
    ASSERT_EQ(batch_out.size(), selves.size()) << c.method;
    for (size_t i = 0; i < selves.size(); ++i) {
      if (selves[i].is_null()) {
        EXPECT_TRUE(batch_out[i].is_null()) << c.method << " row " << i;
        continue;
      }
      auto scalar = db_.methods().InvokeInstance(
          ctx_, selves[i].AsOid(), c.method, c.args);
      ASSERT_TRUE(scalar.ok()) << c.method;
      EXPECT_EQ(batch_out[i], scalar.value()) << c.method << " row " << i;
    }
  }
}

TEST_F(MethodBatchTest, EmptyBatchesAreNoOps) {
  ValueColumn out;
  EXPECT_TRUE(db_.methods()
                  .InvokeInstanceBatch(ctx_, {}, "wordCount", {}, &out)
                  .ok());
  EXPECT_TRUE(out.empty());
  db_.ResetCounters();
  EXPECT_TRUE(db_.methods()
                  .InvokeClassBatch(ctx_, "Paragraph",
                                    "retrieve_by_string", 0,
                                    {ValueColumn{}}, &out)
                  .ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(db_.paragraph_index().search_count(), 0u)
      << "an empty batch must not probe the index";

  // Batched evaluation over a zero-row environment.
  ExprEvaluator eval = MakeEvaluator();
  std::vector<std::string> names = {"p"};
  std::vector<ValueColumn> cols = {{}};
  auto col = eval.EvalBatch(
      Expr::MethodCall(Expr::Var("p"), "wordCount", {}),
      BatchEnv{&names, &cols, 0});
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(col.value().empty());
}

TEST_F(MethodBatchTest, ExternalMethodsProbeOncePerBatch) {
  // The acceptance bar of the set-at-a-time ABI: a WHERE-clause method
  // call with a constant argument costs one external index probe per
  // batch, not one per row.
  ExprEvaluator eval = MakeEvaluator();
  std::vector<std::string> names = {"p"};
  std::vector<ValueColumn> cols = {paragraphs_};
  BatchEnv env{&names, &cols, paragraphs_.size()};
  ASSERT_GT(paragraphs_.size(), 1u);

  db_.ResetCounters();
  ExprRef retrieve = Expr::ClassMethodCall(
      "Paragraph", "retrieve_by_string",
      {Expr::Const(Value::String(workload::DocumentDb::kSearchWord))});
  auto col = eval.EvalBatch(retrieve, env);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  ASSERT_EQ(col.value().size(), paragraphs_.size());
  EXPECT_EQ(db_.paragraph_index().search_count(), 1u)
      << "one IR probe for the whole batch";
  EXPECT_EQ(db_.methods().invocation_count("Paragraph",
                                           "retrieve_by_string",
                                           MethodLevel::kClassObject),
            1u);
  EXPECT_EQ(db_.methods().batch_invocation_count(
                "Paragraph", "retrieve_by_string",
                MethodLevel::kClassObject),
            1u);
  EXPECT_EQ(db_.methods().batch_row_count("Paragraph",
                                          "retrieve_by_string",
                                          MethodLevel::kClassObject),
            paragraphs_.size());
  // Every row got the same (correct) result set.
  auto scalar = db_.methods().InvokeClass(
      ctx_, "Paragraph", "retrieve_by_string",
      {Value::String(workload::DocumentDb::kSearchWord)});
  ASSERT_TRUE(scalar.ok());
  for (const Value& v : col.value()) EXPECT_EQ(v, scalar.value());

  db_.ResetCounters();
  ExprRef select = Expr::ClassMethodCall(
      "Document", "select_by_index",
      {Expr::Const(Value::String(workload::DocumentDb::kSpecialTitle))});
  auto titles = eval.EvalBatch(select, env);
  ASSERT_TRUE(titles.ok());
  EXPECT_EQ(db_.title_index().lookup_count(), 1u)
      << "one title-index probe for the whole batch";

  // Distinct arguments still probe once per *distinct* value.
  db_.ResetCounters();
  ValueColumn words;
  for (size_t i = 0; i < paragraphs_.size(); ++i) {
    words.push_back(Value::String(i % 2 == 0 ? "term0001" : "term0002"));
  }
  ValueColumn out;
  ASSERT_TRUE(db_.methods()
                  .InvokeClassBatch(ctx_, "Paragraph",
                                    "retrieve_by_string", words.size(),
                                    {words}, &out)
                  .ok());
  EXPECT_EQ(db_.paragraph_index().search_count(), 2u);
}

TEST_F(MethodBatchTest, InstanceExternalMethodDispatchesOncePerBatch) {
  // contains_string is batch-native: a whole receiver batch is one
  // dispatch (one body), with the store's content column read once.
  db_.ResetCounters();
  ValueColumn selves = paragraphs_;
  std::vector<ValueColumn> args = {
      ValueColumn(selves.size(),
                  Value::String(workload::DocumentDb::kSearchWord))};
  ValueColumn out;
  ASSERT_TRUE(db_.methods()
                  .InvokeInstanceBatch(ctx_, selves, "contains_string",
                                       args, &out)
                  .ok());
  EXPECT_EQ(db_.methods().invocation_count("Paragraph", "contains_string",
                                           MethodLevel::kInstance),
            1u)
      << "one set-at-a-time dispatch for " << selves.size() << " rows";
  EXPECT_EQ(db_.methods().batch_row_count("Paragraph", "contains_string",
                                          MethodLevel::kInstance),
            selves.size());
}

TEST_F(MethodBatchTest, ScalarFallbackInvokesPerRowOnly) {
  // sameDocument has no native_batch: the fallback row loop dispatches
  // exactly once per (non-NULL) row — no batch counters move.
  db_.ResetCounters();
  ValueColumn selves = ReceiverColumn(/*null_stride=*/4);
  size_t non_null = 0;
  for (const Value& v : selves) non_null += v.is_null() ? 0 : 1;
  std::vector<ValueColumn> args = {
      ValueColumn(selves.size(), paragraphs_.front())};
  ValueColumn out;
  ASSERT_TRUE(db_.methods()
                  .InvokeInstanceBatch(ctx_, selves, "sameDocument", args,
                                       &out)
                  .ok());
  EXPECT_EQ(db_.methods().invocation_count("Paragraph", "sameDocument",
                                           MethodLevel::kInstance),
            non_null);
  EXPECT_EQ(db_.methods().batch_invocation_count(
                "Paragraph", "sameDocument", MethodLevel::kInstance),
            0u);
}

TEST_F(MethodBatchTest, MaskedRowsNeverReachTheMethod) {
  // The mask/short-circuit contract: in `cheap AND m(p)` (and the OR
  // dual), m must be invoked exactly for the rows whose left operand
  // leaves the connective undecided — the same rows a row-at-a-time
  // short-circuit evaluation would invoke it for.
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kNative;
    impl.native = [counter](MethodCallContext&, const Value&,
                            const std::vector<Value>&) -> Result<Value> {
      counter->fetch_add(1);
      return Value::Bool(true);
    };
    ASSERT_TRUE(db_.methods()
                    .Register("Paragraph",
                              {"tripwire", {}, Type::Bool(),
                               MethodLevel::kInstance},
                              std::move(impl))
                    .ok());
  }
  ExprEvaluator eval = MakeEvaluator();
  ExprRef first_in_section = Expr::Binary(
      BinOp::kEq, Expr::Property(Expr::Var("p"), "number"),
      Expr::Const(Value::Int(0)));
  for (BinOp op : {BinOp::kAnd, BinOp::kOr}) {
    ExprRef cond = Expr::Binary(
        op, first_in_section,
        Expr::MethodCall(Expr::Var("p"), "tripwire", {}));
    // Row-at-a-time oracle: short-circuit Eval per row.
    counter->store(0);
    std::vector<bool> expected;
    for (const Value& p : paragraphs_) {
      auto keep = eval.EvalPredicate(cond, {{"p", p}});
      ASSERT_TRUE(keep.ok());
      expected.push_back(keep.value());
    }
    const uint64_t row_mode_calls = counter->load();
    ASSERT_GT(row_mode_calls, 0u);
    ASSERT_LT(row_mode_calls, paragraphs_.size())
        << "corpus must mask some rows for the test to bite";

    counter->store(0);
    std::vector<std::string> names = {"p"};
    std::vector<ValueColumn> cols = {paragraphs_};
    std::vector<char> keep;
    ASSERT_TRUE(eval.EvalPredicateBatch(
                        cond, BatchEnv{&names, &cols, paragraphs_.size()},
                        &keep)
                    .ok());
    EXPECT_EQ(counter->load(), row_mode_calls)
        << BinOpName(op) << ": masked rows must not invoke the method";
    for (size_t i = 0; i < paragraphs_.size(); ++i) {
      EXPECT_EQ(static_cast<bool>(keep[i]), expected[i]) << "row " << i;
    }
  }
}

TEST_F(MethodBatchTest, EvaluatorBatchMatchesRowModeOnMethodExprs) {
  // Evaluator-level parity: EvalBatch over a mixed receiver column
  // (objects + NULLs) must equal row-at-a-time Eval for every method
  // expression shape, including arguments that vary per row.
  ExprEvaluator eval = MakeEvaluator();
  ValueColumn p_col = ReceiverColumn(/*null_stride=*/5);
  ValueColumn q_col;
  for (size_t i = 0; i < p_col.size(); ++i) {
    q_col.push_back(paragraphs_[(i * 7 + 3) % paragraphs_.size()]);
  }
  const std::vector<ExprRef> exprs = {
      Expr::MethodCall(Expr::Var("p"), "document", {}),
      Expr::MethodCall(Expr::Var("p"), "wordCount", {}),
      Expr::MethodCall(
          Expr::Var("p"), "contains_string",
          {Expr::Const(Value::String(workload::DocumentDb::kSearchWord))}),
      Expr::MethodCall(Expr::Var("p"), "sameDocument", {Expr::Var("q")}),
      // Method on a method result: document() then paragraphs().
      Expr::MethodCall(Expr::MethodCall(Expr::Var("p"), "document", {}),
                       "paragraphs", {}),
  };
  std::vector<std::string> names = {"p", "q"};
  std::vector<ValueColumn> cols = {p_col, q_col};
  BatchEnv env{&names, &cols, p_col.size()};
  for (const ExprRef& e : exprs) {
    auto batch = eval.EvalBatch(e, env);
    ASSERT_TRUE(batch.ok()) << e->ToString() << ": "
                            << batch.status().ToString();
    ASSERT_EQ(batch.value().size(), p_col.size());
    for (size_t i = 0; i < p_col.size(); ++i) {
      auto row = eval.Eval(e, {{"p", p_col[i]}, {"q", q_col[i]}});
      ASSERT_TRUE(row.ok()) << e->ToString();
      EXPECT_EQ(batch.value()[i], row.value())
          << e->ToString() << " row " << i;
    }
  }
}

TEST_F(MethodBatchTest, BatchErrorsWhenScalarErrors) {
  // A bad argument row fails the batch exactly as it fails row mode.
  ExprEvaluator eval = MakeEvaluator();
  ExprRef bad = Expr::MethodCall(Expr::Var("p"), "contains_string",
                                 {Expr::Const(Value::Int(7))});
  std::vector<std::string> names = {"p"};
  std::vector<ValueColumn> cols = {paragraphs_};
  EXPECT_FALSE(
      eval.EvalBatch(bad, BatchEnv{&names, &cols, paragraphs_.size()})
          .ok());
  EXPECT_FALSE(eval.Eval(bad, {{"p", paragraphs_.front()}}).ok());
}

TEST_F(MethodBatchTest, OraclesNeverDispatchBatchBodies) {
  // Oracle independence (docs/ARCHITECTURE.md §"The oracles"): the
  // interpreter and algebra::EvalLogical call a method through its
  // scalar body only, so a bug in a native_batch body or in EvalBatch
  // cannot cancel out of an oracle comparison. The operator tree over
  // the same query is the batch path and must dispatch the batch body.
  auto scalar_calls = std::make_shared<std::atomic<uint64_t>>(0);
  const MethodSig sig{"tally", {}, Type::Int(), MethodLevel::kInstance};
  ASSERT_TRUE(
      db_.catalog().FindClassMutable("Paragraph")->AddMethod(sig).ok());
  MethodImpl impl;
  impl.native = [scalar_calls](MethodCallContext&, const Value& self,
                               const std::vector<Value>&) -> Result<Value> {
    scalar_calls->fetch_add(1);
    return Value::Int(self.AsOid().local % 3);
  };
  impl.native_batch = [](MethodCallContext&, const ValueColumn& selves,
                         size_t num_rows, const std::vector<ValueColumn>&,
                         ValueColumn* out) -> Status {
    for (size_t i = 0; i < num_rows; ++i) {
      out->push_back(Value::Int(selves[i].AsOid().local % 3));
    }
    return Status::OK();
  };
  ASSERT_TRUE(
      db_.methods().Register("Paragraph", sig, std::move(impl)).ok());
  auto batches = [&] {
    return db_.methods().batch_invocation_count("Paragraph", "tally",
                                                MethodLevel::kInstance);
  };

  // The VQL interpreter against the operator tree.
  const std::string query =
      "ACCESS [p: p, t: p->tally()] FROM p IN Paragraph "
      "WHERE p->tally() >= 1";
  engine::Database session(&db_.catalog(), &db_.store(), &db_.methods());
  db_.methods().ResetCounters();
  auto naive = session.RunNaive(query);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(batches(), 0u) << "the interpreter dispatched a batch body";
  EXPECT_GT(scalar_calls->load(), 0u);
  auto tree = session.Run(query, {/*optimize=*/false});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_GE(batches(), 1u) << "the operator tree skipped the batch body";
  EXPECT_EQ(naive.value(), tree.value().result);
  EXPECT_FALSE(naive.value().AsSet().empty());

  // EvalLogical over select + map against the same plan's operator tree.
  algebra::AlgebraContext ctx(&db_.catalog());
  auto plan = ctx.Map("t", vql::ParseExpr("p->tally()").value(),
                      ctx.Select(vql::ParseExpr("p->tally() >= 1").value(),
                                 ctx.Get("p", "Paragraph").value())
                          .value());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  db_.methods().ResetCounters();
  ExprEvaluator eval = MakeEvaluator();
  auto logical = algebra::EvalLogical(plan.value(), eval);
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  EXPECT_EQ(batches(), 0u) << "EvalLogical dispatched a batch body";
  exec::ExecContext exec_ctx;
  exec_ctx.catalog = &db_.catalog();
  exec_ctx.store = &db_.store();
  exec_ctx.methods = &db_.methods();
  auto phys = exec::BuildPhysical(plan.value(), exec_ctx);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  auto drained = exec::ExecuteToSet(phys.value().get());
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_GE(batches(), 1u) << "the operator tree skipped the batch body";
  EXPECT_EQ(logical.value(), drained.value());
}

}  // namespace
}  // namespace vodak
