#include <gtest/gtest.h>

#include <set>

#include "engine/database.h"
#include "workload/document_db.h"
#include "workload/document_knowledge.h"

namespace vodak {
namespace engine {
namespace {

/// The Example 4 user query (§2.3), in VQL.
const char* kExample4Query =
    "ACCESS p FROM p IN Paragraph "
    "WHERE p->contains_string('implementation') "
    "AND (p->document()).title == 'Query Optimization'";

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    // Large enough that plan PQ clearly dominates the hybrid
    // filter-after-retrieve plan (at toy sizes the two are genuinely
    // cost-competitive and the optimizer may pick either).
    params_.num_documents = 30;
    params_.sections_per_document = 2;
    params_.paragraphs_per_section = 3;
    params_.implementation_fraction = 0.25;
    ASSERT_TRUE(db_.Populate(params_).ok());
    auto session = workload::MakePaperSession(&db_);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(session).value();
  }

  workload::DocumentDb db_;
  workload::CorpusParams params_;
  std::unique_ptr<Database> session_;
};

TEST_F(EngineTest, Example4DerivesPlanPq) {
  // The central result of the paper: given E1–E5, the optimizer turns
  // the natural user query Q into the plan
  //   PQ = retrieve_by_string('implementation') INTERSECTION
  //        select_by_index('Query Optimization').sections.paragraphs
  // (natural_join of the two method scans = the INTERSECTION of §2.3).
  auto result = session_->Run(kExample4Query, {true, false});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan = result.value().chosen_plan->ToString();
  EXPECT_NE(plan.find("natural_join"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Paragraph->retrieve_by_string('implementation')"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Document->select_by_index('Query "
                      "Optimization').sections.paragraphs"),
            std::string::npos)
      << plan;
  // No extent scan of Paragraph survives in PQ.
  EXPECT_EQ(plan.find("get<p, Paragraph>"), std::string::npos) << plan;
  // And the plan is much cheaper than the straightforward evaluation.
  EXPECT_LT(result.value().chosen_cost,
            result.value().original_cost / 5.0);
}

TEST_F(EngineTest, Example4ResultsMatchNaiveEvaluation) {
  auto optimized = session_->Run(kExample4Query, {true, false});
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  auto naive = session_->RunNaive(kExample4Query);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(optimized.value().result, naive.value());
  EXPECT_FALSE(optimized.value().result.AsSet().empty())
      << "corpus must produce hits for the test to be meaningful";
}

TEST_F(EngineTest, Example4AvoidsPerParagraphMethodCalls) {
  // The §2.3 efficiency claim, measured: the optimized plan must not
  // invoke contains_string per paragraph.
  db_.ResetCounters();
  auto optimized = session_->Run(kExample4Query, {true, false});
  ASSERT_TRUE(optimized.ok());
  uint64_t contains_calls = db_.methods().invocation_count(
      "Paragraph", "contains_string", MethodLevel::kInstance);
  uint64_t retrieve_calls = db_.methods().invocation_count(
      "Paragraph", "retrieve_by_string", MethodLevel::kClassObject);
  EXPECT_EQ(contains_calls, 0u);
  EXPECT_EQ(retrieve_calls, 1u);

  db_.ResetCounters();
  auto unoptimized = session_->Run(kExample4Query, {false, false});
  ASSERT_TRUE(unoptimized.ok());
  // The unoptimized plan still evaluates contains_string for *every*
  // paragraph — but through the set-at-a-time ABI, so the rows arrive
  // in whole-batch dispatches rather than one invocation per row.
  const uint64_t num_paragraphs = uint64_t{params_.num_documents} *
                                  params_.sections_per_document *
                                  params_.paragraphs_per_section;
  EXPECT_EQ(db_.methods().batch_row_count("Paragraph", "contains_string",
                                          MethodLevel::kInstance),
            num_paragraphs);
  uint64_t naive_contains = db_.methods().invocation_count(
      "Paragraph", "contains_string", MethodLevel::kInstance);
  EXPECT_GE(naive_contains, 1u);
  EXPECT_LE(naive_contains, num_paragraphs / exec::kDefaultBatchSize + 1);
}

TEST_F(EngineTest, TraceShowsTheSection23Chain) {
  auto result = session_->Run(kExample4Query, {true, true});
  ASSERT_TRUE(result.ok());
  std::set<std::string> fired;
  for (const auto& entry : result.value().trace) {
    fired.insert(entry.rule);
  }
  // Every equivalence of Example 4 participates in the derivation.
  for (const char* rule :
       {"E1-fwd", "E2-fwd", "E3-fwd", "E4-fwd", "E5-impl-rule",
        "is-in-to-natural-join", "select-split-and"}) {
    EXPECT_TRUE(fired.count(rule) > 0) << "rule did not fire: " << rule;
  }
}

TEST_F(EngineTest, AblationWithoutKnowledgeKeepsScanPlan) {
  // §2.3: "There is no way for the optimizer to derive the final query
  // plan from the user's query without having schema-specific
  // information on the semantics of the methods."
  engine::Database bare(&db_.catalog(), &db_.store(), &db_.methods());
  ASSERT_TRUE(bare.GenerateOptimizer().ok());
  auto result = bare.Run(kExample4Query, {true, false});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan = result.value().chosen_plan->ToString();
  EXPECT_NE(plan.find("get<p, Paragraph>"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("retrieve_by_string"), std::string::npos) << plan;
  auto naive = bare.RunNaive(kExample4Query);
  EXPECT_EQ(result.value().result, naive.value());
}

TEST_F(EngineTest, AblationSingleEquivalenceStillSound) {
  // Dropping E2 breaks the select_by_index path but must stay correct.
  workload::DocumentDb db2;
  ASSERT_TRUE(db2.Init().ok());
  ASSERT_TRUE(db2.Populate(params_).ok());
  auto session =
      workload::MakePaperSession(&db2, {"E1", "E3", "E4", "E5"});
  ASSERT_TRUE(session.ok());
  auto result = (*session)->Run(kExample4Query, {true, false});
  ASSERT_TRUE(result.ok());
  std::string plan = result.value().chosen_plan->ToString();
  EXPECT_EQ(plan.find("select_by_index"), std::string::npos) << plan;
  EXPECT_NE(plan.find("retrieve_by_string"), std::string::npos) << plan;
  EXPECT_EQ(result.value().result, (*session)->RunNaive(kExample4Query).value());
}

TEST_F(EngineTest, ImplicationUsesPrecomputedLargeParagraphs) {
  // §4.2 implication example: with the LARGE implication registered,
  // the wordCount predicate gains a natural_join with the cheap
  // precomputed set.
  std::string query =
      "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > " +
      std::to_string(params_.large_paragraph_threshold);
  auto result = session_->Run(query, {true, false});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().result, session_->RunNaive(query).value());
  EXPECT_LE(result.value().chosen_cost, result.value().original_cost);
}

TEST_F(EngineTest, ExplainRendersAllSections) {
  auto explain = session_->Explain(kExample4Query, {true, true});
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  for (const char* part :
       {"== VQL ==", "== algebra (translated", "== algebra (optimized",
        "== physical plan ==", "== rule applications"}) {
    EXPECT_NE(explain.value().find(part), std::string::npos) << part;
  }
}

TEST_F(EngineTest, RunWithoutOptimizerGeneration) {
  engine::Database bare(&db_.catalog(), &db_.store(), &db_.methods());
  // optimize=true without GenerateOptimizer is an error...
  EXPECT_FALSE(bare.Run(kExample4Query, {true, false}).ok());
  // ...but unoptimized execution works.
  auto result = bare.Run(kExample4Query, {false, false});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().result, bare.RunNaive(kExample4Query).value());
}

TEST_F(EngineTest, ParseAndBindErrorsPropagate) {
  EXPECT_EQ(session_->Run("ACCESS FROM x", {false, false}).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(session_->Run("ACCESS p FROM p IN Nowhere", {false, false})
                .status()
                .code(),
            StatusCode::kBindError);
}

/// The paper's schema at the benchmark's corpus size, 8,000 documents
/// (96,000 paragraphs), populated once for the suite: at this size the
/// cost model's choice between the dependent range and its R1
/// inversion is the one the benchmark sees.
class RangeInverseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new workload::DocumentDb;
    ASSERT_TRUE(db_->Init().ok());
    workload::CorpusParams params;
    params.num_documents = 8000;
    ASSERT_TRUE(db_->Populate(params).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::unique_ptr<Database> Session(
      const std::set<std::string>& only = {}) {
    auto session = workload::MakePaperSession(db_, only);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    return std::move(session).value();
  }

  static workload::DocumentDb* db_;
};

workload::DocumentDb* RangeInverseTest::db_ = nullptr;

/// Example 2 (§2.2): a method in the FROM clause.
const char* kExample2Query =
    "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
    "WHERE p->contains_string('implementation')";

TEST_F(RangeInverseTest, Example2DrivesThePlanFromTheMethodScan) {
  // R1 turns the dependent range into a map from each hit to its
  // document, so no Document is scanned and no paragraph set is
  // flattened; E1 then reads the document as a path.
  std::unique_ptr<Database> session = Session();
  auto result = session->Run(kExample2Query, {true, false});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& physical = result.value().physical_explain;
  EXPECT_NE(physical.find("MethodScan(p IN Paragraph->retrieve_by_string("
                          "'implementation')"),
            std::string::npos)
      << physical;
  EXPECT_NE(physical.find("Map(d := p.section.document)"), std::string::npos)
      << physical;
  EXPECT_EQ(physical.find("Flatten"), std::string::npos) << physical;
  EXPECT_EQ(physical.find("HashJoin"), std::string::npos) << physical;
  EXPECT_EQ(physical.find("ExtentScan"), std::string::npos) << physical;

  vql::Interpreter::Options row_mode;
  row_mode.row_mode = true;
  auto oracle = session->RunNaive(kExample2Query, row_mode);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(result.value().result, oracle.value());

  // Without R1 the same session shape keeps the dependent range, at a
  // higher estimated cost.
  std::unique_ptr<Database> without =
      Session({"E1", "E2", "E3", "E4", "E5", "LARGE"});
  auto kept = without->Run(kExample2Query, {true, false});
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_NE(kept.value().physical_explain.find("Flatten"), std::string::npos)
      << kept.value().physical_explain;
  EXPECT_LT(result.value().chosen_cost, kept.value().chosen_cost);
  EXPECT_EQ(kept.value().result, oracle.value());
}

TEST_F(RangeInverseTest, OtherShapesExplainTheSameWithoutR1) {
  // R1 fires only on a dependent range joined with a method source, so
  // every benchmark query without a dependent range keeps its plan
  // byte for byte: perfbench's scan mix and the other Example 4 shapes.
  const std::vector<std::string> queries = {
      "ACCESS p FROM p IN Paragraph WHERE p.number == 2",
      "ACCESS p FROM p IN Paragraph WHERE p.number >= 1 AND p.number <= 2",
      "ACCESS s FROM s IN Section WHERE s.number == 1",
      "ACCESS s.title FROM s IN Section WHERE s.number >= 0 AND "
      "s.number <= 1",
      "ACCESS p.number FROM p IN Paragraph",
      "ACCESS d.title FROM d IN Document",
      "ACCESS p.section.document.title FROM p IN Paragraph WHERE "
      "p.number == 3",
      "ACCESS p FROM p IN Paragraph WHERE (p->document()).title == "
      "'Title 17'",
      "ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
      "Document->select_by_index('Title 17')",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation') AND "
      "(p->document()).title == 'Title 17'",
      "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 100 AND "
      "p->contains_string('implementation')",
  };
  std::unique_ptr<Database> with = Session();
  std::unique_ptr<Database> without =
      Session({"E1", "E2", "E3", "E4", "E5", "LARGE"});
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    auto a = with->Explain(query, {true, false});
    auto b = without->Explain(query, {true, false});
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value(), b.value());
  }
}

/// Correctness-preservation property (the backbone guarantee): for every
/// query in the corpus below, the optimized plan returns exactly the
/// interpreter's result set.
class CorrectnessPropertyTest
    : public EngineTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(CorrectnessPropertyTest, OptimizedMatchesNaive) {
  const std::string query = GetParam();
  auto naive = session_->RunNaive(query);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  auto optimized = session_->Run(query, {true, false});
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_EQ(optimized.value().result, naive.value()) << query;
  auto unoptimized = session_->Run(query, {false, false});
  ASSERT_TRUE(unoptimized.ok());
  EXPECT_EQ(unoptimized.value().result, naive.value()) << query;
}

INSTANTIATE_TEST_SUITE_P(
    QueryCorpus, CorrectnessPropertyTest,
    ::testing::Values(
        // Plain scans and projections.
        "ACCESS p FROM p IN Paragraph",
        "ACCESS d.title FROM d IN Document",
        "ACCESS [t: d.title, a: d.author] FROM d IN Document",
        // Single selections, cheap and expensive.
        "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
        "ACCESS p FROM p IN Paragraph WHERE "
        "p->contains_string('implementation')",
        "ACCESS d FROM d IN Document WHERE d.title == 'Query "
        "Optimization'",
        // Example 4 and its variants.
        "ACCESS p FROM p IN Paragraph WHERE "
        "p->contains_string('implementation') AND "
        "(p->document()).title == 'Query Optimization'",
        "ACCESS p FROM p IN Paragraph WHERE "
        "(p->document()).title == 'Query Optimization'",
        "ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
        "Document->select_by_index('Query Optimization')",
        // Example 1: parameterized method as join predicate.
        "ACCESS [a: p.number, b: q.number] FROM p IN Paragraph, "
        "q IN Paragraph WHERE p->sameDocument(q) AND p.number == 0 AND "
        "q.number == 1",
        // Example 2: dependent range.
        "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
        "p->contains_string('implementation')",
        // Example 3: method in the ACCESS clause.
        "ACCESS [doc: d.title, paras: d->paragraphs()] FROM d IN Document",
        // Explicit join via properties.
        "ACCESS s.number FROM d IN Document, s IN Section WHERE "
        "s.document == d AND d.title == 'Title 3'",
        // Inverse-link shaped condition (E3/E4 fodder).
        "ACCESS p FROM p IN Paragraph WHERE p.section IS-IN "
        "(Document->select_by_index('Query Optimization')).sections",
        // wordCount / implication shapes.
        "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 100",
        "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 100 AND "
        "p->contains_string('implementation')",
        // Set operators in the query.
        "ACCESS p FROM p IN "
        "Paragraph->retrieve_by_string('implementation')",
        // Nested path expressions.
        "ACCESS p.section.document.title FROM p IN Paragraph WHERE "
        "p.number == 0"));

}  // namespace
}  // namespace engine
}  // namespace vodak
