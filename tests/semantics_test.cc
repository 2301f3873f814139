#include <gtest/gtest.h>

#include "engine/database.h"
#include "semantics/knowledge.h"
#include "semantics/matcher.h"
#include "vql/binder.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace semantics {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    schema_["p"] = Type::OidOf("Paragraph");
    schema_["q"] = Type::OidOf("Paragraph");
    schema_["d"] = Type::OidOf("Document");
  }

  /// Binds an expression in the test schema scope.
  ExprRef Bind(const std::string& text) {
    vql::Binder binder(&db_.catalog());
    std::map<std::string, TypeRef> scope(schema_.begin(), schema_.end());
    scope["D"] = Type::Any();
    scope["s"] = Type::Any();
    scope["x"] = Type::Any();  // pattern receiver placeholder
    TypeRef type;
    auto bound =
        binder.BindExpr(vql::ParseExpr(text).value(), scope, &type);
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    return bound.value();
  }

  ExprPattern PatternOf(const std::string& text, const std::string& var,
                        const std::string& cls,
                        std::set<std::string> params) {
    return ExprPattern{Bind(text), var, cls, std::move(params)};
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  algebra::RefSchema schema_;
};

TEST_F(MatcherTest, ReceiverBindsTypedSubexpression) {
  ExprPattern pattern = PatternOf("x->document()", "x", "Paragraph", {});
  Bindings bindings;
  EXPECT_TRUE(MatchWhole(pattern, Bind("p->document()"), *ctx_, schema_,
                         &bindings));
  EXPECT_EQ(bindings.at("x")->ToString(), "p");
}

TEST_F(MatcherTest, ReceiverRejectsWrongClass) {
  // `x` must be a Paragraph; `d` is a Document.
  ExprPattern pattern =
      PatternOf("x.section.document", "x", "Paragraph", {});
  Bindings bindings;
  EXPECT_FALSE(MatchWhole(pattern, Bind("p->document()"), *ctx_, schema_,
                          &bindings));
  // But a Document-typed pattern receiver does bind d.title.
  ExprPattern doc_pattern = PatternOf("x.title", "x", "Document", {});
  bindings.clear();
  EXPECT_TRUE(MatchWhole(doc_pattern, Bind("d.title"), *ctx_, schema_,
                         &bindings));
  bindings.clear();
  // And binds a *computed* Document receiver — the E2 step of §2.3.
  EXPECT_TRUE(MatchWhole(doc_pattern, Bind("(p->document()).title"), *ctx_,
                         schema_, &bindings));
  EXPECT_EQ(bindings.at("x")->ToString(), "p->document()");
}

TEST_F(MatcherTest, ParamVariablesBindAnything) {
  ExprPattern pattern = PatternOf("x.title == s", "x", "Document", {"s"});
  Bindings bindings;
  EXPECT_TRUE(MatchWhole(pattern,
                         Bind("d.title == 'Query Optimization'"), *ctx_,
                         schema_, &bindings));
  EXPECT_EQ(bindings.at("s")->ToString(), "'Query Optimization'");
}

TEST_F(MatcherTest, RepeatedVariableMustBindConsistently) {
  ExprPattern pattern =
      PatternOf("x->sameDocument(x)", "x", "Paragraph", {});
  Bindings bindings;
  EXPECT_TRUE(MatchWhole(pattern, Bind("p->sameDocument(p)"), *ctx_,
                         schema_, &bindings));
  bindings.clear();
  EXPECT_FALSE(MatchWhole(pattern, Bind("p->sameDocument(q)"), *ctx_,
                          schema_, &bindings));
}

TEST_F(MatcherTest, RewriteOnceFindsNestedOccurrences) {
  ExprPattern pattern = PatternOf("x->document()", "x", "Paragraph", {});
  ExprRef replacement = Bind("x.section.document");
  // One occurrence nested inside a conjunction.
  ExprRef target = Bind(
      "p->contains_string('a') AND (p->document()).title == 'T'");
  auto rewrites = RewriteOnce(pattern, replacement, target, *ctx_, schema_);
  ASSERT_EQ(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0]->ToString(),
            "(p->contains_string('a') AND (p.section.document.title == "
            "'T'))");
}

TEST_F(MatcherTest, RewriteOnceProducesOneResultPerOccurrence) {
  ExprPattern pattern = PatternOf("x->document()", "x", "Paragraph", {});
  ExprRef replacement = Bind("x.section.document");
  ExprRef target = Bind("p->document() == q->document()");
  auto rewrites = RewriteOnce(pattern, replacement, target, *ctx_, schema_);
  ASSERT_EQ(rewrites.size(), 2u);  // one per side, rewritten separately
  EXPECT_EQ(rewrites[0]->ToString(),
            "(p.section.document == q->document())");
  EXPECT_EQ(rewrites[1]->ToString(),
            "(p->document() == q.section.document)");
}

class KnowledgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    kb_ = std::make_unique<KnowledgeBase>(&db_.catalog());
  }

  workload::DocumentDb db_;
  std::unique_ptr<KnowledgeBase> kb_;
};

TEST_F(KnowledgeTest, RegistersAllPaperEquivalences) {
  EXPECT_TRUE(kb_->AddExprEquivalence("E1", "p", "Paragraph",
                                      "p->document()",
                                      "p.section.document")
                  .ok());
  EXPECT_TRUE(kb_->AddCondEquivalence(
                     "E2", "d", "Document", "d.title == s",
                     "d IS-IN Document->select_by_index(s)")
                  .ok());
  EXPECT_TRUE(kb_->AddCondEquivalence("E3", "p", "Paragraph",
                                      "p.section.document IS-IN D",
                                      "p.section IS-IN D.sections")
                  .ok());
  EXPECT_TRUE(kb_->AddCondEquivalence("E4", "p", "Paragraph",
                                      "p.section IS-IN S",
                                      "p IS-IN S.paragraphs")
                  .ok());
  EXPECT_TRUE(
      kb_->AddQueryMethodEquivalence(
             "E5",
             "ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
             "Paragraph->retrieve_by_string(s)", {"s"})
          .ok());
  EXPECT_TRUE(kb_->AddCondImplication(
                     "LARGE", "p", "Paragraph", "p->wordCount() > 100",
                     "p IS-IN (p->document()).largeParagraphs")
                  .ok());
  EXPECT_TRUE(kb_->AddRangeInverse("R1", "d", "Document", "p", "Paragraph",
                                   "d->paragraphs()", "p->document()")
                  .ok());
  EXPECT_EQ(kb_->size(), 7u);
  // Equivalences derive two rules (both directions), implications,
  // query-method entries and range inverses one each.
  EXPECT_EQ(kb_->DeriveRules().size(), 4u * 2u + 1u + 1u + 1u);
  std::string rendered = kb_->ToString();
  EXPECT_NE(rendered.find("E1"), std::string::npos);
  EXPECT_NE(rendered.find("query-method-equivalence"), std::string::npos);
  EXPECT_NE(rendered.find("range-inverse"), std::string::npos);
}

TEST_F(KnowledgeTest, RejectsIllTypedSpecifications) {
  // Unknown class.
  EXPECT_FALSE(kb_->AddExprEquivalence("X", "p", "Nope", "p->document()",
                                       "p.section.document")
                   .ok());
  // Unknown method.
  EXPECT_FALSE(kb_->AddExprEquivalence("X", "p", "Paragraph",
                                       "p->nope()", "p.section")
                   .ok());
  // Condition equivalence whose sides are not boolean.
  EXPECT_FALSE(kb_->AddCondEquivalence("X", "p", "Paragraph",
                                       "p.number", "p.number")
                   .ok());
  // Incompatible types across an expression equivalence.
  EXPECT_FALSE(kb_->AddExprEquivalence("X", "p", "Paragraph",
                                       "p->document()", "p.number")
                   .ok());
  EXPECT_EQ(kb_->size(), 0u);
}

TEST_F(KnowledgeTest, QueryMethodShapeIsValidated) {
  // Two ranges: unsupported.
  EXPECT_FALSE(
      kb_->AddQueryMethodEquivalence(
             "X",
             "ACCESS p FROM p IN Paragraph, q IN Paragraph WHERE "
             "p->sameDocument(q)",
             "Paragraph->retrieve_by_string(s)", {"s"})
          .ok());
  // No WHERE clause.
  EXPECT_FALSE(kb_->AddQueryMethodEquivalence(
                      "X", "ACCESS p FROM p IN Paragraph",
                      "Paragraph->retrieve_by_string(s)", {"s"})
                   .ok());
  // ACCESS is not the bare range variable.
  EXPECT_FALSE(
      kb_->AddQueryMethodEquivalence(
             "X",
             "ACCESS p.number FROM p IN Paragraph WHERE "
             "p->contains_string(s)",
             "Paragraph->retrieve_by_string(s)", {"s"})
          .ok());
  // Scalar-valued method call.
  EXPECT_FALSE(
      kb_->AddQueryMethodEquivalence(
             "X",
             "ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
             "s", {"s"})
          .ok());
}

TEST_F(KnowledgeTest, EntryRenderingNamesKindAndSides) {
  ASSERT_TRUE(kb_->AddCondEquivalence("E3", "p", "Paragraph",
                                      "p.section.document IS-IN D",
                                      "p.section IS-IN D.sections")
                  .ok());
  const KnowledgeEntry& entry = kb_->entries()[0];
  EXPECT_EQ(entry.kind, KnowledgeKind::kCondEquivalence);
  EXPECT_EQ(entry.params, std::vector<std::string>{"D"});
  std::string s = entry.ToString();
  EXPECT_NE(s.find("FORALL p IN Paragraph"), std::string::npos);
  EXPECT_NE(s.find("<=>"), std::string::npos);
}

TEST_F(KnowledgeTest, RangeInverseShapeIsValidated) {
  // Unknown class on either side.
  EXPECT_FALSE(kb_->AddRangeInverse("X", "d", "Nope", "p", "Paragraph",
                                    "d->paragraphs()", "p->document()")
                   .ok());
  EXPECT_FALSE(kb_->AddRangeInverse("X", "d", "Document", "p", "Nope",
                                    "d->paragraphs()", "p->document()")
                   .ok());
  // One variable for both sides.
  EXPECT_FALSE(kb_->AddRangeInverse("X", "p", "Document", "p", "Paragraph",
                                    "p->paragraphs()", "p->document()")
                   .ok());
  // The range is a set of Sections, not of Paragraphs.
  EXPECT_FALSE(kb_->AddRangeInverse("X", "d", "Document", "p", "Paragraph",
                                    "d.sections", "p->document()")
                   .ok());
  // The inverse reaches a Section, not the range's owner class.
  EXPECT_FALSE(kb_->AddRangeInverse("X", "d", "Document", "p", "Paragraph",
                                    "d->paragraphs()", "p.section")
                   .ok());
  // A free parameter in the range: the rule could not bind it.
  EXPECT_FALSE(kb_->AddRangeInverse("X", "d", "Document", "p", "Paragraph",
                                    "S.paragraphs", "p->document()")
                   .ok());
  EXPECT_EQ(kb_->size(), 0u);

  ASSERT_TRUE(kb_->AddRangeInverse("R1", "d", "Document", "p", "Paragraph",
                                   "d->paragraphs()", "p->document()")
                  .ok());
  const KnowledgeEntry& entry = kb_->entries()[0];
  EXPECT_EQ(entry.kind, KnowledgeKind::kRangeInverse);
  EXPECT_TRUE(entry.params.empty());
  EXPECT_EQ(entry.ToString(),
            "R1 [range-inverse] FORALL d IN Document, p IN Paragraph: "
            "p IS-IN d->paragraphs() <=> p->document() == d");
  ASSERT_EQ(kb_->DeriveRules().size(), 1u);
  EXPECT_EQ(kb_->DeriveRules()[0]->name(), "R1-invert");
}

TEST(RangeInverseDataTest, R1HoldsOnAPopulatedCorpus) {
  // Both sides of R1 evaluated by the row-mode oracle for every
  // document: the pairs (d, p) with p IS-IN d->paragraphs() are exactly
  // the pairs (p->document(), p). A paragraph without a document would
  // show up on the right only.
  workload::DocumentDb db;
  ASSERT_TRUE(db.Init().ok());
  workload::CorpusParams params;
  params.num_documents = 40;
  ASSERT_TRUE(db.Populate(params).ok());
  engine::Database session(&db.catalog(), &db.store(), &db.methods());
  auto range_side = session.RunNaive(
      "ACCESS [d: d, p: p] FROM d IN Document, p IN d->paragraphs()");
  auto inverse_side = session.RunNaive(
      "ACCESS [d: p->document(), p: p] FROM p IN Paragraph");
  ASSERT_TRUE(range_side.ok()) << range_side.status().ToString();
  ASSERT_TRUE(inverse_side.ok()) << inverse_side.status().ToString();
  EXPECT_EQ(range_side.value().AsSet().size(),
            static_cast<size_t>(params.num_documents) *
                params.sections_per_document * params.paragraphs_per_section);
  EXPECT_EQ(range_side.value(), inverse_side.value());
}

}  // namespace
}  // namespace semantics
}  // namespace vodak
