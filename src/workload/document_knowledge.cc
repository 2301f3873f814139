#include "workload/document_knowledge.h"

#include "common/string_util.h"

namespace vodak {
namespace workload {

Status RegisterPaperKnowledge(engine::Database* session,
                              const CorpusParams& params,
                              const std::set<std::string>& only) {
  auto want = [&only](const char* name) {
    return only.empty() || only.count(name) > 0;
  };
  semantics::KnowledgeBase& kb = session->knowledge();
  if (want("E1")) {
    VODAK_RETURN_IF_ERROR(kb.AddExprEquivalence(
        "E1", "p", "Paragraph", "p->document()", "p.section.document"));
  }
  if (want("E2")) {
    VODAK_RETURN_IF_ERROR(kb.AddCondEquivalence(
        "E2", "d", "Document", "d.title == s",
        "d IS-IN Document->select_by_index(s)"));
  }
  if (want("E3")) {
    VODAK_RETURN_IF_ERROR(kb.AddCondEquivalence(
        "E3", "p", "Paragraph", "p.section.document IS-IN D",
        "p.section IS-IN D.sections"));
  }
  if (want("E4")) {
    VODAK_RETURN_IF_ERROR(kb.AddCondEquivalence(
        "E4", "p", "Paragraph", "p.section IS-IN S",
        "p IS-IN S.paragraphs"));
  }
  if (want("E5")) {
    VODAK_RETURN_IF_ERROR(kb.AddQueryMethodEquivalence(
        "E5", "ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
        "Paragraph->retrieve_by_string(s)", {"s"}));
  }
  if (want("R1")) {
    VODAK_RETURN_IF_ERROR(kb.AddRangeInverse("R1", "d", "Document", "p",
                                             "Paragraph", "d->paragraphs()",
                                             "p->document()"));
  }
  if (want("LARGE")) {
    VODAK_RETURN_IF_ERROR(kb.AddCondImplication(
        "LARGE", "p", "Paragraph",
        "p->wordCount() > " +
            std::to_string(params.large_paragraph_threshold),
        "p IS-IN (p->document()).largeParagraphs"));
  }
  return Status::OK();
}

void InstallStatsProviders(engine::Database* session, DocumentDb* db) {
  const CorpusParams& params = db->params();
  double paragraphs_per_doc =
      static_cast<double>(params.sections_per_document) *
      params.paragraphs_per_section;
  double num_paragraphs =
      static_cast<double>(params.num_documents) * paragraphs_per_doc;

  session->AddStatsProvider(
      [db, params, paragraphs_per_doc, num_paragraphs](
          const std::string& class_name, const std::string& method,
          MethodLevel level,
          const std::vector<ExprRef>& args) -> std::optional<opt::MethodStats> {
        // Property fanouts (corpus shape).
        if (class_name == "$property") {
          if (method == "sections") {
            return opt::MethodStats{
                1.0, 0.5,
                static_cast<double>(params.sections_per_document)};
          }
          if (method == "paragraphs") {
            return opt::MethodStats{
                1.0, 0.5,
                static_cast<double>(params.paragraphs_per_section)};
          }
          if (method == "largeParagraphs") {
            return opt::MethodStats{
                1.0, 0.5,
                params.large_paragraph_fraction * paragraphs_per_doc};
          }
          return std::nullopt;
        }
        // Document-frequency-driven statistics for the IR methods when
        // the search string is a constant.
        auto const_string =
            [&args]() -> std::optional<std::string> {
          if (args.size() == 1 && args[0]->kind() == ExprKind::kConst &&
              args[0]->value().is_string()) {
            return args[0]->value().AsString();
          }
          return std::nullopt;
        };
        if (method == "contains_string" &&
            level == MethodLevel::kInstance) {
          auto s = const_string();
          if (!s.has_value()) return std::nullopt;
          double df = 0.0;
          bool first = true;
          for (const std::string& token : TokenizeWords(*s)) {
            double token_df = static_cast<double>(
                db->paragraph_index().DocumentFrequency(token));
            df = first ? token_df : std::min(df, token_df);
            first = false;
          }
          double selectivity =
              num_paragraphs > 0 ? df / num_paragraphs : 0.1;
          // Marginal per-row body tokenization; the batch dispatch pays
          // the column read + query tokenization once per batch.
          return opt::MethodStats{
              static_cast<double>(params.words_per_paragraph),
              selectivity, 1.0, 3.0};
        }
        if (method == "retrieve_by_string" &&
            level == MethodLevel::kClassObject) {
          auto s = const_string();
          if (!s.has_value()) return std::nullopt;
          double df = 0.0;
          bool first = true;
          for (const std::string& token : TokenizeWords(*s)) {
            double token_df = static_cast<double>(
                db->paragraph_index().DocumentFrequency(token));
            df = first ? token_df : std::min(df, token_df);
            first = false;
          }
          // The postings intersection is per-batch setup under the
          // set-at-a-time ABI; rows merely share the probed set.
          return opt::MethodStats{1.0, 0.5, df, 20.0 + df};
        }
        if (method == "select_by_index" &&
            level == MethodLevel::kClassObject) {
          auto s = const_string();
          if (!s.has_value()) return std::nullopt;
          double hits = static_cast<double>(
              db->title_index().Lookup(*s).size());
          return opt::MethodStats{1.0, 0.5, hits, 10.0};
        }
        if (method == "paragraphs" && level == MethodLevel::kInstance) {
          // Document::paragraphs() (distinct from the Section property,
          // which is routed through "$property" above).
          return opt::MethodStats{
              2.0 * params.sections_per_document, 0.5, paragraphs_per_doc};
        }
        return std::nullopt;
      });
}

Result<std::unique_ptr<engine::Database>> MakePaperSession(
    DocumentDb* db, const std::set<std::string>& only,
    opt::OptimizerOptions options) {
  auto session = std::make_unique<engine::Database>(
      &db->catalog(), &db->store(), &db->methods());
  VODAK_RETURN_IF_ERROR(
      RegisterPaperKnowledge(session.get(), db->params(), only));
  InstallStatsProviders(session.get(), db);
  VODAK_RETURN_IF_ERROR(session->GenerateOptimizer(options));
  return session;
}

}  // namespace workload
}  // namespace vodak
