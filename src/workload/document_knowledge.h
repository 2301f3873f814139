#ifndef VODAK_WORKLOAD_DOCUMENT_KNOWLEDGE_H_
#define VODAK_WORKLOAD_DOCUMENT_KNOWLEDGE_H_

#include <set>
#include <string>

#include "engine/database.h"
#include "workload/document_db.h"

namespace vodak {
namespace workload {

/// Registers the paper's Example 4 equivalences on a Database session:
///
///   E1: p→document() ≡ p.section.document          (path method)
///   E2: d.title == s ⇔ d IS-IN
///         Document→select_by_index(s)               (index method)
///   E3: p.section.document IS-IN D ⇔
///         p.section IS-IN D.sections                (inverse link)
///   E4: p.section IS-IN S ⇔ p IS-IN S.paragraphs   (inverse link)
///   E5: ACCESS p FROM p IN Paragraph WHERE
///         p→contains_string(s)
///         ≡ Paragraph→retrieve_by_string(s)         (query ≡ method)
///
/// plus the §4.2 implication example:
///
///   LARGE: p→wordCount() > threshold ⇒
///            p IS-IN (p→document()).largeParagraphs
///
/// and the range inverse that E3/E4's links imply for ranges:
///
///   R1: ∀ d IN Document, p IN Paragraph:
///         p IS-IN d→paragraphs() ⇔ p→document() == d
///
/// `only` restricts registration to a subset of
/// {"E1".."E5","LARGE","R1"} (knowledge ablations in tests); empty
/// means all.
Status RegisterPaperKnowledge(engine::Database* session,
                              const CorpusParams& params,
                              const std::set<std::string>& only = {});

/// Installs the corpus-calibrated statistics providers on the session:
/// document frequencies from the inverted index drive
/// contains_string / retrieve_by_string selectivity and fanout, the
/// title index drives select_by_index, and the corpus shape drives the
/// property fanouts (sections, paragraphs, largeParagraphs).
void InstallStatsProviders(engine::Database* session, DocumentDb* db);

/// Convenience: builds a fully wired session (knowledge + statistics +
/// generated optimizer) over an initialized and populated DocumentDb.
Result<std::unique_ptr<engine::Database>> MakePaperSession(
    DocumentDb* db, const std::set<std::string>& only = {},
    opt::OptimizerOptions options = {});

}  // namespace workload
}  // namespace vodak

#endif  // VODAK_WORKLOAD_DOCUMENT_KNOWLEDGE_H_
