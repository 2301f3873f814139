#include "workload/document_db.h"

#include "common/rng.h"
#include "common/string_util.h"

namespace vodak {
namespace workload {

const char* DocumentDb::kSpecialTitle = "Query Optimization";
const char* DocumentDb::kSearchWord = "implementation";

namespace {

// Property slot layout. Slots equal declaration order in DefineSchema;
// the constants keep Populate readable.
constexpr uint32_t kDocTitle = 0;
constexpr uint32_t kDocAuthor = 1;
constexpr uint32_t kDocSections = 2;
constexpr uint32_t kDocLargeParagraphs = 3;

constexpr uint32_t kSecNumber = 0;
constexpr uint32_t kSecTitle = 1;
constexpr uint32_t kSecDocument = 2;
constexpr uint32_t kSecParagraphs = 3;

constexpr uint32_t kParNumber = 0;
constexpr uint32_t kParSection = 1;
constexpr uint32_t kParContent = 2;

/// Reads property `prop` of every receiver in `selves` as one
/// store column read (one slot resolution, one stats bump
/// for the whole batch). The batch ABI guarantees `selves` holds
/// same-class, non-NULL Oid values, and — because the batched evaluator
/// gathers only the live rows of a selection vector before dispatch
/// (docs/ARCHITECTURE.md §"Selection vectors") — that every receiver
/// here is a *selected* row: the bodies below never see, and never pay
/// store reads or tokenization for, rows a filter already rejected.
/// exec_selvec_test's tripwire pins this down with the registry's
/// batch_rows counter.
Status ReadReceiverColumn(MethodCallContext& ctx, const ValueColumn& selves,
                          const std::string& prop,
                          std::vector<Value>* out) {
  if (selves.empty()) return Status::OK();
  const Oid first = selves[0].AsOid();
  const ClassDef* cls = ctx.catalog->FindClassById(first.class_id);
  if (cls == nullptr) {
    return Status::NotFound("oid " + first.ToString() +
                            " refers to unknown class");
  }
  const PropertyDef* def = cls->FindProperty(prop);
  if (def == nullptr) {
    return Status::NotFound("class '" + cls->name() +
                            "' has no property '" + prop + "'");
  }
  std::vector<uint32_t> locals;
  locals.reserve(selves.size());
  for (const Value& self : selves) locals.push_back(self.AsOid().local);
  return ctx.store->GetPropertyColumn(first.class_id, def->slot, locals,
                                      out, ctx.snapshot_epoch);
}

/// An external index's hits as a set, minus the instances not live at
/// the caller's snapshot: the indexes are add-only and never hear of a
/// delete.
Result<Value> LiveOidSet(MethodCallContext& ctx, uint32_t class_id,
                         std::vector<Oid> hits) {
  VODAK_RETURN_IF_ERROR(
      ctx.store->RetainLive(class_id, &hits, ctx.snapshot_epoch));
  return MakeOidSet(std::move(hits));
}

}  // namespace

DocumentDb::DocumentDb() = default;

Status DocumentDb::DefineSchema() {
  // CLASS Document (§2.1).
  ClassDef* doc;
  {
    auto r = catalog_.DefineClass("Document");
    if (!r.ok()) return r.status();
    doc = r.value();
  }
  VODAK_RETURN_IF_ERROR(doc->AddProperty("title", Type::String()));
  VODAK_RETURN_IF_ERROR(doc->AddProperty("author", Type::String()));
  VODAK_RETURN_IF_ERROR(
      doc->AddProperty("sections", Type::SetOf(Type::OidOf("Section"))));
  VODAK_RETURN_IF_ERROR(doc->AddProperty(
      "largeParagraphs", Type::SetOf(Type::OidOf("Paragraph"))));
  VODAK_RETURN_IF_ERROR(doc->AddMethod(
      {"select_by_index",
       {{"t", Type::String()}},
       Type::SetOf(Type::OidOf("Document")),
       MethodLevel::kClassObject}));
  VODAK_RETURN_IF_ERROR(doc->AddMethod(
      {"paragraphs",
       {},
       Type::SetOf(Type::OidOf("Paragraph")),
       MethodLevel::kInstance}));

  // CLASS Section.
  ClassDef* sec;
  {
    auto r = catalog_.DefineClass("Section");
    if (!r.ok()) return r.status();
    sec = r.value();
  }
  VODAK_RETURN_IF_ERROR(sec->AddProperty("number", Type::Int()));
  VODAK_RETURN_IF_ERROR(sec->AddProperty("title", Type::String()));
  VODAK_RETURN_IF_ERROR(
      sec->AddProperty("document", Type::OidOf("Document")));
  VODAK_RETURN_IF_ERROR(
      sec->AddProperty("paragraphs", Type::SetOf(Type::OidOf("Paragraph"))));

  // CLASS Paragraph.
  ClassDef* par;
  {
    auto r = catalog_.DefineClass("Paragraph");
    if (!r.ok()) return r.status();
    par = r.value();
  }
  VODAK_RETURN_IF_ERROR(par->AddProperty("number", Type::Int()));
  VODAK_RETURN_IF_ERROR(par->AddProperty("section", Type::OidOf("Section")));
  VODAK_RETURN_IF_ERROR(par->AddProperty("content", Type::String()));
  VODAK_RETURN_IF_ERROR(par->AddMethod(
      {"retrieve_by_string",
       {{"s", Type::String()}},
       Type::SetOf(Type::OidOf("Paragraph")),
       MethodLevel::kClassObject}));
  VODAK_RETURN_IF_ERROR(par->AddMethod(
      {"document", {}, Type::OidOf("Document"), MethodLevel::kInstance}));
  VODAK_RETURN_IF_ERROR(par->AddMethod({"contains_string",
                                        {{"s", Type::String()}},
                                        Type::Bool(),
                                        MethodLevel::kInstance}));
  VODAK_RETURN_IF_ERROR(par->AddMethod({"sameDocument",
                                        {{"p", Type::OidOf("Paragraph")}},
                                        Type::Bool(),
                                        MethodLevel::kInstance}));
  VODAK_RETURN_IF_ERROR(par->AddMethod(
      {"wordCount", {}, Type::Int(), MethodLevel::kInstance}));

  // Storage registration mirrors catalog order so class ids agree.
  document_class_id_ = store_.RegisterClass(
      "Document", static_cast<uint32_t>(doc->properties().size()));
  section_class_id_ = store_.RegisterClass(
      "Section", static_cast<uint32_t>(sec->properties().size()));
  paragraph_class_id_ = store_.RegisterClass(
      "Paragraph", static_cast<uint32_t>(par->properties().size()));
  VODAK_CHECK(document_class_id_ == doc->class_id());
  VODAK_CHECK(section_class_id_ == sec->class_id());
  VODAK_CHECK(paragraph_class_id_ == par->class_id());
  return Status::OK();
}

Status DocumentDb::RegisterMethods() {
  // Document→select_by_index: external user-defined index access.
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kNative;
    impl.is_external = true;
    OrderedAttributeIndex* index = &title_index_;
    const uint32_t cls = document_class_id_;
    impl.native = [index, cls](MethodCallContext& ctx, const Value&,
                               const std::vector<Value>& args)
        -> Result<Value> {
      if (!args[0].is_string()) {
        return Status::TypeError("select_by_index expects a STRING");
      }
      return LiveOidSet(ctx, cls, index->Lookup(args[0].AsString()));
    };
    // Set-at-a-time form: one title-index probe per *distinct* key in
    // the batch; repeated rows (the common constant-argument shape)
    // share the probe's result set (Value copies are shared_ptr-cheap).
    impl.native_batch = [index, cls](MethodCallContext& ctx,
                                     const ValueColumn&, size_t n,
                                     const std::vector<ValueColumn>& args,
                                     ValueColumn* out) -> Status {
      std::map<std::string, Value> probes;
      for (size_t i = 0; i < n; ++i) {
        const Value& t = args[0][i];
        if (!t.is_string()) {
          return Status::TypeError("select_by_index expects a STRING");
        }
        auto [it, fresh] = probes.try_emplace(t.AsString());
        if (fresh) {
          VODAK_ASSIGN_OR_RETURN(
              it->second, LiveOidSet(ctx, cls, index->Lookup(t.AsString())));
        }
        out->push_back(it->second);
      }
      return Status::OK();
    };
    MethodCost cost;
    cost.per_call = 1.0;      // per-row share: copy the probed set
    cost.batch_setup = 10.0;  // the index probe, once per batch
    cost.fanout = 1.0;        // titles are near-unique
    VODAK_RETURN_IF_ERROR(methods_.Register(
        "Document",
        {"select_by_index",
         {{"t", Type::String()}},
         Type::SetOf(Type::OidOf("Document")),
         MethodLevel::kClassObject},
        std::move(impl), cost));
  }

  // Document::paragraphs: internal encoding, iterates sections.
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kNative;
    impl.native = [](MethodCallContext& ctx, const Value& self,
                     const std::vector<Value>&) -> Result<Value> {
      VODAK_ASSIGN_OR_RETURN(
          Value sections, ReadPropertyByName(*ctx.catalog, *ctx.store,
                                             self.AsOid(), "sections",
                                             ctx.snapshot_epoch));
      std::vector<Value> out;
      if (sections.is_set()) {
        for (const Value& sec : sections.AsSet()) {
          VODAK_ASSIGN_OR_RETURN(
              Value paragraphs,
              ReadPropertyByName(*ctx.catalog, *ctx.store, sec.AsOid(),
                                 "paragraphs", ctx.snapshot_epoch));
          if (paragraphs.is_set()) {
            for (const Value& p : paragraphs.AsSet()) out.push_back(p);
          }
        }
      }
      return Value::Set(std::move(out));
    };
    MethodCost cost;
    cost.per_call = 8.0;
    cost.fanout = 12.0;  // refined by Populate
    VODAK_RETURN_IF_ERROR(methods_.Register(
        "Document",
        {"paragraphs",
         {},
         Type::SetOf(Type::OidOf("Paragraph")),
         MethodLevel::kInstance},
        std::move(impl), cost));
  }

  // Paragraph→retrieve_by_string: the external IR function.
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kNative;
    impl.is_external = true;
    InvertedTextIndex* index = &paragraph_index_;
    const uint32_t cls = paragraph_class_id_;
    impl.native = [index, cls](MethodCallContext& ctx, const Value&,
                               const std::vector<Value>& args)
        -> Result<Value> {
      if (!args[0].is_string()) {
        return Status::TypeError("retrieve_by_string expects a STRING");
      }
      return LiveOidSet(ctx, cls, index->Search(args[0].AsString()));
    };
    // Set-at-a-time form: one postings intersection per *distinct*
    // search string in the batch — a WHERE clause calling the IR method
    // with a constant argument costs one Search per ~1024-row batch
    // instead of one per row.
    impl.native_batch = [index, cls](MethodCallContext& ctx,
                                     const ValueColumn&, size_t n,
                                     const std::vector<ValueColumn>& args,
                                     ValueColumn* out) -> Status {
      std::map<std::string, Value> probes;
      for (size_t i = 0; i < n; ++i) {
        const Value& s = args[0][i];
        if (!s.is_string()) {
          return Status::TypeError("retrieve_by_string expects a STRING");
        }
        auto [it, fresh] = probes.try_emplace(s.AsString());
        if (fresh) {
          VODAK_ASSIGN_OR_RETURN(
              it->second, LiveOidSet(ctx, cls, index->Search(s.AsString())));
        }
        out->push_back(it->second);
      }
      return Status::OK();
    };
    MethodCost cost;
    cost.per_call = 1.0;      // per-row share: copy the result set
    cost.batch_setup = 50.0;  // postings traversal; refined by Populate
    cost.fanout = 100.0;
    VODAK_RETURN_IF_ERROR(methods_.Register(
        "Paragraph",
        {"retrieve_by_string",
         {{"s", Type::String()}},
         Type::SetOf(Type::OidOf("Paragraph")),
         MethodLevel::kClassObject},
        std::move(impl), cost));
  }

  // Paragraph::document: the path method of §2.1
  // (`RETURN section.document`).
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kPath;
    impl.path = {"section", "document"};
    MethodCost cost;
    // Two by-name property reads plus a per-row dispatch: dearer than
    // the equivalent path p.section.document, which the batch
    // evaluator reads as two property columns (E1 picks the path).
    cost.per_call = 3.0;
    VODAK_RETURN_IF_ERROR(methods_.Register(
        "Paragraph",
        {"document", {}, Type::OidOf("Document"), MethodLevel::kInstance},
        std::move(impl), cost));
  }

  // Paragraph::contains_string: external IR predicate; per-call cost is
  // a full tokenization of the paragraph body — the expensive predicate
  // of Example 4.
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kNative;
    impl.is_external = true;
    impl.native = [](MethodCallContext& ctx, const Value& self,
                     const std::vector<Value>& args) -> Result<Value> {
      if (!args[0].is_string()) {
        return Status::TypeError("contains_string expects a STRING");
      }
      VODAK_ASSIGN_OR_RETURN(
          Value content, ReadPropertyByName(*ctx.catalog, *ctx.store,
                                            self.AsOid(), "content",
                                            ctx.snapshot_epoch));
      if (!content.is_string()) return Value::Bool(false);
      return Value::Bool(InvertedTextIndex::MatchesText(
          content.AsString(), args[0].AsString()));
    };
    // Set-at-a-time form: one store column read for the bodies and one
    // query tokenization per distinct search string; the per-row body
    // tokenization is the irreducible marginal cost.
    impl.native_batch = [](MethodCallContext& ctx,
                           const ValueColumn& selves, size_t n,
                           const std::vector<ValueColumn>& args,
                           ValueColumn* out) -> Status {
      std::vector<Value> contents;
      contents.reserve(n);
      VODAK_RETURN_IF_ERROR(
          ReadReceiverColumn(ctx, selves, "content", &contents));
      std::map<std::string, std::vector<std::string>> tokens;
      for (size_t i = 0; i < n; ++i) {
        const Value& s = args[0][i];
        if (!s.is_string()) {
          return Status::TypeError("contains_string expects a STRING");
        }
        auto [it, fresh] = tokens.try_emplace(s.AsString());
        if (fresh) {
          it->second = InvertedTextIndex::QueryTokens(s.AsString());
        }
        out->push_back(Value::Bool(
            contents[i].is_string() &&
            InvertedTextIndex::MatchesTokens(contents[i].AsString(),
                                             it->second)));
      }
      return Status::OK();
    };
    MethodCost cost;
    cost.per_call = 30.0;    // tokenizes the body; refined by Populate
    cost.batch_setup = 3.0;  // column read + query tokenization
    cost.selectivity = 0.1;
    VODAK_RETURN_IF_ERROR(methods_.Register(
        "Paragraph",
        {"contains_string",
         {{"s", Type::String()}},
         Type::Bool(),
         MethodLevel::kInstance},
        std::move(impl), cost));
  }

  // Paragraph::sameDocument: parameterized internal method (the join
  // predicate of Example 1); body mirrors
  // `RETURN (SELF→document() == p→document())`.
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kNative;
    impl.native = [](MethodCallContext& ctx, const Value& self,
                     const std::vector<Value>& args) -> Result<Value> {
      if (!args[0].is_oid()) {
        return Status::TypeError("sameDocument expects a Paragraph");
      }
      VODAK_ASSIGN_OR_RETURN(
          Value mine,
          ctx.methods->InvokeInstance(ctx, self.AsOid(), "document", {}));
      VODAK_ASSIGN_OR_RETURN(
          Value theirs,
          ctx.methods->InvokeInstance(ctx, args[0].AsOid(), "document", {}));
      return Value::Bool(mine == theirs);
    };
    MethodCost cost;
    cost.per_call = 5.0;
    cost.selectivity = 0.05;  // ~1/num_documents; refined by Populate
    VODAK_RETURN_IF_ERROR(methods_.Register(
        "Paragraph",
        {"sameDocument",
         {{"p", Type::OidOf("Paragraph")}},
         Type::Bool(),
         MethodLevel::kInstance},
        std::move(impl), cost));
  }

  // Paragraph::wordCount: derived data (§5.1), recomputed per call.
  {
    MethodImpl impl;
    impl.kind = MethodImplKind::kNative;
    impl.native = [](MethodCallContext& ctx, const Value& self,
                     const std::vector<Value>&) -> Result<Value> {
      VODAK_ASSIGN_OR_RETURN(
          Value content, ReadPropertyByName(*ctx.catalog, *ctx.store,
                                            self.AsOid(), "content",
                                            ctx.snapshot_epoch));
      if (!content.is_string()) return Value::Int(0);
      return Value::Int(
          static_cast<int64_t>(CountWords(content.AsString())));
    };
    // Set-at-a-time form: the body read is a single column read; the
    // per-row word count remains.
    impl.native_batch = [](MethodCallContext& ctx,
                           const ValueColumn& selves, size_t n,
                           const std::vector<ValueColumn>&,
                           ValueColumn* out) -> Status {
      std::vector<Value> contents;
      contents.reserve(n);
      VODAK_RETURN_IF_ERROR(
          ReadReceiverColumn(ctx, selves, "content", &contents));
      for (const Value& content : contents) {
        out->push_back(
            content.is_string()
                ? Value::Int(
                      static_cast<int64_t>(CountWords(content.AsString())))
                : Value::Int(0));
      }
      return Status::OK();
    };
    MethodCost cost;
    cost.per_call = 30.0;
    cost.batch_setup = 1.0;  // the body column read
    VODAK_RETURN_IF_ERROR(methods_.Register(
        "Paragraph",
        {"wordCount", {}, Type::Int(), MethodLevel::kInstance},
        std::move(impl), cost));
  }
  return Status::OK();
}

Status DocumentDb::Init() {
  if (initialized_) return Status::InvalidArgument("Init called twice");
  VODAK_RETURN_IF_ERROR(DefineSchema());
  VODAK_RETURN_IF_ERROR(RegisterMethods());
  initialized_ = true;
  return Status::OK();
}

Status DocumentDb::Populate(const CorpusParams& params) {
  if (!initialized_) return Status::InvalidArgument("Init not called");
  params_ = params;
  Rng rng(params.seed);
  ZipfSampler zipf(params.vocabulary_size, params.zipf_theta,
                   params.seed ^ 0xbeef);

  auto term = [](size_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "term%04zu", i);
    return std::string(buf);
  };

  for (uint32_t d = 0; d < params.num_documents; ++d) {
    VODAK_ASSIGN_OR_RETURN(Oid doc, store_.CreateObject(document_class_id_));
    std::string title = d == 0 ? std::string(kSpecialTitle)
                               : "Title " + std::to_string(d);
    VODAK_RETURN_IF_ERROR(
        store_.SetProperty(doc, kDocTitle, Value::String(title)));
    VODAK_RETURN_IF_ERROR(store_.SetProperty(
        doc, kDocAuthor,
        Value::String("Author " + std::to_string(d % 7))));
    title_index_.Insert(title, doc);

    std::vector<Value> section_oids;
    std::vector<Value> large_paragraphs;
    for (uint32_t s = 0; s < params.sections_per_document; ++s) {
      VODAK_ASSIGN_OR_RETURN(Oid sec,
                             store_.CreateObject(section_class_id_));
      VODAK_RETURN_IF_ERROR(store_.SetProperty(
          sec, kSecNumber, Value::Int(static_cast<int64_t>(s))));
      VODAK_RETURN_IF_ERROR(store_.SetProperty(
          sec, kSecTitle,
          Value::String("Section " + std::to_string(d) + "." +
                        std::to_string(s))));
      VODAK_RETURN_IF_ERROR(
          store_.SetProperty(sec, kSecDocument, Value::OfOid(doc)));
      section_oids.push_back(Value::OfOid(sec));

      std::vector<Value> paragraph_oids;
      for (uint32_t p = 0; p < params.paragraphs_per_section; ++p) {
        VODAK_ASSIGN_OR_RETURN(Oid par,
                               store_.CreateObject(paragraph_class_id_));
        VODAK_RETURN_IF_ERROR(store_.SetProperty(
            par, kParNumber, Value::Int(static_cast<int64_t>(p))));
        VODAK_RETURN_IF_ERROR(
            store_.SetProperty(par, kParSection, Value::OfOid(sec)));

        bool is_large = rng.NextBool(params.large_paragraph_fraction);
        uint32_t words = is_large
                             ? params.large_paragraph_threshold + 20
                             : params.words_per_paragraph;
        std::string content;
        for (uint32_t w = 0; w < words; ++w) {
          if (w) content.push_back(' ');
          content += term(zipf.Next());
        }
        if (rng.NextBool(params.implementation_fraction)) {
          content += " ";
          content += kSearchWord;
        }
        paragraph_index_.Add(par, content);
        size_t word_count = CountWords(content);
        VODAK_RETURN_IF_ERROR(store_.SetProperty(
            par, kParContent, Value::String(std::move(content))));
        if (word_count > params.large_paragraph_threshold) {
          large_paragraphs.push_back(Value::OfOid(par));
        }
        paragraph_oids.push_back(Value::OfOid(par));
      }
      VODAK_RETURN_IF_ERROR(store_.SetProperty(
          sec, kSecParagraphs, Value::Set(std::move(paragraph_oids))));
    }
    VODAK_RETURN_IF_ERROR(store_.SetProperty(
        doc, kDocSections, Value::Set(std::move(section_oids))));
    VODAK_RETURN_IF_ERROR(store_.SetProperty(
        doc, kDocLargeParagraphs, Value::Set(std::move(large_paragraphs))));
  }

  // Refine cost annotations from actual corpus statistics, the way the
  // paper's "simple cost model" (§7) would be calibrated per database.
  // Batch-native methods split their cost into the marginal per-row work
  // (per_call) and the per-dispatch setup the set-at-a-time ABI pays
  // once per batch (batch_setup); scalar-only methods keep everything in
  // per_call as before.
  uint64_t num_paragraphs = params.num_documents *
                            params.sections_per_document *
                            params.paragraphs_per_section;
  double df = static_cast<double>(
      paragraph_index_.DocumentFrequency(kSearchWord));
  methods_.SetCost(
      "Paragraph", "contains_string", MethodLevel::kInstance,
      {static_cast<double>(params.words_per_paragraph),
       num_paragraphs ? df / static_cast<double>(num_paragraphs) : 0.1,
       1.0, 3.0});
  methods_.SetCost("Paragraph", "retrieve_by_string",
                   MethodLevel::kClassObject,
                   {1.0, 0.5, df > 0 ? df : 1.0, 20.0 + df});
  methods_.SetCost(
      "Document", "paragraphs", MethodLevel::kInstance,
      {2.0 * params.sections_per_document,
       0.5,
       static_cast<double>(params.sections_per_document *
                           params.paragraphs_per_section)});
  methods_.SetCost("Paragraph", "sameDocument", MethodLevel::kInstance,
                   {5.0,
                    params.num_documents
                        ? 1.0 / static_cast<double>(params.num_documents)
                        : 0.05,
                    1.0});
  methods_.SetCost("Paragraph", "wordCount", MethodLevel::kInstance,
                   {static_cast<double>(params.words_per_paragraph), 0.5,
                    1.0, 1.0});
  return Status::OK();
}

void DocumentDb::ResetCounters() {
  store_.mutable_stats()->Reset();
  methods_.ResetCounters();
  paragraph_index_.ResetCounters();
  title_index_.ResetCounters();
}

}  // namespace workload
}  // namespace vodak
