#include "ops.h"

#include <cstdio>
#include <utility>

#include "methods/method_registry.h"

namespace perfbench {

using vodak::Mutation;
using vodak::Oid;
using vodak::Result;
using vodak::Value;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// The paper's search word and the wordCount() threshold of the LARGE
/// implication (CorpusParams defaults).
const char* kSearchWord = "implementation";
constexpr int kLargeThreshold = 100;

std::string Quote(const std::string& s) { return "'" + s + "'"; }

std::string Term(uint64_t rank) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "term%04llu",
                static_cast<unsigned long long>(rank));
  return buf;
}

/// Draws indices in exact proportion to their weights: every pass over
/// the deck deals index i exactly weights[i] times, in a seeded order.
/// A stream's mix of query shapes is then the same for every seed, and
/// each reported percentile lands in the same shape's samples.
class Deck {
 public:
  explicit Deck(const std::vector<uint32_t>& weights) {
    for (size_t i = 0; i < weights.size(); ++i) {
      cards_.insert(cards_.end(), weights[i], i);
    }
    next_ = cards_.size();
  }
  size_t Draw(Rng& rng) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng.Below(i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<size_t> cards_;
  size_t next_ = 0;
};

/// A weighted set of distinct read queries.
struct Mix {
  std::vector<std::string> queries;
  std::vector<uint32_t> weights;

  void Add(std::string query, uint32_t weight) {
    queries.push_back(std::move(query));
    weights.push_back(weight);
  }
};

/// Two documents whose titles the reads use and towards which a share
/// of the writes is biased, so edits land where reads look.
struct HotDocs {
  size_t a = 0;
  size_t b = 0;
};

HotDocs DrawHot(uint64_t seed, const Corpus& corpus) {
  Rng rng(SubSeed(seed, "hot"));
  HotDocs hot;
  hot.a = rng.Below(corpus.docs.size());
  do {
    hot.b = rng.Below(corpus.docs.size());
  } while (hot.b == hot.a);
  return hot;
}

/// The Example 4 family over two seeded titles and the paper's search
/// word. Weights put each reported percentile inside one query's
/// samples, never on the boundary between shapes of different cost: the
/// fast E2-only and select_by_index shapes take 20%, Example 4 itself
/// 60% (p50 in its middle), LARGE 5% and Example 2, the slowest shape,
/// 15% (p95 two thirds into its samples here, and a third into them on
/// read_write, where half the reads come from this mix).
Mix Example4Mix(uint64_t seed, const Corpus& corpus) {
  const HotDocs hot = DrawHot(seed, corpus);
  const std::string t1 = Quote(corpus.docs[hot.a].title);
  const std::string t2 = Quote(corpus.docs[hot.b].title);
  const std::string w = Quote(kSearchWord);
  Mix mix;
  for (const std::string& t : {t1, t2}) {
    mix.Add("ACCESS p FROM p IN Paragraph WHERE (p->document()).title == " + t,
            1);
    mix.Add("ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
            "Document->select_by_index(" + t + ")",
            1);
    mix.Add("ACCESS p FROM p IN Paragraph WHERE p->contains_string(" + w +
                ") AND (p->document()).title == " + t,
            6);
  }
  mix.Add("ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
          "WHERE p->contains_string(" + w + ")",
          3);
  mix.Add("ACCESS p FROM p IN Paragraph WHERE p->wordCount() > " +
              std::to_string(kLargeThreshold) + " AND p->contains_string(" +
              w + ")",
          1);
  return mix;
}

/// Extent scans. The seed draws the compared values, never the
/// selectivity: equalities hit one value of `number` and ranges span two
/// adjacent ones, so every query reads as many rows for every seed.
Mix ScanMix(uint64_t seed) {
  Rng rng(SubSeed(seed, "scan"));
  auto num = [&rng](uint64_t values) { return std::to_string(rng.Below(values)); };
  auto span = [&rng](const char* var, uint64_t values) {
    const uint64_t lo = rng.Below(values - 1);
    return std::string(var) + ".number >= " + std::to_string(lo) + " AND " + var +
           ".number <= " + std::to_string(lo + 1);
  };
  Mix mix;
  mix.Add("ACCESS p FROM p IN Paragraph WHERE p.number == " + num(4), 1);
  mix.Add("ACCESS p FROM p IN Paragraph WHERE " + span("p", 4), 1);
  mix.Add("ACCESS s FROM s IN Section WHERE s.number == " + num(3), 1);
  mix.Add("ACCESS s.title FROM s IN Section WHERE " + span("s", 3), 1);
  mix.Add("ACCESS p.number FROM p IN Paragraph", 1);
  mix.Add("ACCESS d.title FROM d IN Document", 1);
  mix.Add("ACCESS p.section.document.title FROM p IN Paragraph WHERE "
          "p.number == " + num(4),
          1);
  return mix;
}

/// Writes over the corpus: paragraph content and number edits, inserts
/// and deletes as Mutation batches, Document author edits as VQL
/// UPDATE. Like an application, a delete also removes the paragraph
/// from every set that references it (its section's `paragraphs`, its
/// document's `largeParagraphs`) in the same batch, so no reference
/// dangles and every read keeps a defined answer. Keeping the engine's
/// semantic knowledge true (indexes, inverse links, derived sets) is
/// left to the engine: inserts set `section` only, and edits never
/// touch `largeParagraphs`. The generator tracks the corpus as it
/// changes so no write targets a deleted object.
class WriteGen {
 public:
  WriteGen(uint64_t seed, const Corpus& corpus)
      : corpus_(corpus), hot_(DrawHot(seed, corpus)), docs_(corpus.docs) {}

  /// Content edits 60%, number edits 10%, inserts 10%, deletes 5% and
  /// author UPDATEs 15%, dealt from a deck of 20. By cost the kinds run
  /// number edit < content edit < insert < delete (microseconds) and
  /// UPDATE (milliseconds: it plans VQL and scans the Document extent),
  /// so p50 lands in the middle of the content edits and p95 inside the
  /// UPDATEs, never on a boundary between kinds.
  Op Next(Rng& rng) {
    Op op;
    op.kind = Op::Kind::kWrite;
    const size_t kind = kinds_.Draw(rng);
    if (kind == 0) {
      Edit(rng, corpus_.par_content_slot, Value::String(Body(rng)), "content",
           &op);
    } else if (kind == 1) {
      Edit(rng, corpus_.par_number_slot,
           Value::Int(static_cast<int64_t>(rng.Below(4))), "number", &op);
    } else if (kind == 2) {
      const CorpusDoc& doc = docs_[PickDoc(rng, /*need_live=*/false)];
      const Oid sec = doc.sections[rng.Below(doc.sections.size())];
      const std::string body = Body(rng);
      const int64_t number = static_cast<int64_t>(rng.Below(4));
      op.write.mutations.push_back(Mutation::Insert(
          corpus_.paragraph_class,
          {{corpus_.par_number_slot, Value::Int(number)},
           {corpus_.par_section_slot, Value::OfOid(sec)},
           {corpus_.par_content_slot, Value::String(body)}}));
      op.text = "W insert " + sec.ToString() + " " + std::to_string(number) +
                " " + body;
    } else if (kind == 3) {
      Delete(rng, &op);
    } else {
      const CorpusDoc& doc = docs_[PickDoc(rng, /*need_live=*/false)];
      op.write.vql = "UPDATE Document SET author = 'Author " +
                     std::to_string(rng.Below(50)) +
                     "' WHERE self.title == " + Quote(doc.title);
      op.text = "W " + op.write.vql;
    }
    return op;
  }

 private:
  static size_t LiveCount(const CorpusDoc& doc) {
    size_t n = 0;
    for (const auto& sec : doc.paragraphs) n += sec.size();
    return n;
  }

  /// A quarter of the writes go to the two hot documents.
  size_t PickDoc(Rng& rng, bool need_live) {
    for (;;) {
      size_t doc;
      if (rng.Chance(0.25)) {
        doc = rng.Chance(0.5) ? hot_.a : hot_.b;
      } else {
        doc = rng.Below(docs_.size());
      }
      if (!need_live || LiveCount(docs_[doc]) > 0) return doc;
    }
  }

  /// A live paragraph of a picked document: (doc, section, position).
  struct Target {
    size_t doc;
    size_t sec;
    size_t pos;
  };
  Target PickParagraph(Rng& rng) {
    Target t{PickDoc(rng, /*need_live=*/true), 0, 0};
    size_t k = rng.Below(LiveCount(docs_[t.doc]));
    const auto& secs = docs_[t.doc].paragraphs;
    while (k >= secs[t.sec].size()) k -= secs[t.sec++].size();
    t.pos = k;
    return t;
  }

  void Edit(Rng& rng, uint32_t slot, Value value, const char* what, Op* op) {
    const Target t = PickParagraph(rng);
    const Oid par = docs_[t.doc].paragraphs[t.sec][t.pos];
    op->text = std::string("W ") + what + " " + par.ToString() + " " +
               value.ToString();
    op->write.mutations.push_back(
        Mutation::Update(par, {{slot, std::move(value)}}));
  }

  static Value OidSet(const std::vector<Oid>& oids) {
    std::vector<Value> values;
    for (Oid o : oids) values.push_back(Value::OfOid(o));
    return Value::Set(std::move(values));
  }

  void Delete(Rng& rng, Op* op) {
    const Target t = PickParagraph(rng);
    CorpusDoc& doc = docs_[t.doc];
    auto& members = doc.paragraphs[t.sec];
    const Oid par = members[t.pos];
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(t.pos));
    auto& batch = op->write.mutations;
    batch.push_back(Mutation::Update(
        doc.sections[t.sec], {{corpus_.sec_paragraphs_slot, OidSet(members)}}));
    for (size_t i = 0; i < doc.large.size(); ++i) {
      if (doc.large[i] == par) {
        doc.large.erase(doc.large.begin() + static_cast<std::ptrdiff_t>(i));
        batch.push_back(
            Mutation::Update(doc.oid, {{corpus_.doc_large_slot, OidSet(doc.large)}}));
        break;
      }
    }
    batch.push_back(Mutation::Delete(par));
    op->text = "W delete " + par.ToString() + " (" +
               std::to_string(batch.size()) + " mutations)";
  }

  /// A paragraph body shaped like the corpus's: 30 words, or 120 (over
  /// the LARGE threshold) for 3 bodies in 20, and the search word in one
  /// body out of ten.
  std::string Body(Rng& rng) {
    const int words = long_bodies_.Draw(rng) == 1 ? kLargeThreshold + 20 : 30;
    std::string body;
    for (int w = 0; w < words; ++w) {
      if (w) body.push_back(' ');
      body += Term(rng.Below(200));
    }
    if (search_word_.Draw(rng) == 1) {
      body += " ";
      body += kSearchWord;
    }
    return body;
  }

  const Corpus& corpus_;
  const HotDocs hot_;
  std::vector<CorpusDoc> docs_;
  Deck kinds_{{12, 2, 2, 1, 3}};
  Deck long_bodies_{{17, 3}};
  Deck search_word_{{9, 1}};
};

Op ReadOp(Deck& deck, Rng& rng, size_t offset) {
  Op op;
  op.query = offset + deck.Draw(rng);
  return op;
}

void NameReads(const std::vector<std::string>& queries,
               std::vector<Op>* ops) {
  for (Op& op : *ops) {
    if (op.kind == Op::Kind::kRead) {
      op.text = std::string(op.check ? "R* " : "R ") + queries[op.query];
    }
  }
}

std::vector<Op> ReadOnlyStream(const Mix& mix, uint64_t seed,
                               const std::string& tag, size_t count) {
  Rng rng(SubSeed(seed, tag));
  Deck deck(mix.weights);
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) ops.push_back(ReadOp(deck, rng, 0));
  return ops;
}

/// read_write: every fifth op a write; reads taken in turn from the two
/// read-only mixes, so each write follows a scan-mix read; a seeded one
/// read in 32 is oracle-checked. A write's latency is a few
/// microseconds of cache misses, and how many depends on what ran just
/// before it: a fixed pattern keeps that the same for every seed.
std::vector<Op> MixedStream(const Mix& example4, const Mix& scan,
                            uint64_t seed, const std::string& tag,
                            size_t count, const Corpus& corpus) {
  Rng rng(SubSeed(seed, tag));
  WriteGen writes(seed, corpus);
  Deck example4_deck(example4.weights);
  Deck scan_deck(scan.weights);
  bool from_example4 = true;
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 5 == 4) {
      ops.push_back(writes.Next(rng));
      continue;
    }
    Op op = from_example4 ? ReadOp(example4_deck, rng, 0)
                          : ReadOp(scan_deck, rng, example4.queries.size());
    from_example4 = !from_example4;
    op.check = rng.Chance(1.0 / 32);
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, const std::string& tag) {
  Rng rng(Fnv(kFnvBasis ^ seed, tag));
  return rng.Next();
}

Result<Corpus> LoadCorpus(const vodak::Catalog& catalog,
                          const vodak::ObjectStore& store) {
  Corpus corpus;
  const vodak::ClassDef* doc = catalog.FindClass("Document");
  const vodak::ClassDef* sec = catalog.FindClass("Section");
  const vodak::ClassDef* par = catalog.FindClass("Paragraph");
  if (doc == nullptr || sec == nullptr || par == nullptr) {
    return vodak::Status::NotFound("document schema missing");
  }
  corpus.paragraph_class = par->class_id();
  corpus.par_number_slot = par->FindProperty("number")->slot;
  corpus.par_section_slot = par->FindProperty("section")->slot;
  corpus.par_content_slot = par->FindProperty("content")->slot;
  corpus.sec_paragraphs_slot = sec->FindProperty("paragraphs")->slot;
  corpus.doc_large_slot = doc->FindProperty("largeParagraphs")->slot;
  auto read = [&](Oid oid, const char* property) {
    return vodak::ReadPropertyByName(catalog, store, oid, property);
  };
  VODAK_ASSIGN_OR_RETURN(std::vector<Oid> docs, store.Extent(doc->class_id()));
  for (Oid d : docs) {
    CorpusDoc entry;
    entry.oid = d;
    VODAK_ASSIGN_OR_RETURN(Value title, read(d, "title"));
    VODAK_ASSIGN_OR_RETURN(Value sections, read(d, "sections"));
    VODAK_ASSIGN_OR_RETURN(Value large, read(d, "largeParagraphs"));
    entry.title = title.AsString();
    for (const Value& p : large.AsSet()) entry.large.push_back(p.AsOid());
    for (const Value& s : sections.AsSet()) {
      entry.sections.push_back(s.AsOid());
      VODAK_ASSIGN_OR_RETURN(Value pars, read(s.AsOid(), "paragraphs"));
      entry.paragraphs.emplace_back();
      for (const Value& p : pars.AsSet()) entry.paragraphs.back().push_back(p.AsOid());
    }
    corpus.docs.push_back(std::move(entry));
  }
  if (corpus.docs.size() < 2) {
    return vodak::Status::InvalidArgument("corpus needs two documents");
  }
  return corpus;
}

size_t ClientsFor(const std::string& name) { return name == "scan" ? 2 : 1; }

bool KnownWorkload(const std::string& name) {
  return name == "example4" || name == "scan" || name == "read_write";
}

Workload Generate(const std::string& name, uint64_t seed, double seconds,
                  const Corpus& corpus, int part) {
  // Ops of the traced run's single-client stream.
  constexpr size_t kTracedOps = 300;
  // Each part of a run draws its own timed streams from the seed.
  const std::string part_tag = part == 0 ? "" : "/part" + std::to_string(part);
  Workload w;
  w.name = name;
  const Mix example4 = Example4Mix(seed, corpus);
  const Mix scan = ScanMix(seed);
  if (name == "read_write") {
    w.queries = example4.queries;
    w.queries.insert(w.queries.end(), scan.queries.begin(),
                     scan.queries.end());
    // One client playing a fixed stream, so the sequence of committed
    // states (and with it the failure count) is fixed by the seed. Its
    // length takes about `seconds` on the reference machine.
    w.clients.push_back(MixedStream(example4, scan, seed, "client0" + part_tag,
                                    static_cast<size_t>(70 * seconds), corpus));
    w.traced = MixedStream(example4, scan, seed, "traced", kTracedOps, corpus);
  } else {
    // Streams longer than any run gets through, cycled if a run
    // outlasts them.
    constexpr size_t kStreamOps = 8192;
    constexpr size_t kWriteProbeOps = 800;
    const Mix& mix = name == "scan" ? scan : example4;
    w.queries = mix.queries;
    for (size_t c = 0; c < ClientsFor(name); ++c) {
      w.clients.push_back(
          ReadOnlyStream(mix, seed, "client" + std::to_string(c) + part_tag,
                         kStreamOps));
    }
    w.traced = ReadOnlyStream(mix, seed, "traced", kTracedOps);
    Rng rng(SubSeed(seed, "write_probe" + part_tag));
    WriteGen writes(seed, corpus);
    for (size_t i = 0; i < kWriteProbeOps; ++i) {
      w.write_probe.push_back(writes.Next(rng));
    }
  }
  for (auto& stream : w.clients) NameReads(w.queries, &stream);
  NameReads(w.queries, &w.traced);
  return w;
}

uint64_t OpsDigest(const Workload& workload) {
  uint64_t h = Fnv(kFnvBasis, workload.name);
  auto add = [&h](const std::vector<Op>& ops) {
    for (const Op& op : ops) h = Fnv(h, op.text + "\n");
    h = Fnv(h, "--\n");
  };
  for (const auto& stream : workload.clients) add(stream);
  add(workload.traced);
  add(workload.write_probe);
  return h;
}

}  // namespace perfbench
