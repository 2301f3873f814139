// Seeded workload generation for the benchmark of record. The program
// under test sees only what this file produces: VQL read queries, VQL
// writes and Mutation batches. Everything is a pure function of the
// seed and of the populated corpus, so one seed always yields the same
// op stream (perfbench/test_perfbench.py asserts it via OpsDigest).
#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query_api.h"
#include "objstore/object_store.h"
#include "schema/catalog.h"

namespace perfbench {

/// splitmix64: the benchmark's own generator, so the op stream does not
/// change when the engine's Rng does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// Derives an independent sub-seed for one named stream.
uint64_t SubSeed(uint64_t seed, const std::string& tag);

/// One document as the generator sees it.
struct CorpusDoc {
  vodak::Oid oid;
  std::string title;
  std::vector<vodak::Oid> sections;
  /// Section i's `paragraphs` set.
  std::vector<std::vector<vodak::Oid>> paragraphs;
  /// The document's `largeParagraphs` set.
  std::vector<vodak::Oid> large;
};

/// What the generator needs to know about the populated corpus, read
/// back from the store after set-up (untimed).
struct Corpus {
  uint32_t paragraph_class = 0;
  uint32_t par_number_slot = 0;
  uint32_t par_section_slot = 0;
  uint32_t par_content_slot = 0;
  uint32_t sec_paragraphs_slot = 0;
  uint32_t doc_large_slot = 0;
  /// In extent order.
  std::vector<CorpusDoc> docs;
};

vodak::Result<Corpus> LoadCorpus(const vodak::Catalog& catalog,
                                 const vodak::ObjectStore& store);

/// One client operation.
struct Op {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  /// kRead: index into Workload::queries.
  size_t query = 0;
  /// kWrite: the request handed to Database::Submit.
  vodak::engine::QueryRequest write;
  /// kRead on read_write: compare with the row-mode oracle right after
  /// the read (the seeded sample).
  bool check = false;
  /// Canonical rendering: digest input and failure reports.
  std::string text;
};

/// The generated inputs of one workload.
struct Workload {
  std::string name;
  /// Distinct read queries; ops refer to them by index, so each
  /// distinct query's oracle digest is computed once.
  std::vector<std::string> queries;
  /// Closed-loop streams, one per client, cycled if a run outlasts
  /// them (example4, scan) or played once (read_write).
  std::vector<std::vector<Op>> clients;
  /// Single-client stream of the traced run.
  std::vector<Op> traced;
  /// example4 and scan: trailing writes timed after the read phase,
  /// which gives those workloads write latencies without making their
  /// timed phase anything but read-only.
  std::vector<Op> write_probe;
};

bool KnownWorkload(const std::string& name);
/// Closed-loop client connections: two on scan, so concurrent scans can
/// share a generation; one elsewhere (read_write's Submit caller, and
/// example4, whose planning is serialized on the service's event thread
/// and would otherwise queue its clients behind one another).
size_t ClientsFor(const std::string& name);
/// `part` numbers the parts of one end-to-end run (run.py): the corpus,
/// the distinct queries and the hot documents depend on the seed alone,
/// the timed streams on the seed and the part. The traced stream is
/// the same for every part.
Workload Generate(const std::string& name, uint64_t seed, double seconds,
                  const Corpus& corpus, int part);

/// FNV-1a over every op's canonical text, stream by stream.
uint64_t OpsDigest(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
