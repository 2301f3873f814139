#ifndef VODAK_EXTINDEX_INVERTED_INDEX_H_
#define VODAK_EXTINDEX_INVERTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "types/oid.h"

namespace vodak {

/// Substitute for the paper's external IR engine (DESIGN.md S6).
///
/// `Paragraph→retrieve_by_string(s)` is backed by `Search`, a set-at-a-time
/// postings intersection; the per-object `p→contains_string(s)` method is
/// backed by `MatchesText`, a full re-tokenization of the paragraph body.
/// Both use the same word-AND semantics (every query token occurs as a
/// token of the content), which is what makes equivalence E5 *exact* —
/// the property tests rely on this.
///
/// The cost asymmetry is the one the paper postulates for external
/// operations: Search is ~O(total postings of the query terms) while
/// scanning with MatchesText is O(total corpus text).
class InvertedTextIndex {
 public:
  InvertedTextIndex() = default;
  InvertedTextIndex(const InvertedTextIndex&) = delete;
  InvertedTextIndex& operator=(const InvertedTextIndex&) = delete;

  /// Indexes `text` under `owner`. Owners must be added at most once.
  void Add(Oid owner, std::string_view text);

  /// All owners whose text contains every token of `query`, sorted by Oid.
  /// Counts one search in the stats.
  std::vector<Oid> Search(std::string_view query) const;

  /// Word-AND containment test against raw `text` (not the index); the
  /// shared semantics for `contains_string`.
  static bool MatchesText(std::string_view text, std::string_view query);

  /// Tokenization half of MatchesText, split out so a set-at-a-time
  /// `contains_string` dispatch tokenizes the query once per batch
  /// instead of once per row.
  static std::vector<std::string> QueryTokens(std::string_view query);

  /// Matching half of MatchesText against pre-tokenized query tokens.
  /// MatchesText(text, q) == MatchesTokens(text, QueryTokens(q)) for a
  /// non-empty token list; an empty list means "no match" (MatchesText
  /// returns false for token-free queries).
  static bool MatchesTokens(std::string_view text,
                            const std::vector<std::string>& query_tokens);

  /// Document frequency of `word` (selectivity statistic for the cost
  /// model: the optimizer estimates |retrieve_by_string(s)| ≈ df).
  uint64_t DocumentFrequency(const std::string& word) const;

  uint64_t indexed_count() const { return indexed_count_; }
  uint64_t search_count() const {
    return search_count_.load(std::memory_order_relaxed);
  }
  uint64_t postings_scanned() const {
    return postings_scanned_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    search_count_.store(0, std::memory_order_relaxed);
    postings_scanned_.store(0, std::memory_order_relaxed);
  }

 private:
  /// word -> sorted postings list.
  std::map<std::string, std::vector<Oid>> postings_;
  uint64_t indexed_count_ = 0;
  // Relaxed atomics: searches run from concurrent drains.
  mutable std::atomic<uint64_t> search_count_{0};
  mutable std::atomic<uint64_t> postings_scanned_{0};
};

/// Ordered secondary index on a single attribute value, the substitute
/// for the user-defined index behind `Document→select_by_index(t)`
/// (§2.1). Point and range lookups are O(log n + hits).
class OrderedAttributeIndex {
 public:
  OrderedAttributeIndex() = default;

  void Insert(const std::string& key, Oid oid);

  /// All objects with exactly this key, sorted by Oid.
  std::vector<Oid> Lookup(const std::string& key) const;

  /// All objects with key in [lo, hi], sorted by Oid.
  std::vector<Oid> LookupRange(const std::string& lo,
                               const std::string& hi) const;

  uint64_t entry_count() const { return entry_count_; }
  uint64_t lookup_count() const {
    return lookup_count_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    lookup_count_.store(0, std::memory_order_relaxed);
  }

  /// Number of distinct keys (cost-model statistic).
  uint64_t distinct_keys() const { return entries_.size(); }

 private:
  std::map<std::string, std::vector<Oid>> entries_;
  uint64_t entry_count_ = 0;
  mutable std::atomic<uint64_t> lookup_count_{0};
};

}  // namespace vodak

#endif  // VODAK_EXTINDEX_INVERTED_INDEX_H_
