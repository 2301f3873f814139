// The query service's plan cache (docs/ARCHITECTURE.md §"Query service
// & admission control"): what planning one VQL text yields, kept so a
// repeated text skips parse, bind and the generated optimizer.
//
// Not thread-safe by design: the service owns one instance on its
// event thread, the only thread that plans.
#ifndef VODAK_SERVICE_PLAN_CACHE_H_
#define VODAK_SERVICE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "algebra/logical.h"
#include "objstore/epoch.h"

namespace vodak {
namespace service {

/// Everything a generation member takes from planning. Physical build,
/// segment choice and the snapshot pin stay per execution.
struct CachedPlan {
  algebra::LogicalRef plan;
  std::string result_ref;
};

/// When a plan was made: the store's committed epoch and the session's
/// optimizer generation. A plan is reused only under an equal stamp, so
/// a commit or a regenerated optimizer invalidates every entry.
struct PlanStamp {
  Epoch epoch = 0;
  uint64_t optimizer_generation = 0;

  bool operator==(const PlanStamp& other) const {
    return epoch == other.epoch &&
           optimizer_generation == other.optimizer_generation;
  }
};

/// A bounded LRU map from exact VQL text to its plan. All entries share
/// one stamp: the first call under a different stamp empties the cache.
class PlanCache {
 public:
  /// Far above the distinct texts a serving mix repeats (single digits
  /// in the benchmarks); bounds memory against a stream of one-off texts.
  static constexpr size_t kCapacity = 64;

  /// The plan for `vql` made under `stamp`, or null. A hit becomes the
  /// most recently used entry. The pointer is valid until the next call.
  const CachedPlan* Find(const std::string& vql, const PlanStamp& stamp);

  /// Stores `plan` for `vql` as made under `stamp`, evicting the least
  /// recently used entry when full, and returns the stored plan (valid
  /// until the next call). Callers insert only successful plans.
  const CachedPlan* Insert(const std::string& vql, const PlanStamp& stamp,
                           CachedPlan plan);

  size_t size() const { return index_.size(); }

 private:
  using Entry = std::pair<std::string, CachedPlan>;

  /// Empties the cache when `stamp` differs from its entries' stamp.
  void Revalidate(const PlanStamp& stamp);

  PlanStamp stamp_;
  /// Most recently used first.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace service
}  // namespace vodak

#endif  // VODAK_SERVICE_PLAN_CACHE_H_
