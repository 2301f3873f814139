#include "service/plan_cache.h"

namespace vodak {
namespace service {

void PlanCache::Revalidate(const PlanStamp& stamp) {
  if (stamp == stamp_) return;
  lru_.clear();
  index_.clear();
  stamp_ = stamp;
}

const CachedPlan* PlanCache::Find(const std::string& vql,
                                  const PlanStamp& stamp) {
  Revalidate(stamp);
  auto it = index_.find(vql);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->second;
}

const CachedPlan* PlanCache::Insert(const std::string& vql,
                                    const PlanStamp& stamp,
                                    CachedPlan plan) {
  Revalidate(stamp);
  auto it = index_.find(vql);
  if (it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  } else if (index_.size() >= kCapacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(vql, std::move(plan));
  index_[vql] = lru_.begin();
  return &lru_.front().second;
}

}  // namespace service
}  // namespace vodak
