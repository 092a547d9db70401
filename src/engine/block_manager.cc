#include "engine/block_manager.h"

#include <algorithm>

#include "obs/event_log.h"

namespace chopper::engine {

const char* to_string(EvictionPolicy policy) noexcept {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kCost:
      return "cost";
  }
  return "unknown";
}

void BlockManager::put(std::size_t dataset_id, CachedDataset data) {
  std::lock_guard lock(mu_);
  if (data.available.size() != data.partitions.size()) {
    data.available.assign(data.partitions.size(), 1);
  }
  auto& e = cache_[dataset_id];
  e.data = std::make_shared<CachedDataset>(std::move(data));
  e.last_access = ++tick_;
  e.pins = 0;
  enforce_locked();
}

bool BlockManager::contains(std::size_t dataset_id) const {
  std::lock_guard lock(mu_);
  return cache_.count(dataset_id) > 0;
}

std::size_t BlockManager::num_partitions(std::size_t dataset_id) const {
  std::lock_guard lock(mu_);
  const auto it = cache_.find(dataset_id);
  return it == cache_.end() ? 0 : it->second.data->partitions.size();
}

void BlockManager::touch_locked(std::size_t dataset_id) const {
  const auto it = cache_.find(dataset_id);
  if (it != cache_.end()) {
    const_cast<Entry&>(it->second).last_access = ++tick_;
  }
}

const CachedDataset* BlockManager::get(std::size_t dataset_id) const {
  std::lock_guard lock(mu_);
  const auto it = cache_.find(dataset_id);
  if (it == cache_.end()) return nullptr;
  touch_locked(dataset_id);
  return it->second.data.get();
}

CachedDataset* BlockManager::get_mutable(std::size_t dataset_id) {
  std::lock_guard lock(mu_);
  const auto it = cache_.find(dataset_id);
  if (it == cache_.end()) return nullptr;
  touch_locked(dataset_id);
  return it->second.data.get();
}

BlockManager::Pin BlockManager::pin(std::size_t dataset_id) {
  std::lock_guard lock(mu_);
  const auto it = cache_.find(dataset_id);
  if (it == cache_.end()) return {};
  touch_locked(dataset_id);
  ++it->second.pins;
  std::shared_ptr<CachedDataset> keep = it->second.data;
  Pin p;
  // Aliasing handle: keeps the object alive past remove/clear and, via the
  // deleter, releases the eviction-blocking pin count when dropped. The
  // `data == keep` identity check guards against an id being removed and
  // re-put while the pin was live.
  p.data_ = std::shared_ptr<CachedDataset>(
      keep.get(), [this, dataset_id, keep](CachedDataset*) mutable {
        std::lock_guard inner(mu_);
        const auto it2 = cache_.find(dataset_id);
        if (it2 != cache_.end() && it2->second.data == keep &&
            it2->second.pins > 0) {
          --it2->second.pins;
        }
        keep.reset();
      });
  return p;
}

void BlockManager::remove(std::size_t dataset_id) {
  std::lock_guard lock(mu_);
  cache_.erase(dataset_id);
}

void BlockManager::clear() {
  std::lock_guard lock(mu_);
  cache_.clear();
}

LossReport BlockManager::invalidate_node(std::size_t node) {
  std::lock_guard lock(mu_);
  LossReport report;
  for (auto& [id, entry] : cache_) {
    CachedDataset* data = entry.data.get();
    for (std::size_t p = 0; p < data->partitions.size(); ++p) {
      if (data->placement[p] != node || !data->available[p]) continue;
      const std::uint64_t b = data->partitions[p].bytes();
      report.lost_bytes += b;
      ++report.lost_tasks;
      data->bytes -= b;
      data->partitions[p] = Partition();
      data->available[p] = 0;
    }
  }
  return report;
}

void BlockManager::configure_budget(
    std::vector<std::uint64_t> per_node_capacity, MemoryLedger* ledger,
    double ledger_scale) {
  std::lock_guard lock(mu_);
  capacity_ = std::move(per_node_capacity);
  ledger_ = ledger;
  ledger_scale_ = ledger_scale;
}

std::uint64_t BlockManager::used_locked(std::size_t node) const {
  std::uint64_t b = 0;
  for (const auto& [id, entry] : cache_) {
    const CachedDataset& d = *entry.data;
    for (std::size_t p = 0; p < d.partitions.size(); ++p) {
      if (d.placement[p] == node && d.available[p]) {
        b += d.partitions[p].bytes();
      }
    }
  }
  return b;
}

std::uint64_t BlockManager::used_bytes(std::size_t node) const {
  std::lock_guard lock(mu_);
  return used_locked(node);
}

void BlockManager::set_eviction_policy(EvictionPolicy policy) {
  std::lock_guard lock(mu_);
  policy_ = policy;
}

EvictionPolicy BlockManager::eviction_policy() const {
  std::lock_guard lock(mu_);
  return policy_;
}

void BlockManager::merge_cache_plan(const CachePlanSnapshot& snapshot) {
  std::lock_guard lock(mu_);
  for (const auto& [id, g] : snapshot.guidance) plan_.guidance[id] = g;
  for (const auto& [pool, share] : snapshot.pool_share) {
    plan_.pool_share[pool] = share;
  }
}

std::optional<CacheGuidance> BlockManager::guidance_for(
    std::size_t dataset_id) const {
  std::lock_guard lock(mu_);
  const auto it = plan_.guidance.find(dataset_id);
  if (it == plan_.guidance.end()) return std::nullopt;
  return it->second;
}

bool BlockManager::evictable_locked(const Entry& entry, std::size_t id) const {
  if (entry.pins > 0) return false;  // a reader holds this dataset
  const auto g = plan_.guidance.find(id);
  // Planner-pinned working sets are never evicted, under either policy: the
  // OOM path kills the oversized task, not the pinned tenant's cache.
  if (g != plan_.guidance.end() && g->second.pinned) return false;
  return true;
}

std::vector<std::size_t> BlockManager::victim_order_locked() const {
  // Victim classes, evicted in order: 0 = planner-demoted (Drop, negative
  // priority); 1 = unplanned (LRU among themselves — the fallback order,
  // and the only class under kLru); 2 = planned, ascending priority
  // (cheapest-to-rebuild first). last_access then dataset id break ties, so
  // the order is deterministic for identical access histories.
  struct Key {
    int cls;
    double priority;
    std::uint64_t tick;
    std::size_t id;
  };
  std::vector<Key> keys;
  keys.reserve(cache_.size());
  for (const auto& [id, entry] : cache_) {
    Key k{1, 0.0, entry.last_access, id};
    if (policy_ == EvictionPolicy::kCost) {
      const auto g = plan_.guidance.find(id);
      if (g != plan_.guidance.end()) {
        k.cls = g->second.priority < 0.0 ? 0 : 2;
        k.priority = g->second.priority;
      }
    }
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.tick != b.tick) return a.tick < b.tick;
    return a.id < b.id;
  });
  std::vector<std::size_t> order;
  order.reserve(keys.size());
  for (const Key& k : keys) order.push_back(k.id);
  return order;
}

void BlockManager::evict_on_node_locked(
    std::size_t id, std::size_t node, std::uint64_t& used,
    std::map<std::string, std::uint64_t>& pool_bytes) {
  Entry& entry = cache_.at(id);
  CachedDataset& d = *entry.data;
  const auto g = plan_.guidance.find(id);
  const bool cost_pick = policy_ == EvictionPolicy::kCost &&
                         g != plan_.guidance.end();
  const std::string pool =
      g != plan_.guidance.end() ? g->second.pool : std::string();
  for (std::size_t p = 0; p < d.partitions.size(); ++p) {
    if (used <= capacity_[node]) break;
    if (d.placement[p] != node || !d.available[p]) continue;
    const std::uint64_t b = d.partitions[p].bytes();
    d.bytes -= b;
    d.partitions[p] = Partition();
    d.available[p] = 0;  // recomputable: lineage recovery heals on demand
    used -= std::min(used, b);
    if (!pool.empty()) {
      auto& pb = pool_bytes[pool];
      pb -= std::min(pb, b);
    }
    if (ledger_ != nullptr) {
      ledger_->add_evict(node,
                         static_cast<std::uint64_t>(static_cast<double>(b) *
                                                    ledger_scale_),
                         cost_pick);
    }
    if (event_log_ != nullptr && event_log_->enabled()) {
      obs::Event ev;
      ev.kind = obs::EventKind::kBlockEvict;
      ev.sim = event_log_->sim_hint();
      ev.dataset = id;
      ev.task = p;
      ev.node = node;
      ev.bytes = b;
      if (cost_pick) ev.detail = "cost";
      event_log_->emit(std::move(ev));
    }
  }
}

void BlockManager::enforce_locked() {
  if (capacity_.empty()) return;
  const std::vector<std::size_t> order = victim_order_locked();

  // Per-pool resident bytes and share floors (kCost with pool shares only).
  // A pool at or below share * total_budget is protected in the first pass;
  // the budget is hard, so a second pass ignores the floors when honoring
  // them would leave a node over budget.
  std::map<std::string, std::uint64_t> pool_bytes;
  std::map<std::string, std::uint64_t> pool_floor;
  if (policy_ == EvictionPolicy::kCost && !plan_.pool_share.empty()) {
    std::uint64_t total_budget = 0;
    for (const std::uint64_t c : capacity_) total_budget += c;
    for (const auto& [pool, share] : plan_.pool_share) {
      pool_floor[pool] = static_cast<std::uint64_t>(
          static_cast<double>(total_budget) * share);
    }
    for (const auto& [id, entry] : cache_) {
      const auto g = plan_.guidance.find(id);
      if (g == plan_.guidance.end() || g->second.pool.empty()) continue;
      const CachedDataset& d = *entry.data;
      std::uint64_t b = 0;
      for (std::size_t p = 0; p < d.partitions.size(); ++p) {
        if (d.available.empty() || d.available[p]) b += d.partitions[p].bytes();
      }
      pool_bytes[g->second.pool] += b;
    }
  }
  const auto pool_protected = [&](std::size_t id) {
    const auto g = plan_.guidance.find(id);
    if (g == plan_.guidance.end() || g->second.pool.empty()) return false;
    const auto f = pool_floor.find(g->second.pool);
    if (f == pool_floor.end()) return false;
    const auto b = pool_bytes.find(g->second.pool);
    return b != pool_bytes.end() && b->second <= f->second;
  };

  for (std::size_t node = 0; node < capacity_.size(); ++node) {
    std::uint64_t used = used_locked(node);
    if (used <= capacity_[node]) continue;
    for (const std::size_t id : order) {
      if (used <= capacity_[node]) break;
      if (!evictable_locked(cache_.at(id), id)) continue;
      if (pool_protected(id)) continue;  // tenant floor: defer to pass 2
      evict_on_node_locked(id, node, used, pool_bytes);
    }
    for (const std::size_t id : order) {
      if (used <= capacity_[node]) break;
      if (!evictable_locked(cache_.at(id), id)) continue;
      evict_on_node_locked(id, node, used, pool_bytes);
    }
  }
}

void BlockManager::enforce_budget() {
  std::lock_guard lock(mu_);
  enforce_locked();
}

std::uint64_t BlockManager::total_bytes() const {
  std::lock_guard lock(mu_);
  std::uint64_t b = 0;
  for (const auto& [id, entry] : cache_) b += entry.data->bytes;
  return b;
}

std::size_t BlockManager::count() const {
  std::lock_guard lock(mu_);
  return cache_.size();
}

}  // namespace chopper::engine
