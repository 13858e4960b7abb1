#include "knmatch/cache/query_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "knmatch/obs/catalog.h"

namespace knmatch::cache {

uint64_t NextResultEpoch() {
  static std::atomic<uint64_t> next_epoch{1};
  return next_epoch.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// FNV-1a, 64-bit.
constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Near-miss probes examine at most this many entries per shard, most
/// recently used first, so a warm-start scan stays bounded no matter
/// how large the cache grows.
constexpr size_t kWarmScanLimit = 128;

void HashBytes(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t acc = *h;
  for (size_t i = 0; i < len; ++i) {
    acc ^= p[i];
    acc *= kFnvPrime;
  }
  *h = acc;
}

template <typename T>
void HashPod(uint64_t* h, const T& v) {
  HashBytes(h, &v, sizeof(v));
}

/// The per-dimension weighted difference, written with the same
/// operand order as the AD kernel (down cursor: query - value; up
/// cursor: value - query) so invalidation thresholds compare the exact
/// doubles a recomputed query would produce.
Value WeightedDif(Value coord, Value q, Value weight) {
  Value dif = coord < q ? q - coord : coord - q;
  return dif * weight;
}

void CollectPids(const std::vector<Neighbor>& set,
                 std::vector<PointId>* pids) {
  for (const Neighbor& nb : set) pids->push_back(nb.pid);
}

size_t NeighborVecBytes(const std::vector<Neighbor>& v) {
  return v.capacity() * sizeof(Neighbor) + sizeof(v);
}

}  // namespace

bool QueryResultCache::Key::operator==(const Key& other) const {
  return epoch == other.epoch && method == other.method &&
         metric == other.metric && n0 == other.n0 && n1 == other.n1 &&
         k == other.k && query == other.query && weights == other.weights;
}

uint64_t QueryResultCache::HashKey(const Key& key) {
  uint64_t h = kFnvOffset;
  HashPod(&h, key.epoch);
  HashPod(&h, key.method);
  HashPod(&h, key.metric);
  HashPod(&h, key.n0);
  HashPod(&h, key.n1);
  HashPod(&h, key.k);
  const uint64_t qsize = key.query.size();
  HashPod(&h, qsize);
  HashBytes(&h, key.query.data(), key.query.size() * sizeof(Value));
  const uint64_t wsize = key.weights.size();
  HashPod(&h, wsize);
  HashBytes(&h, key.weights.data(), key.weights.size() * sizeof(Value));
  return h;
}

QueryResultCache::QueryResultCache(CacheConfig config)
    : config_(config),
      shards_(std::max<size_t>(1, config.shards)) {
  config_.shards = shards_.size();
  per_shard_budget_ = std::max<size_t>(1, config_.max_bytes / shards_.size());
}

QueryResultCache::Shard& QueryResultCache::ShardFor(uint64_t hash) const {
  return shards_[hash % shards_.size()];
}

void QueryResultCache::PublishGauges() const {
  if (!obs::Enabled()) return;
  obs::Cat().cache_entries->Set(
      static_cast<int64_t>(total_entries_.load(std::memory_order_relaxed)));
  obs::Cat().cache_bytes->Set(
      static_cast<int64_t>(total_bytes_.load(std::memory_order_relaxed)));
}

std::optional<std::variant<KnMatchResult, FrequentKnMatchResult>>
QueryResultCache::LookupEntry(const Key& key) const {
  const uint64_t hash = HashKey(key);
  Shard& shard = ShardFor(hash);
  {
    std::scoped_lock lock(shard.mu);
    auto [lo, hi] = shard.by_hash.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second->key == key) {
        // Refresh recency: splice the entry to the LRU front.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (obs::Enabled()) {
          obs::Cat().cache_hits->Add();
          const uint64_t h = hits_.load(std::memory_order_relaxed);
          const uint64_t m = misses_.load(std::memory_order_relaxed);
          obs::Cat().cache_hit_ratio->Set(
              static_cast<int64_t>(100 * h / (h + m)));
        }
        return it->second->result;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) {
    obs::Cat().cache_misses->Add();
    const uint64_t h = hits_.load(std::memory_order_relaxed);
    const uint64_t m = misses_.load(std::memory_order_relaxed);
    obs::Cat().cache_hit_ratio->Set(static_cast<int64_t>(100 * h / (h + m)));
  }
  return std::nullopt;
}

void QueryResultCache::EraseEntry(Shard& shard,
                                  std::list<Entry>::iterator it) {
  const uint64_t hash = HashKey(it->key);
  auto [lo, hi] = shard.by_hash.equal_range(hash);
  for (auto h = lo; h != hi; ++h) {
    if (h->second == it) {
      shard.by_hash.erase(h);
      break;
    }
  }
  for (const PointId pid : it->answer_pids) {
    auto p = shard.by_pid.find(pid);
    if (p == shard.by_pid.end()) continue;
    auto& vec = p->second;
    vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
    if (vec.empty()) shard.by_pid.erase(p);
  }
  shard.bytes -= std::min(shard.bytes, it->bytes);
  total_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
  total_entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.lru.erase(it);
}

void QueryResultCache::StoreEntry(
    Key key, std::variant<KnMatchResult, FrequentKnMatchResult> result) {
  Entry entry;
  entry.key = std::move(key);
  entry.result = std::move(result);

  // Derive the invalidation metadata: the answer pids (inverted-index
  // side) and the per-level k-th best differences (insert guard).
  const size_t levels = entry.key.n1 - entry.key.n0 + 1;
  entry.level_kth.assign(levels, kInfValue);
  if (const auto* km = std::get_if<KnMatchResult>(&entry.result)) {
    CollectPids(km->matches, &entry.answer_pids);
    if (km->matches.size() >= entry.key.k && !km->matches.empty()) {
      entry.level_kth[0] = km->matches.back().distance;
    }
  } else {
    const auto& fr = std::get<FrequentKnMatchResult>(entry.result);
    CollectPids(fr.matches, &entry.answer_pids);
    for (size_t lvl = 0; lvl < fr.per_n_sets.size() && lvl < levels; ++lvl) {
      const auto& set = fr.per_n_sets[lvl];
      CollectPids(set, &entry.answer_pids);
      if (set.size() >= entry.key.k && !set.empty()) {
        entry.level_kth[lvl] = set.back().distance;
      }
    }
  }
  std::sort(entry.answer_pids.begin(), entry.answer_pids.end());
  entry.answer_pids.erase(
      std::unique(entry.answer_pids.begin(), entry.answer_pids.end()),
      entry.answer_pids.end());

  entry.bytes = sizeof(Entry) +
                entry.key.query.capacity() * sizeof(Value) +
                entry.key.weights.capacity() * sizeof(Value) +
                entry.answer_pids.capacity() * sizeof(PointId) +
                entry.level_kth.capacity() * sizeof(Value);
  if (const auto* km = std::get_if<KnMatchResult>(&entry.result)) {
    entry.bytes += NeighborVecBytes(km->matches);
  } else {
    const auto& fr = std::get<FrequentKnMatchResult>(entry.result);
    entry.bytes += NeighborVecBytes(fr.matches) +
                   fr.frequencies.capacity() * sizeof(uint32_t);
    for (const auto& set : fr.per_n_sets) {
      entry.bytes += NeighborVecBytes(set);
    }
  }

  const uint64_t hash = HashKey(entry.key);
  Shard& shard = ShardFor(hash);
  uint64_t evicted = 0;
  {
    std::scoped_lock lock(shard.mu);
    // Replace any entry with the same key.
    auto [lo, hi] = shard.by_hash.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second->key == entry.key) {
        EraseEntry(shard, it->second);
        break;
      }
    }
    shard.lru.push_front(std::move(entry));
    auto it = shard.lru.begin();
    shard.by_hash.emplace(hash, it);
    for (const PointId pid : it->answer_pids) {
      shard.by_pid[pid].push_back(it);
    }
    shard.bytes += it->bytes;
    total_bytes_.fetch_add(it->bytes, std::memory_order_relaxed);
    total_entries_.fetch_add(1, std::memory_order_relaxed);
    // Evict from the cold tail while over budget; an entry larger than
    // the whole shard budget evicts itself (the cache declines it).
    while (shard.bytes > per_shard_budget_ && !shard.lru.empty()) {
      EraseEntry(shard, std::prev(shard.lru.end()));
      ++evicted;
    }
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  if (evicted != 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (obs::Enabled()) obs::Cat().cache_evictions->Add(evicted);
  }
  if (obs::Enabled()) obs::Cat().cache_stores->Add();
  PublishGauges();
}

std::optional<KnMatchResult> QueryResultCache::LookupKnMatch(
    uint64_t epoch, std::span<const Value> query, size_t n, size_t k,
    std::span<const Value> weights) const {
  Key key;
  key.epoch = epoch;
  key.method = CachedMethod::kKnMatch;
  key.n0 = key.n1 = static_cast<uint32_t>(n);
  key.k = static_cast<uint32_t>(k);
  key.query.assign(query.begin(), query.end());
  key.weights.assign(weights.begin(), weights.end());
  auto hit = LookupEntry(key);
  if (!hit) return std::nullopt;
  return std::get<KnMatchResult>(std::move(*hit));
}

std::optional<FrequentKnMatchResult> QueryResultCache::LookupFrequent(
    uint64_t epoch, std::span<const Value> query, size_t n0, size_t n1,
    size_t k, std::span<const Value> weights) const {
  Key key;
  key.epoch = epoch;
  key.method = CachedMethod::kFrequentKnMatch;
  key.n0 = static_cast<uint32_t>(n0);
  key.n1 = static_cast<uint32_t>(n1);
  key.k = static_cast<uint32_t>(k);
  key.query.assign(query.begin(), query.end());
  key.weights.assign(weights.begin(), weights.end());
  auto hit = LookupEntry(key);
  if (!hit) return std::nullopt;
  return std::get<FrequentKnMatchResult>(std::move(*hit));
}

std::optional<KnMatchResult> QueryResultCache::LookupKnn(
    uint64_t epoch, std::span<const Value> query, size_t k,
    Metric metric) const {
  Key key;
  key.epoch = epoch;
  key.method = CachedMethod::kKnn;
  key.metric = static_cast<uint8_t>(metric);
  key.n0 = key.n1 = 1;
  key.k = static_cast<uint32_t>(k);
  key.query.assign(query.begin(), query.end());
  auto hit = LookupEntry(key);
  if (!hit) return std::nullopt;
  return std::get<KnMatchResult>(std::move(*hit));
}

void QueryResultCache::StoreKnMatch(uint64_t epoch,
                                    std::span<const Value> query, size_t n,
                                    size_t k, std::span<const Value> weights,
                                    const KnMatchResult& result) {
  Key key;
  key.epoch = epoch;
  key.method = CachedMethod::kKnMatch;
  key.n0 = key.n1 = static_cast<uint32_t>(n);
  key.k = static_cast<uint32_t>(k);
  key.query.assign(query.begin(), query.end());
  key.weights.assign(weights.begin(), weights.end());
  StoreEntry(std::move(key), result);
}

void QueryResultCache::StoreFrequent(uint64_t epoch,
                                     std::span<const Value> query, size_t n0,
                                     size_t n1, size_t k,
                                     std::span<const Value> weights,
                                     const FrequentKnMatchResult& result) {
  Key key;
  key.epoch = epoch;
  key.method = CachedMethod::kFrequentKnMatch;
  key.n0 = static_cast<uint32_t>(n0);
  key.n1 = static_cast<uint32_t>(n1);
  key.k = static_cast<uint32_t>(k);
  key.query.assign(query.begin(), query.end());
  key.weights.assign(weights.begin(), weights.end());
  StoreEntry(std::move(key), result);
}

void QueryResultCache::StoreKnn(uint64_t epoch, std::span<const Value> query,
                                size_t k, Metric metric,
                                const KnMatchResult& result) {
  Key key;
  key.epoch = epoch;
  key.method = CachedMethod::kKnn;
  key.metric = static_cast<uint8_t>(metric);
  key.n0 = key.n1 = 1;
  key.k = static_cast<uint32_t>(k);
  key.query.assign(query.begin(), query.end());
  StoreEntry(std::move(key), result);
}

std::optional<WarmSeeds> QueryResultCache::FindWarmSeeds(
    uint64_t epoch, CachedMethod method, std::span<const Value> query,
    size_t n0, size_t n1, size_t k, std::span<const Value> weights) const {
  if (!(config_.warm_radius > 0)) return std::nullopt;
  std::optional<WarmSeeds> best;
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    size_t examined = 0;
    for (const Entry& e : shard.lru) {
      if (++examined > kWarmScanLimit) break;
      const Key& ek = e.key;
      if (ek.epoch != epoch || ek.method != method ||
          ek.n0 != static_cast<uint32_t>(n0) ||
          ek.n1 != static_cast<uint32_t>(n1) ||
          ek.k != static_cast<uint32_t>(k) ||
          ek.query.size() != query.size() ||
          !std::equal(ek.weights.begin(), ek.weights.end(), weights.begin(),
                      weights.end())) {
        continue;
      }
      double dist = 0;
      for (size_t i = 0; i < query.size() && dist <= config_.warm_radius;
           ++i) {
        dist = std::max(dist, std::abs(ek.query[i] - query[i]));
      }
      if (dist > config_.warm_radius) continue;
      if (!best || dist < best->query_distance) {
        best = WarmSeeds{e.answer_pids, dist};
      }
    }
  }
  return best;
}

void QueryResultCache::OnPointErased(PointId pid) {
  uint64_t evicted = 0;
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    auto it = shard.by_pid.find(pid);
    if (it == shard.by_pid.end()) continue;
    // EraseEntry edits by_pid[pid]; work from a copy.
    std::vector<std::list<Entry>::iterator> victims = it->second;
    for (auto victim : victims) EraseEntry(shard, victim);
    evicted += victims.size();
  }
  if (evicted != 0) {
    invalidated_erase_.fetch_add(evicted, std::memory_order_relaxed);
    if (obs::Enabled()) obs::Cat().cache_invalidated_erase->Add(evicted);
  }
  PublishGauges();
}

void QueryResultCache::OnPointInserted(PointId pid,
                                       std::span<const Value> coords) {
  (void)pid;
  uint64_t evicted = 0;
  std::vector<Value> difs;
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    std::vector<std::list<Entry>::iterator> victims;
    for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
      const Key& ek = it->key;
      bool affected = false;
      if (ek.query.size() != coords.size()) {
        // Shape mismatch can only mean the epoch was misused across
        // datasets; evict rather than risk staleness.
        affected = true;
      } else if (ek.method == CachedMethod::kKnn) {
        const Value d = MetricDistance(coords, ek.query,
                                       static_cast<Metric>(ek.metric));
        affected = d <= it->level_kth[0];
      } else {
        difs.resize(coords.size());
        for (size_t i = 0; i < coords.size(); ++i) {
          const Value w = ek.weights.empty() ? Value{1} : ek.weights[i];
          difs[i] = WeightedDif(coords[i], ek.query[i], w);
        }
        std::sort(difs.begin(), difs.end());
        // The new point can enter the level-n answer set only if its
        // n-match difference is within that level's k-th best;
        // otherwise the cached sets are unchanged.
        for (uint32_t n = ek.n0; n <= ek.n1 && !affected; ++n) {
          affected = difs[n - 1] <= it->level_kth[n - ek.n0];
        }
      }
      if (affected) victims.push_back(it);
    }
    for (auto victim : victims) EraseEntry(shard, victim);
    evicted += victims.size();
  }
  if (evicted != 0) {
    invalidated_insert_.fetch_add(evicted, std::memory_order_relaxed);
    if (obs::Enabled()) obs::Cat().cache_invalidated_insert->Add(evicted);
  }
  PublishGauges();
}

void QueryResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    total_entries_.fetch_sub(shard.lru.size(), std::memory_order_relaxed);
    total_bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.lru.clear();
    shard.by_hash.clear();
    shard.by_pid.clear();
    shard.bytes = 0;
  }
  PublishGauges();
}

CacheStats QueryResultCache::Stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidated_insert =
      invalidated_insert_.load(std::memory_order_relaxed);
  stats.invalidated_erase =
      invalidated_erase_.load(std::memory_order_relaxed);
  stats.entries = total_entries_.load(std::memory_order_relaxed);
  stats.bytes = total_bytes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace knmatch::cache
