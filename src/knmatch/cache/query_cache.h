#ifndef KNMATCH_CACHE_QUERY_CACHE_H_
#define KNMATCH_CACHE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/types.h"
#include "knmatch/core/match_types.h"

namespace knmatch::cache {

/// Which entry point produced a cached answer. Part of the cache key:
/// a k-n-match and a kNN query over the same vector are different
/// questions and must never alias.
enum class CachedMethod : uint8_t {
  kKnMatch = 1,
  kFrequentKnMatch = 2,
  kKnn = 3,
};

/// Sizing and behavior knobs for a QueryResultCache.
struct CacheConfig {
  /// Total payload budget across all shards; the LRU tail is evicted
  /// when a store would exceed it. Accounting is an estimate (vector
  /// capacities plus fixed per-entry overhead), not malloc-exact.
  size_t max_bytes = size_t{32} << 20;
  /// Lock shards. Lookups from concurrent batch workers contend only
  /// within a shard; keys are spread by their FNV-1a hash.
  size_t shards = 8;
  /// Warm-start: a miss whose query lies within this L-infinity radius
  /// of a cached query of the same shape reuses the cached answer set
  /// as seed candidates (see core/ad_warm.h). 0 disables the probe.
  double warm_radius = 0;
};

/// Allocates a process-unique result epoch. Every cache-binding owner
/// — a SimilarityEngine instance (and each dataset generation within
/// one: recovery, EndIngest) or a shard::ShardRouter — keys its entries
/// under an epoch no entry has ever been written with, so answers can
/// never alias across owners sharing a cache.
uint64_t NextResultEpoch();

/// A point-in-time snapshot of the cache's counters and occupancy.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stores = 0;
  uint64_t evictions = 0;           // LRU / byte-budget evictions
  uint64_t invalidated_insert = 0;  // entries evicted by point inserts
  uint64_t invalidated_erase = 0;   // entries evicted by point erases
  size_t entries = 0;
  size_t bytes = 0;
};

/// Answer-set seeds returned by a near-miss probe: the union of the
/// cached entry's answer pids, plus the L-infinity distance between
/// the two queries (for diagnostics).
struct WarmSeeds {
  std::vector<PointId> pids;
  double query_distance = 0;
};

/// A bounded, sharded, exact-answer result cache for the engine's
/// three in-memory entry points (k-n-match, frequent k-n-match, kNN by
/// scan).
///
/// Keys are (dataset epoch, method, query vector, n-range, k, weights
/// [, metric]) hashed with FNV-1a; an exact hit returns a copy of the
/// stored result, which is bit-identical to re-running the query
/// because every entry point is deterministic given those inputs. Each
/// shard holds an intrusive LRU list under its own mutex, so the cache
/// is safe for concurrent lookups/stores from batch workers
/// (TSan-clean); the byte budget is enforced per shard.
///
/// Invalidation is precise, not epoch-global. A two-way inverted index
/// maps pid -> entries whose answer sets contain it, so an erase
/// evicts exactly the entries that could change (removing a point not
/// in an answer set cannot alter the k smallest differences). An
/// insert evicts an entry only when the new point's n-match difference
/// to the entry's query, at some level n in [n0, n1], is within the
/// entry's stored k-th best difference for that level (<=, so boundary
/// ties evict) — otherwise the point cannot displace any cached answer
/// and the entry survives. Cost: O(entries in cache * d) per mutation,
/// which is the price of keeping unrelated entries warm across
/// updates.
///
/// Note on served metadata: a hit returns the stored result verbatim,
/// including its attributes_retrieved cost counter, which describes
/// the run that populated the entry (the answer sets themselves are
/// guaranteed current; the cost of a hit is ~0 by construction).
class QueryResultCache {
 public:
  explicit QueryResultCache(CacheConfig config = CacheConfig());

  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  const CacheConfig& config() const { return config_; }

  // --- Exact-hit lookups. A hit refreshes the entry's LRU position
  // and returns a copy of the stored result; a miss returns nullopt.
  std::optional<KnMatchResult> LookupKnMatch(
      uint64_t epoch, std::span<const Value> query, size_t n, size_t k,
      std::span<const Value> weights) const;
  std::optional<FrequentKnMatchResult> LookupFrequent(
      uint64_t epoch, std::span<const Value> query, size_t n0, size_t n1,
      size_t k, std::span<const Value> weights) const;
  std::optional<KnMatchResult> LookupKnn(uint64_t epoch,
                                         std::span<const Value> query,
                                         size_t k, Metric metric) const;

  // --- Stores. Copy the result into the cache (replacing any entry
  // with the same key) and evict from the LRU tail if over budget.
  void StoreKnMatch(uint64_t epoch, std::span<const Value> query, size_t n,
                    size_t k, std::span<const Value> weights,
                    const KnMatchResult& result);
  void StoreFrequent(uint64_t epoch, std::span<const Value> query,
                     size_t n0, size_t n1, size_t k,
                     std::span<const Value> weights,
                     const FrequentKnMatchResult& result);
  void StoreKnn(uint64_t epoch, std::span<const Value> query, size_t k,
                Metric metric, const KnMatchResult& result);

  /// Near-miss probe for warm-starting the AD kernel: the most
  /// recently used entry with the same (epoch, method, n-range, k,
  /// weights) shape whose cached query lies within
  /// config().warm_radius of `query` in L-infinity. Returns the
  /// entry's answer-set pids (deduplicated); nullopt when the radius
  /// is 0 or nothing qualifies within the scan limit.
  std::optional<WarmSeeds> FindWarmSeeds(
      uint64_t epoch, CachedMethod method, std::span<const Value> query,
      size_t n0, size_t n1, size_t k,
      std::span<const Value> weights) const;

  // --- Invalidation hooks (see class comment). Safe to call
  // concurrently with lookups; the caller must ensure the dataset
  // mutation itself is ordered with in-flight queries (the engine's
  // InsertPoint contract).
  void OnPointErased(PointId pid);
  void OnPointInserted(PointId pid, std::span<const Value> coords);

  /// Drops every entry.
  void Clear();

  CacheStats Stats() const;

 private:
  /// The key fields, kept structured (not serialized) so near-miss
  /// probes and insert invalidation can read the query and weights
  /// back out of an entry.
  struct Key {
    uint64_t epoch = 0;
    CachedMethod method = CachedMethod::kKnMatch;
    uint8_t metric = 0;  // Metric, kKnn only
    uint32_t n0 = 0;
    uint32_t n1 = 0;
    uint32_t k = 0;
    std::vector<Value> query;
    std::vector<Value> weights;

    bool operator==(const Key& other) const;
  };

  struct Entry {
    Key key;
    std::variant<KnMatchResult, FrequentKnMatchResult> result;
    /// Sorted, deduplicated pids across every answer set of `result` —
    /// the entry side of the two-way inverted index.
    std::vector<PointId> answer_pids;
    /// Per-level k-th best difference, levels n0..n1 (one slot for
    /// kKnMatch/kKnn). kInfValue when the level's set holds fewer than
    /// k points (any insert could then enter it).
    std::vector<Value> level_kth;
    size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    /// LRU order: begin() = most recently used.
    std::list<Entry> lru;
    /// FNV-1a hash -> entries with that hash (collisions resolved by
    /// full key comparison).
    std::unordered_multimap<uint64_t, std::list<Entry>::iterator> by_hash;
    /// pid -> entries whose answer sets contain it (inverted index).
    std::unordered_map<PointId, std::vector<std::list<Entry>::iterator>>
        by_pid;
    size_t bytes = 0;
  };

  static uint64_t HashKey(const Key& key);
  Shard& ShardFor(uint64_t hash) const;

  /// Looks `key` up in its shard; on a hit moves the entry to the LRU
  /// front and returns a copy of its payload variant.
  std::optional<std::variant<KnMatchResult, FrequentKnMatchResult>>
  LookupEntry(const Key& key) const;

  /// Inserts (or replaces) the entry for `key`, then evicts from the
  /// shard's LRU tail while the shard exceeds its byte budget.
  void StoreEntry(Key key,
                  std::variant<KnMatchResult, FrequentKnMatchResult> result);

  /// Removes `it` from the shard's hash and inverted indexes and the
  /// LRU list. Caller holds the shard lock.
  void EraseEntry(Shard& shard, std::list<Entry>::iterator it);

  /// Publishes entry/byte gauges; call outside shard locks.
  void PublishGauges() const;

  CacheConfig config_;
  size_t per_shard_budget_ = 0;
  mutable std::vector<Shard> shards_;
  std::atomic<size_t> total_entries_{0};
  std::atomic<size_t> total_bytes_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stores_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidated_insert_{0};
  std::atomic<uint64_t> invalidated_erase_{0};
};

}  // namespace knmatch::cache

#endif  // KNMATCH_CACHE_QUERY_CACHE_H_
