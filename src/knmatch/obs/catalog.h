#ifndef KNMATCH_OBS_CATALOG_H_
#define KNMATCH_OBS_CATALOG_H_

#include "knmatch/obs/metrics.h"

namespace knmatch::obs {

/// Every metric the library itself records, registered once in the
/// global registry and cached here so hot paths pay a single pointer
/// chase per event. See docs/observability.md for the full catalog and
/// naming conventions. All names are prefixed knmatch_; counters end
/// in _total; durations are histograms in seconds.
struct Catalog {
  // --- The paper's cost model (Theorems 3.2/3.3: attributes
  // retrieved), split by algorithm. ---
  Counter* attrs_ad_memory;   // in-memory AD
  Counter* attrs_ad_disk;     // AD over the paged column store
  Counter* attrs_ad_btree;    // AD over the per-dimension B+-trees
  Counter* attrs_scan;        // sequential scan (always c*d)
  Counter* attrs_va;          // VA-file (approximation + refinement)
  Counter* pops_ad_memory;    // AD cursor-heap pops
  Counter* pops_ad_disk;
  Counter* pops_ad_btree;
  Counter* va_points_refined; // VA phase-2 exact re-checks

  // --- Block-ascending kernel (core/ad_kernel.h). ---
  Counter* ad_tree_replays;   // loser-tree leaf-to-root replays
  Histogram* ad_run_length;   // entries consumed per winner run

  // --- Query counts and latency, by entry point. ---
  Counter* queries_knmatch;
  Counter* queries_fknmatch;
  Counter* queries_disk;       // engine-level DiskFrequentKnMatch calls
  Histogram* latency_knmatch;  // seconds, in-memory AD k-n-match
  Histogram* latency_fknmatch;
  Histogram* latency_disk;     // seconds, CPU + modelled I/O

  // --- Storage layer (DiskSimulator / PagedFile / B+-tree). ---
  Counter* pages_sequential;
  Counter* pages_random;
  Counter* buffer_hits;
  Counter* failed_reads;
  Counter* read_retries;        // re-attempts after transient faults
  Counter* checksum_failures;   // CRC mismatches on page images
  Counter* quarantines;         // pages declared unrecoverable (ever)
  Gauge* quarantined_pages;     // currently quarantined
  Counter* btree_node_visits;
  Gauge* storage_row_pages;     // DiskStorageStats, mirrored as gauges
  Gauge* storage_column_pages;
  Gauge* storage_va_pages;

  // --- Fault injection (PR 2's counters, surfaced). ---
  Counter* faults_transient;
  Counter* faults_corruption;

  // --- Engine degradation chain. ---
  Counter* disk_method_scan;   // queries answered by each disk method
  Counter* disk_method_ad;
  Counter* disk_method_va;
  Counter* disk_method_memory;
  Counter* fallback_from_scan;  // methods abandoned mid-chain
  Counter* fallback_from_ad;
  Counter* fallback_from_va;

  // --- Batch executor. ---
  Counter* batch_calls;
  Counter* batch_queries;
  Counter* batch_skipped_deadline;
  Counter* batch_skipped_cancel;
  Gauge* batch_queue_depth;  // queries admitted but not yet finished
  Gauge* batch_workers;      // workers of the current executor

  // --- In-flight query governance (deadlines / budgets / shedding). ---
  Counter* governance_trip_deadline;    // in-flight deadline trips
  Counter* governance_trip_cancel;      // in-flight cancellations
  Counter* governance_trip_attributes;  // attribute-budget trips
  Counter* governance_trip_pages;       // page-budget trips
  Counter* governance_trip_scratch;     // scratch-memory admission refusals
  Counter* batch_shed_predicted;        // shed: predicted to miss deadline
  Counter* batch_dup_collapsed;         // duplicate queries answered once
  Counter* breaker_skipped;             // routings refused by open breakers
  Gauge* breaker_state_scan;  // 0 closed, 1 open, 2 half-open
  Gauge* breaker_state_ad;
  Gauge* breaker_state_va;
  Histogram* deadline_fraction;  // percent of the deadline consumed

  // --- Write-ahead log + live ingest (storage/wal.h, storage/
  // ingest.h). ---
  Counter* wal_appends;        // records appended (all types)
  Counter* wal_commits;        // commit records appended
  Counter* wal_fsyncs;         // Sync() calls (group commit batches)
  Counter* wal_bytes;          // framed bytes appended
  Counter* wal_checkpoints;    // checkpoint records appended
  Counter* ingest_txns;        // ingest transactions durably committed
  Counter* ingest_pages_flushed;     // page images flushed at checkpoint
  Counter* recoveries;               // Recover() runs
  Counter* recovery_replayed_pages;  // WAL page images redone
  Counter* recovery_discarded_txns;  // uncommitted txns dropped
  Gauge* snapshot_epoch;       // last published read-snapshot epoch
  Gauge* ingest_free_slots;    // reusable node slots across all trees

  // --- Query result cache (cache/query_cache.h). ---
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* cache_stores;
  Counter* cache_evictions;           // LRU / byte-budget evictions
  Counter* cache_invalidated_insert;  // precise invalidation, by cause
  Counter* cache_invalidated_erase;
  Counter* cache_warm_hits;       // near-misses answered by the warm path
  Counter* cache_warm_fallbacks;  // warm attempts that re-ran cold
  Gauge* cache_entries;
  Gauge* cache_bytes;
  Gauge* cache_hit_ratio;  // percent, hits / (hits + misses)

  // --- Sharded scatter-gather router (shard/shard_router.h). Mirrors
  // RouterStats 1:1; the equality tests hold them to each other. ---
  Counter* shard_queries;          // router-level scatter-gather queries
  Counter* shard_dispatches;       // shards dispatched (breaker allowed)
  Counter* shard_failovers;        // failover re-dispatches to replicas
  Counter* shard_breaker_skips;    // shards skipped on an open breaker
  Counter* shard_partial_answers;  // answers with shards missing
  Counter* shard_rebalances;       // Rebalance() runs that moved data
  Counter* shard_partitions_moved;
  Counter* shard_cache_hits;       // router-level result-cache hits
  Gauge* shard_count;              // shards in the current layout
  Gauge* shard_replicas;           // replica group size
  Histogram* shard_fanout_seconds;    // whole scatter+gather wall time
  Histogram* shard_dispatch_seconds;  // one shard's dispatch wall time

  // --- HTTP serving front end (serve/server.h). Mirrors ServerStats
  // 1:1; the equality tests hold them to each other. ---
  Counter* serve_conns_accepted;    // connections accepted
  Counter* serve_conns_closed;      // connections closed (any reason)
  Counter* serve_conns_refused;     // accepts refused at the conn cap
  Counter* serve_requests;          // complete requests parsed
  Counter* serve_responses_ok;      // 2xx responses written
  Counter* serve_responses_client_error;  // 4xx (shed included)
  Counter* serve_responses_server_error;  // 5xx (503/504 included)
  Counter* serve_shed;              // admission sheds (429)
  Counter* serve_deadline_hits;     // requests answered 504
  Counter* serve_malformed;         // protocol rejections (400/413/431/505)
  Counter* serve_torn_frames;       // peer EOF mid-request
  Counter* serve_idle_timeouts;     // slow-loris / idle closes
  Counter* serve_partial_answers;   // answers serialized with partial=true
  Counter* serve_drains;            // drains initiated
  Gauge* serve_connections;         // connections currently open
  Gauge* serve_inflight;            // admitted requests in flight
  Gauge* serve_ready;               // 1 accepting, 0 draining/stopped
  Histogram* serve_request_seconds; // arrival to response queued
};

/// The catalog over MetricsRegistry::Global(), built on first use
/// (thread-safe). Instrumentation sites call Cat().foo->Add(...).
const Catalog& Cat();

/// Per-worker batch latency histogram
/// knmatch_batch_query_seconds{worker="<worker>"}, registered in the
/// global registry on first use for that worker index.
Histogram* BatchWorkerLatency(size_t worker);

/// Per-shard point-count gauge knmatch_shard_points{shard="<shard>"},
/// registered in the global registry on first use for that shard index
/// and republished by the router after construction and rebalances.
Gauge* ShardPointsGauge(size_t shard);

}  // namespace knmatch::obs

#endif  // KNMATCH_OBS_CATALOG_H_
