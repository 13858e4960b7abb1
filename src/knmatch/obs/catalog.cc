#include "knmatch/obs/catalog.h"

#include <string>

namespace knmatch::obs {

namespace {

Catalog BuildCatalog() {
  MetricsRegistry& r = MetricsRegistry::Global();
  Catalog c;

  const char* kAttrsName = "knmatch_attributes_retrieved_total";
  const char* kAttrsHelp =
      "Individual attributes retrieved (the paper's cost metric), by "
      "algorithm";
  c.attrs_ad_memory = r.GetCounter(kAttrsName, "algo=\"ad_memory\"",
                                   kAttrsHelp);
  c.attrs_ad_disk = r.GetCounter(kAttrsName, "algo=\"ad_disk\"", kAttrsHelp);
  c.attrs_ad_btree = r.GetCounter(kAttrsName, "algo=\"ad_btree\"",
                                  kAttrsHelp);
  c.attrs_scan = r.GetCounter(kAttrsName, "algo=\"scan\"", kAttrsHelp);
  c.attrs_va = r.GetCounter(kAttrsName, "algo=\"va\"", kAttrsHelp);

  const char* kPopsName = "knmatch_ad_heap_pops_total";
  const char* kPopsHelp =
      "AD cursor-heap pops (attributes consumed in ascending difference "
      "order), by algorithm";
  c.pops_ad_memory = r.GetCounter(kPopsName, "algo=\"ad_memory\"",
                                  kPopsHelp);
  c.pops_ad_disk = r.GetCounter(kPopsName, "algo=\"ad_disk\"", kPopsHelp);
  c.pops_ad_btree = r.GetCounter(kPopsName, "algo=\"ad_btree\"", kPopsHelp);

  c.va_points_refined = r.GetCounter(
      "knmatch_va_points_refined_total", "",
      "Candidate points exactly re-checked in the VA-file's refinement "
      "phase");

  c.ad_tree_replays = r.GetCounter(
      "knmatch_ad_tree_replays_total", "",
      "Loser-tree replays in the block-ascending AD kernel (one per "
      "winner run; pops per replay is the batching win)");
  c.ad_run_length = r.GetHistogram(
      "knmatch_ad_run_length", "",
      "Entries a winning cursor consumed per run in the block-ascending "
      "AD kernel");

  const char* kQueriesName = "knmatch_queries_total";
  const char* kQueriesHelp = "Queries executed, by entry point";
  c.queries_knmatch = r.GetCounter(kQueriesName, "kind=\"knmatch\"",
                                   kQueriesHelp);
  c.queries_fknmatch = r.GetCounter(kQueriesName, "kind=\"fknmatch\"",
                                    kQueriesHelp);
  c.queries_disk = r.GetCounter(kQueriesName, "kind=\"disk\"",
                                kQueriesHelp);

  const char* kLatencyName = "knmatch_query_seconds";
  const char* kLatencyHelp =
      "Query latency in seconds, by entry point (disk kind includes "
      "modelled I/O time)";
  c.latency_knmatch = r.GetHistogram(kLatencyName, "kind=\"knmatch\"",
                                     kLatencyHelp, 1e-9);
  c.latency_fknmatch = r.GetHistogram(kLatencyName, "kind=\"fknmatch\"",
                                      kLatencyHelp, 1e-9);
  c.latency_disk = r.GetHistogram(kLatencyName, "kind=\"disk\"",
                                  kLatencyHelp, 1e-9);

  const char* kPagesName = "knmatch_disk_pages_read_total";
  const char* kPagesHelp =
      "Physical page read attempts on the simulated disk, by access "
      "pattern";
  c.pages_sequential = r.GetCounter(kPagesName, "kind=\"sequential\"",
                                    kPagesHelp);
  c.pages_random = r.GetCounter(kPagesName, "kind=\"random\"", kPagesHelp);
  c.buffer_hits = r.GetCounter(
      "knmatch_disk_buffer_hits_total", "",
      "Reads absorbed by the shared buffer pool (no media access)");
  c.failed_reads = r.GetCounter(
      "knmatch_disk_failed_reads_total", "",
      "Physical read attempts that transferred nothing usable");
  c.read_retries = r.GetCounter(
      "knmatch_disk_read_retries_total", "",
      "Read re-attempts after transient failures (bounded per read by "
      "the retry budget)");
  c.checksum_failures = r.GetCounter(
      "knmatch_page_checksum_failures_total", "",
      "Page images that failed CRC32 verification");
  c.quarantines = r.GetCounter(
      "knmatch_disk_quarantines_total", "",
      "Pages declared unrecoverable and quarantined");
  c.quarantined_pages = r.GetGauge(
      "knmatch_disk_quarantined_pages", "",
      "Pages currently quarantined (reads refused without I/O)");
  c.btree_node_visits = r.GetCounter(
      "knmatch_btree_node_visits_total", "",
      "B+-tree node pages visited (charged root-to-leaf and sideways "
      "walks)");

  const char* kStorageName = "knmatch_storage_pages";
  const char* kStorageHelp =
      "Pages occupied by each disk-resident store";
  c.storage_row_pages = r.GetGauge(kStorageName, "store=\"row\"",
                                   kStorageHelp);
  c.storage_column_pages = r.GetGauge(kStorageName, "store=\"column\"",
                                      kStorageHelp);
  c.storage_va_pages = r.GetGauge(kStorageName, "store=\"va\"",
                                  kStorageHelp);

  const char* kFaultsName = "knmatch_faults_injected_total";
  const char* kFaultsHelp =
      "Faults delivered by the injector, by kind";
  c.faults_transient = r.GetCounter(kFaultsName, "kind=\"transient\"",
                                    kFaultsHelp);
  c.faults_corruption = r.GetCounter(kFaultsName, "kind=\"corruption\"",
                                     kFaultsHelp);

  const char* kMethodName = "knmatch_disk_method_total";
  const char* kMethodHelp =
      "Disk queries answered, by the method that produced the answer";
  c.disk_method_scan = r.GetCounter(kMethodName, "method=\"scan\"",
                                    kMethodHelp);
  c.disk_method_ad = r.GetCounter(kMethodName, "method=\"ad\"",
                                  kMethodHelp);
  c.disk_method_va = r.GetCounter(kMethodName, "method=\"va\"",
                                  kMethodHelp);
  c.disk_method_memory = r.GetCounter(kMethodName, "method=\"memory_ad\"",
                                      kMethodHelp);

  const char* kFallbackName = "knmatch_disk_fallbacks_total";
  const char* kFallbackHelp =
      "Methods abandoned in auto-routed degradation chains, by the "
      "method that failed";
  c.fallback_from_scan = r.GetCounter(kFallbackName, "from=\"scan\"",
                                      kFallbackHelp);
  c.fallback_from_ad = r.GetCounter(kFallbackName, "from=\"ad\"",
                                    kFallbackHelp);
  c.fallback_from_va = r.GetCounter(kFallbackName, "from=\"va\"",
                                    kFallbackHelp);

  c.batch_calls = r.GetCounter("knmatch_batch_calls_total", "",
                               "Batch API calls");
  c.batch_queries = r.GetCounter(
      "knmatch_batch_queries_total", "",
      "Queries executed (admitted and run) through the batch API");
  const char* kSkippedName = "knmatch_batch_skipped_total";
  const char* kSkippedHelp =
      "Batch queries skipped at their start boundary, by reason";
  c.batch_skipped_deadline = r.GetCounter(kSkippedName,
                                          "reason=\"deadline\"",
                                          kSkippedHelp);
  c.batch_skipped_cancel = r.GetCounter(kSkippedName, "reason=\"cancel\"",
                                        kSkippedHelp);
  c.batch_queue_depth = r.GetGauge(
      "knmatch_batch_queue_depth", "",
      "Queries of the in-flight batch not yet finished");
  c.batch_workers = r.GetGauge("knmatch_batch_workers", "",
                               "Worker threads of the current batch "
                               "executor");

  const char* kTripName = "knmatch_governance_trips_total";
  const char* kTripHelp =
      "Queries stopped in flight by governance, by reason";
  c.governance_trip_deadline = r.GetCounter(kTripName,
                                            "reason=\"deadline\"",
                                            kTripHelp);
  c.governance_trip_cancel = r.GetCounter(kTripName, "reason=\"cancel\"",
                                          kTripHelp);
  c.governance_trip_attributes = r.GetCounter(
      kTripName, "reason=\"budget_attributes\"", kTripHelp);
  c.governance_trip_pages = r.GetCounter(kTripName,
                                         "reason=\"budget_pages\"",
                                         kTripHelp);
  c.governance_trip_scratch = r.GetCounter(kTripName,
                                           "reason=\"budget_scratch\"",
                                           kTripHelp);

  const char* kShedName = "knmatch_batch_shed_total";
  const char* kShedHelp =
      "Batch queries shed by admission control before running, by "
      "reason";
  c.batch_shed_predicted = r.GetCounter(kShedName,
                                        "reason=\"predicted_deadline\"",
                                        kShedHelp);

  c.breaker_skipped = r.GetCounter(
      "knmatch_breaker_skipped_total", "",
      "Auto-routed disk queries steered around a method whose circuit "
      "breaker was open");
  const char* kBreakerName = "knmatch_breaker_state";
  const char* kBreakerHelp =
      "Per-method circuit-breaker state (0 closed, 1 open, 2 half-open)";
  c.breaker_state_scan = r.GetGauge(kBreakerName, "method=\"scan\"",
                                    kBreakerHelp);
  c.breaker_state_ad = r.GetGauge(kBreakerName, "method=\"ad\"",
                                  kBreakerHelp);
  c.breaker_state_va = r.GetGauge(kBreakerName, "method=\"va\"",
                                  kBreakerHelp);

  c.deadline_fraction = r.GetHistogram(
      "knmatch_deadline_fraction_percent", "",
      "Per-query percentage of the wall-clock deadline consumed "
      "(tripped queries observe >= 100)");

  c.batch_dup_collapsed = r.GetCounter(
      "knmatch_batch_dup_collapsed_total", "",
      "Batch queries answered by copying the result of an identical "
      "query in the same batch (executed once, fanned out)");

  c.wal_appends = r.GetCounter(
      "knmatch_wal_appends_total", "",
      "Write-ahead-log records appended, all record types");
  c.wal_commits = r.GetCounter(
      "knmatch_wal_commits_total", "",
      "Transaction commit records appended to the write-ahead log");
  c.wal_fsyncs = r.GetCounter(
      "knmatch_wal_fsyncs_total", "",
      "Write-ahead-log fsyncs (one per group-commit batch)");
  c.wal_bytes = r.GetCounter(
      "knmatch_wal_bytes_total", "",
      "Framed bytes appended to the write-ahead log");
  c.wal_checkpoints = r.GetCounter(
      "knmatch_wal_checkpoints_total", "",
      "Checkpoint records appended to the write-ahead log");
  c.ingest_txns = r.GetCounter(
      "knmatch_ingest_txns_total", "",
      "Ingest transactions whose commit became durable");
  c.ingest_pages_flushed = r.GetCounter(
      "knmatch_ingest_pages_flushed_total", "",
      "B+-tree page images flushed to the paged file at checkpoints");
  c.recoveries = r.GetCounter(
      "knmatch_recoveries_total", "",
      "Crash-recovery runs (WAL scan + redo replay)");
  c.recovery_replayed_pages = r.GetCounter(
      "knmatch_recovery_replayed_pages_total", "",
      "Committed WAL page images replayed during recovery");
  c.recovery_discarded_txns = r.GetCounter(
      "knmatch_recovery_discarded_txns_total", "",
      "Transactions begun but not durably committed, discarded by "
      "recovery");
  c.snapshot_epoch = r.GetGauge(
      "knmatch_snapshot_epoch", "",
      "Epoch of the last published live-ingest read snapshot");
  c.ingest_free_slots = r.GetGauge(
      "knmatch_ingest_free_slots", "",
      "Reusable B+-tree node slots tracked by the free-space manager, "
      "summed over all dimension trees");

  const char* kCacheLookupName = "knmatch_cache_lookups_total";
  const char* kCacheLookupHelp =
      "Query result cache lookups, by outcome";
  c.cache_hits = r.GetCounter(kCacheLookupName, "outcome=\"hit\"",
                              kCacheLookupHelp);
  c.cache_misses = r.GetCounter(kCacheLookupName, "outcome=\"miss\"",
                                kCacheLookupHelp);
  c.cache_stores = r.GetCounter(
      "knmatch_cache_stores_total", "",
      "Results copied into the query result cache");
  c.cache_evictions = r.GetCounter(
      "knmatch_cache_evictions_total", "",
      "Cache entries evicted by the LRU byte budget");
  const char* kInvalidatedName = "knmatch_cache_invalidated_total";
  const char* kInvalidatedHelp =
      "Cache entries evicted by precise invalidation, by mutation kind";
  c.cache_invalidated_insert = r.GetCounter(
      kInvalidatedName, "mutation=\"insert\"", kInvalidatedHelp);
  c.cache_invalidated_erase = r.GetCounter(
      kInvalidatedName, "mutation=\"erase\"", kInvalidatedHelp);
  const char* kWarmName = "knmatch_cache_warm_starts_total";
  const char* kWarmHelp =
      "Near-miss warm starts of the AD search, by outcome";
  c.cache_warm_hits = r.GetCounter(kWarmName, "outcome=\"hit\"",
                                   kWarmHelp);
  c.cache_warm_fallbacks = r.GetCounter(kWarmName, "outcome=\"fallback\"",
                                        kWarmHelp);
  c.cache_entries = r.GetGauge("knmatch_cache_entries", "",
                               "Entries currently held by the query "
                               "result cache");
  c.cache_bytes = r.GetGauge("knmatch_cache_bytes", "",
                             "Estimated bytes currently held by the "
                             "query result cache");
  c.cache_hit_ratio = r.GetGauge(
      "knmatch_cache_hit_ratio_percent", "",
      "Lifetime cache hit percentage, hits / (hits + misses)");

  c.shard_queries = r.GetCounter(
      "knmatch_shard_queries_total", "",
      "Scatter-gather queries routed across the shard set");
  c.shard_dispatches = r.GetCounter(
      "knmatch_shard_dispatches_total", "",
      "Shards dispatched to (non-empty, breaker allowed), summed over "
      "queries");
  c.shard_failovers = r.GetCounter(
      "knmatch_shard_failovers_total", "",
      "Replica failover re-dispatches after kDataLoss/kUnavailable");
  c.shard_breaker_skips = r.GetCounter(
      "knmatch_shard_breaker_skipped_total", "",
      "Shards skipped because their circuit breaker was open");
  c.shard_partial_answers = r.GetCounter(
      "knmatch_shard_partial_answers_total", "",
      "Queries answered from surviving shards with coverage missing");
  c.shard_rebalances = r.GetCounter(
      "knmatch_shard_rebalances_total", "",
      "Rebalance() runs (counted whether or not partitions moved)");
  c.shard_partitions_moved = r.GetCounter(
      "knmatch_shard_partitions_moved_total", "",
      "Partitions reassigned to a different shard by rebalances");
  c.shard_cache_hits = r.GetCounter(
      "knmatch_shard_cache_hits_total", "",
      "Router queries served from the router-level result cache");
  c.shard_count = r.GetGauge("knmatch_shard_count", "",
                             "Shards in the current router layout");
  c.shard_replicas = r.GetGauge("knmatch_shard_replicas", "",
                                "Replica group size per shard");
  c.shard_fanout_seconds = r.GetHistogram(
      "knmatch_shard_fanout_seconds", "",
      "Whole scatter+gather wall time per router query", 1e-9);
  c.shard_dispatch_seconds = r.GetHistogram(
      "knmatch_shard_dispatch_seconds", "",
      "One shard's dispatch wall time (primary and failover attempts "
      "included)", 1e-9);

  const char* kServeConnsName = "knmatch_serve_connections_total";
  const char* kServeConnsHelp =
      "Serving front-end connection lifecycle events, by event";
  c.serve_conns_accepted = r.GetCounter(kServeConnsName,
                                        "event=\"accepted\"",
                                        kServeConnsHelp);
  c.serve_conns_closed = r.GetCounter(kServeConnsName, "event=\"closed\"",
                                      kServeConnsHelp);
  c.serve_conns_refused = r.GetCounter(kServeConnsName,
                                       "event=\"refused\"",
                                       kServeConnsHelp);
  c.serve_requests = r.GetCounter(
      "knmatch_serve_requests_total", "",
      "Complete HTTP requests parsed by the serving front end");
  const char* kServeRespName = "knmatch_serve_responses_total";
  const char* kServeRespHelp =
      "HTTP responses written, by status class";
  c.serve_responses_ok = r.GetCounter(kServeRespName, "class=\"2xx\"",
                                      kServeRespHelp);
  c.serve_responses_client_error = r.GetCounter(kServeRespName,
                                                "class=\"4xx\"",
                                                kServeRespHelp);
  c.serve_responses_server_error = r.GetCounter(kServeRespName,
                                                "class=\"5xx\"",
                                                kServeRespHelp);
  c.serve_shed = r.GetCounter(
      "knmatch_serve_shed_total", "",
      "Requests refused by admission control with 429 + Retry-After");
  c.serve_deadline_hits = r.GetCounter(
      "knmatch_serve_deadline_hits_total", "",
      "Requests answered 504 because their deadline passed");
  c.serve_malformed = r.GetCounter(
      "knmatch_serve_malformed_total", "",
      "Requests rejected at the protocol layer (malformed, oversized, "
      "bad version)");
  c.serve_torn_frames = r.GetCounter(
      "knmatch_serve_torn_frames_total", "",
      "Connections the peer closed mid-request (torn frames)");
  c.serve_idle_timeouts = r.GetCounter(
      "knmatch_serve_idle_timeouts_total", "",
      "Connections closed by the slow-loris / idle timeout");
  c.serve_partial_answers = r.GetCounter(
      "knmatch_serve_partial_answers_total", "",
      "Answers serialized with partial=true (degraded shard coverage)");
  c.serve_drains = r.GetCounter(
      "knmatch_serve_drains_total", "",
      "Graceful drains initiated");
  c.serve_connections = r.GetGauge(
      "knmatch_serve_open_connections", "",
      "Connections currently open on the serving front end");
  c.serve_inflight = r.GetGauge(
      "knmatch_serve_inflight_requests", "",
      "Admitted requests currently in flight");
  c.serve_ready = r.GetGauge(
      "knmatch_serve_ready", "",
      "Serving readiness (1 accepting, 0 draining or stopped)");
  c.serve_request_seconds = r.GetHistogram(
      "knmatch_serve_request_seconds", "",
      "Request wall time from arrival to response queued", 1e-9);
  return c;
}

}  // namespace

const Catalog& Cat() {
  static const Catalog catalog = BuildCatalog();
  return catalog;
}

Histogram* BatchWorkerLatency(size_t worker) {
  return MetricsRegistry::Global().GetHistogram(
      "knmatch_batch_query_seconds",
      "worker=\"" + std::to_string(worker) + "\"",
      "Per-query latency inside the batch executor, by worker",
      1e-9);
}

Gauge* ShardPointsGauge(size_t shard) {
  return MetricsRegistry::Global().GetGauge(
      "knmatch_shard_points",
      "shard=\"" + std::to_string(shard) + "\"",
      "Points currently placed on the shard");
}

}  // namespace knmatch::obs
