#ifndef KNMATCH_KNMATCH_H_
#define KNMATCH_KNMATCH_H_

/// \file
/// Umbrella header for the knmatch library — a from-scratch
/// implementation of "Similarity Search: A Matching Based Approach"
/// (Tung, Zhang, Koudas, Ooi; VLDB 2006): the k-n-match and frequent
/// k-n-match query models, the optimal AD algorithm (in memory and on
/// disk), the VA-file competitor, and the effectiveness baselines the
/// paper compares against.

#include "knmatch/common/dataset.h"
#include "knmatch/common/matrix.h"
#include "knmatch/common/kmeans.h"
#include "knmatch/common/random.h"
#include "knmatch/common/stats.h"
#include "knmatch/common/status.h"
#include "knmatch/common/top_k.h"
#include "knmatch/common/types.h"

#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/answer_merge.h"
#include "knmatch/core/match_types.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/nmatch_join.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/sorted_columns.h"

#include "knmatch/datagen/coil_like.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/datagen/texture_like.h"
#include "knmatch/datagen/uci_like.h"
#include "knmatch/datagen/zipfian.h"

#include "knmatch/storage/bplus_tree.h"
#include "knmatch/storage/column_store.h"
#include "knmatch/storage/disk_simulator.h"
#include "knmatch/storage/fault_injector.h"
#include "knmatch/storage/free_space.h"
#include "knmatch/storage/ingest.h"
#include "knmatch/storage/page_codec.h"
#include "knmatch/storage/paged_file.h"
#include "knmatch/storage/row_store.h"
#include "knmatch/storage/wal.h"

#include "knmatch/diskalgo/btree_ad.h"
#include "knmatch/diskalgo/disk_ad.h"
#include "knmatch/diskalgo/disk_scan.h"

#include "knmatch/vafile/va_file.h"
#include "knmatch/vafile/va_knmatch.h"
#include "knmatch/vafile/va_knn.h"

#include "knmatch/cache/btree_bridge.h"
#include "knmatch/cache/cached_search.h"
#include "knmatch/cache/query_cache.h"

#include "knmatch/exec/admission.h"
#include "knmatch/exec/batch.h"
#include "knmatch/exec/circuit_breaker.h"
#include "knmatch/exec/ewma.h"
#include "knmatch/exec/thread_pool.h"

#include "knmatch/obs/catalog.h"
#include "knmatch/obs/exposition.h"
#include "knmatch/obs/metrics.h"
#include "knmatch/obs/trace.h"

#include "knmatch/engine.h"

#include "knmatch/shard/partition.h"
#include "knmatch/shard/shard_router.h"

#include "knmatch/serve/client.h"
#include "knmatch/serve/http.h"
#include "knmatch/serve/json.h"
#include "knmatch/serve/loadgen.h"
#include "knmatch/serve/server.h"

#include "knmatch/baselines/dpf.h"
#include "knmatch/baselines/fagin.h"
#include "knmatch/baselines/idistance.h"
#include "knmatch/baselines/igrid.h"
#include "knmatch/baselines/knn_scan.h"
#include "knmatch/baselines/rtree.h"
#include "knmatch/baselines/skyline.h"
#include "knmatch/baselines/sstree.h"

#include "knmatch/eval/advisor.h"
#include "knmatch/eval/class_strip.h"
#include "knmatch/eval/selectivity.h"
#include "knmatch/eval/experiment.h"

#include "knmatch/io/binary.h"
#include "knmatch/io/csv.h"

#endif  // KNMATCH_KNMATCH_H_
