// Batch-query throughput: queries-per-second for sequential per-query
// execution vs the exec-layer batch API at several worker counts, on
// the 100k x 16 uniform dataset the scaling roadmap tracks. No paper
// figure corresponds to this — the paper measures per-query attribute
// retrievals; this measures the serving throughput the exec subsystem
// adds — so alongside the table it emits BENCH_throughput.json, giving
// later PRs a machine-readable perf trajectory to compare against.
//
// Usage: bench_throughput [queries] [cardinality] [dims]
//        (defaults 64, 100000, 16)
//
// Interpreting speedups: batch-at-T=1 vs sequential isolates the
// AdScratch arena (per-query O(c) allocation replaced by an O(1) epoch
// reset); higher T adds parallel fan-out, which needs physical cores —
// on a single-core host every T collapses to ~1x and only the arena
// win remains.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "knmatch/datagen/zipfian.h"

namespace {

using namespace knmatch;

double Seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Workload {
  std::string name;
  // Runs the workload once over all queries, returning a checksum.
  // `threads` < 0 means sequential per-query calls.
  uint64_t (*run)(const SimilarityEngine&, const exec::BatchRequest&,
                  int threads);
};

uint64_t Checksum(const std::vector<KnMatchResult>& results) {
  uint64_t sum = 0;
  for (const auto& r : results) {
    for (const Neighbor& nb : r.matches) sum += nb.pid;
  }
  return sum;
}

uint64_t RunKnMatch(const SimilarityEngine& engine,
                    const exec::BatchRequest& request, int threads) {
  constexpr size_t kN = 8, kK = 10;
  if (threads < 0) {
    uint64_t sum = 0;
    for (const auto& q : request.queries) {
      auto r = engine.KnMatch(q, kN, kK);
      for (const Neighbor& nb : r.value().matches) sum += nb.pid;
    }
    return sum;
  }
  exec::BatchRequest req = request;
  req.options.threads = static_cast<size_t>(threads);
  // Scaling bench: measure the requested count even past the core count.
  req.options.allow_oversubscription = true;
  auto r = engine.KnMatchBatch(req, kN, kK);
  return Checksum(r.value().results);
}

uint64_t RunFrequent(const SimilarityEngine& engine,
                     const exec::BatchRequest& request, int threads) {
  constexpr size_t kN0 = 4, kN1 = 8, kK = 10;
  if (threads < 0) {
    uint64_t sum = 0;
    for (const auto& q : request.queries) {
      auto r = engine.FrequentKnMatch(q, kN0, kN1, kK);
      for (const Neighbor& nb : r.value().matches) sum += nb.pid;
    }
    return sum;
  }
  exec::BatchRequest req = request;
  req.options.threads = static_cast<size_t>(threads);
  // Scaling bench: measure the requested count even past the core count.
  req.options.allow_oversubscription = true;
  auto r = engine.FrequentKnMatchBatch(req, kN0, kN1, kK);
  uint64_t sum = 0;
  for (const auto& result : r.value().results) {
    for (const Neighbor& nb : result.matches) sum += nb.pid;
  }
  return sum;
}

uint64_t RunKnn(const SimilarityEngine& engine,
                const exec::BatchRequest& request, int threads) {
  constexpr size_t kK = 10;
  if (threads < 0) {
    uint64_t sum = 0;
    for (const auto& q : request.queries) {
      auto r = engine.Knn(q, kK);
      for (const Neighbor& nb : r.value().matches) sum += nb.pid;
    }
    return sum;
  }
  exec::BatchRequest req = request;
  req.options.threads = static_cast<size_t>(threads);
  // Scaling bench: measure the requested count even past the core count.
  req.options.allow_oversubscription = true;
  auto r = engine.KnnBatch(req, kK);
  return Checksum(r.value().results);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace knmatch;
  const size_t num_queries = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                                      : 64;
  const size_t cardinality = argc > 2 ? std::strtoul(argv[2], nullptr, 10)
                                      : 100000;
  const size_t dims = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 16;

  bench::PrintHeader(
      "Batch-query throughput: sequential vs exec-layer fan-out",
      "no paper figure; the exec subsystem's serving-throughput goal");

  std::printf("dataset: uniform %zu x %zu | queries: %zu | hardware "
              "threads: %u\n\n",
              cardinality, dims, num_queries,
              std::thread::hardware_concurrency());

  SimilarityEngine engine(datagen::MakeUniform(cardinality, dims, 20260807));
  exec::BatchRequest request;
  request.queries =
      bench::SampleQueries(engine.dataset(), num_queries, 4242);

  const Workload workloads[] = {
      {"knmatch_n8_k10", RunKnMatch},
      {"fknmatch_n4_8_k10", RunFrequent},
      {"knn_k10", RunKnn},
  };
  const int thread_counts[] = {1, 2, 4, 8};

  std::FILE* json = std::fopen("BENCH_throughput.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_throughput.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"throughput\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"dataset\": {\"kind\": \"uniform\", \"cardinality\": "
               "%zu, \"dims\": %zu},\n"
               "  \"queries\": %zu,\n  \"workloads\": [",
               std::thread::hardware_concurrency(), cardinality, dims,
               num_queries);

  // Each configuration is timed kTimedPasses times and the fastest
  // pass is reported: the work is deterministic, so every slowdown is
  // external (scheduler preemption, frequency throttling — sizable and
  // one-sided on the shared 1-core hosts this runs on), and the
  // minimum is the standard estimator for the noise-free cost. Every
  // pass is still checksum-verified.
  constexpr int kTimedPasses = 5;

  bool first_workload = true;
  for (const Workload& w : workloads) {
    // Warm up: builds the sorted columns and faults the data in, so
    // the sequential pass is not charged index construction.
    const uint64_t reference = w.run(engine, request, -1);

    double seq_seconds = 0;
    for (int pass = 0; pass < kTimedPasses; ++pass) {
      auto start = std::chrono::steady_clock::now();
      const uint64_t seq_sum = w.run(engine, request, -1);
      const double elapsed = Seconds(start);
      if (pass == 0 || elapsed < seq_seconds) seq_seconds = elapsed;
      if (seq_sum != reference) {
        std::fprintf(stderr, "checksum drift in sequential run\n");
        return 1;
      }
    }
    const double seq_qps = num_queries / seq_seconds;

    std::printf("%-20s sequential: %8.1f q/s\n", w.name.c_str(), seq_qps);

    std::fprintf(json,
                 "%s\n    {\"name\": \"%s\", \"sequential_qps\": %.1f, "
                 "\"sequential_seconds\": %.4f, \"batch\": [",
                 first_workload ? "" : ",", w.name.c_str(), seq_qps,
                 seq_seconds);
    first_workload = false;

    bool first_t = true;
    for (const int t : thread_counts) {
      w.run(engine, request, t);  // warm the pool for this thread count
      double batch_seconds = 0;
      for (int pass = 0; pass < kTimedPasses; ++pass) {
        auto start = std::chrono::steady_clock::now();
        const uint64_t batch_sum = w.run(engine, request, t);
        const double elapsed = Seconds(start);
        if (pass == 0 || elapsed < batch_seconds) batch_seconds = elapsed;
        if (batch_sum != reference) {
          std::fprintf(stderr, "determinism violation at T=%d\n", t);
          return 1;
        }
      }
      const double qps = num_queries / batch_seconds;
      const double speedup = seq_seconds / batch_seconds;
      std::printf("%-20s batch T=%d:  %8.1f q/s  (%.2fx vs sequential, "
                  "checksum ok)\n",
                  "", t, qps, speedup);
      std::fprintf(json,
                   "%s\n      {\"threads\": %d, \"qps\": %.1f, "
                   "\"speedup_vs_sequential\": %.3f}",
                   first_t ? "" : ",", t, qps, speedup);
      first_t = false;
    }
    std::fprintf(json, "\n    ]}");
    std::printf("\n");
  }
  // zipfian_repeat: a skewed mix where a small pool of distinct queries
  // dominates — the shape the result cache is built for. Cold passes run
  // with the cache disabled; cached passes clear the cache first, so
  // every timed pass pays the population misses before serving repeats.
  // Field names deliberately differ from the uniform workloads: the QPS
  // drift gate tracks sequential_qps only, while check_bench_drift.sh
  // gates cached_qps/cold_qps separately.
  {
    datagen::ZipfianQueryMixSpec spec;
    // Fixed shape regardless of argv: the cache-speedup gate in
    // check_bench_drift.sh needs a stable repeat factor (512 draws
    // over 64 distinct), not one that shrinks with --queries.
    spec.pool_size = 64;
    spec.count = 512;
    spec.skew = 1.1;
    spec.seed = 515;
    const auto mix = datagen::MakeZipfianQueryMix(engine.dataset(), spec);

    constexpr size_t kN = 8, kK = 10;
    auto run_mix = [&engine, &mix]() {
      uint64_t sum = 0;
      for (const auto& q : mix) {
        auto r = engine.KnMatch(q, kN, kK);
        for (const Neighbor& nb : r.value().matches) sum += nb.pid;
      }
      return sum;
    };

    const uint64_t reference = run_mix();  // columns already warm; checksum
    double cold_seconds = 0;
    for (int pass = 0; pass < 3; ++pass) {
      auto start = std::chrono::steady_clock::now();
      const uint64_t sum = run_mix();
      const double elapsed = Seconds(start);
      if (pass == 0 || elapsed < cold_seconds) cold_seconds = elapsed;
      if (sum != reference) {
        std::fprintf(stderr, "checksum drift in zipfian cold run\n");
        return 1;
      }
    }
    const double cold_qps = mix.size() / cold_seconds;

    engine.EnableCache();
    double cached_seconds = 0;
    for (int pass = 0; pass < 3; ++pass) {
      engine.cache()->Clear();
      auto start = std::chrono::steady_clock::now();
      const uint64_t sum = run_mix();
      const double elapsed = Seconds(start);
      if (pass == 0 || elapsed < cached_seconds) cached_seconds = elapsed;
      if (sum != reference) {
        std::fprintf(stderr, "cached answers diverge on zipfian run\n");
        return 1;
      }
    }
    const auto stats = engine.cache()->Stats();
    const double hit_ratio =
        stats.hits + stats.misses > 0
            ? 100.0 * static_cast<double>(stats.hits) /
                  static_cast<double>(stats.hits + stats.misses)
            : 0.0;
    engine.DisableCache();
    const double cached_qps = mix.size() / cached_seconds;

    std::printf("%-20s cold:       %8.1f q/s\n", "zipfian_repeat",
                cold_qps);
    std::printf("%-20s cached:     %8.1f q/s  (%.2fx, %.1f%% hits, "
                "checksum ok)\n\n",
                "", cached_qps, cold_seconds / cached_seconds, hit_ratio);
    std::fprintf(json,
                 ",\n    {\"name\": \"zipfian_repeat\", \"pool\": %zu, "
                 "\"draws\": %zu, \"skew\": %.2f, \"cold_qps\": %.1f, "
                 "\"cached_qps\": %.1f, \"cache_speedup\": %.2f, "
                 "\"hit_ratio_percent\": %.1f}",
                 spec.pool_size, mix.size(), spec.skew, cold_qps,
                 cached_qps, cold_seconds / cached_seconds, hit_ratio);
  }

  // ingest_under_load: live-snapshot query throughput while one writer
  // streams WAL-logged inserts into the same engine. Answers shift as
  // epochs publish, so there is no cross-pass checksum; the lane's
  // field names (query_qps / ingest_ops_per_sec) keep it out of the
  // sequential-drift gate, which only tracks sequential_qps.
  {
    SimilarityEngine live_engine(
        datagen::MakeUniform(cardinality / 4, dims, 20260808));
    SimilarityEngine::IngestConfig ingest_config;
    ingest_config.group_commit_window = 8;
    if (Status s = live_engine.BeginIngest(ingest_config); !s.ok()) {
      std::fprintf(stderr, "BeginIngest failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    const auto live_queries =
        bench::SampleQueries(live_engine.dataset(), num_queries, 4242);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> ingested{0};
    std::thread writer([&live_engine, &stop, &ingested, dims] {
      Rng rng(77);
      std::vector<Value> coords(dims);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& v : coords) v = rng.Uniform01();
        if (!live_engine.IngestPoint(coords).ok()) break;
        ingested.fetch_add(1, std::memory_order_relaxed);
      }
      (void)live_engine.FlushIngest();
    });

    constexpr size_t kN = 8, kK = 10;
    constexpr double kWindowSeconds = 1.0;
    uint64_t answered = 0;
    const auto start = std::chrono::steady_clock::now();
    while (Seconds(start) < kWindowSeconds) {
      for (const auto& q : live_queries) {
        auto r = live_engine.LiveKnMatch(q, kN, kK);
        if (!r.ok()) {
          std::fprintf(stderr, "LiveKnMatch failed under load: %s\n",
                       r.status().ToString().c_str());
          stop.store(true);
          writer.join();
          return 1;
        }
        ++answered;
      }
    }
    const double window = Seconds(start);
    stop.store(true);
    writer.join();

    const uint64_t ops = ingested.load();
    const WriteAheadLog::Stats wal = live_engine.live_index()->wal().stats();
    if (answered == 0 || ops == 0) {
      std::fprintf(stderr, "ingest_under_load made no progress "
                   "(%llu queries, %llu ops)\n",
                   static_cast<unsigned long long>(answered),
                   static_cast<unsigned long long>(ops));
      return 1;
    }
    const double query_qps = static_cast<double>(answered) / window;
    const double ops_per_sec = static_cast<double>(ops) / window;
    std::printf("%-20s queries:    %8.1f q/s  (under live writer)\n",
                "ingest_under_load", query_qps);
    std::printf("%-20s ingest:     %8.1f ops/s  (%llu WAL fsyncs, "
                "%zu live points)\n\n",
                "", ops_per_sec, static_cast<unsigned long long>(wal.fsyncs),
                live_engine.live_index()->live_size());
    std::fprintf(json,
                 ",\n    {\"name\": \"ingest_under_load\", "
                 "\"query_qps\": %.1f, \"ingest_ops_per_sec\": %.1f, "
                 "\"wal_fsyncs\": %llu, \"wal_appends\": %llu, "
                 "\"group_commit_window\": %zu, \"live_points\": %zu}",
                 query_qps, ops_per_sec,
                 static_cast<unsigned long long>(wal.fsyncs),
                 static_cast<unsigned long long>(wal.appends),
                 ingest_config.group_commit_window,
                 live_engine.live_index()->live_size());
    if (Status s = live_engine.EndIngest(); !s.ok()) {
      std::fprintf(stderr, "EndIngest failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // sharded_scatter_gather: router QPS across shard counts with
  // two-replica groups (each query's primary rotates across the group).
  // Every pass is checksummed against the unsharded engine: the
  // scatter-gather merge is exact by contract.
  // Field names (sharded_qps / fanout_ms_mean) keep the
  // lane out of the sequential-drift gate; check_bench_drift.sh gates
  // it on progress instead.
  {
    constexpr size_t kN = 8, kK = 10;
    uint64_t reference = 0;
    for (const auto& q : request.queries) {
      auto r = engine.KnMatch(q, kN, kK);
      for (const Neighbor& nb : r.value().matches) reference += nb.pid;
    }

    std::fprintf(json,
                 ",\n    {\"name\": \"sharded_scatter_gather\", "
                 "\"replicas\": 2, \"configs\": [");
    const size_t shard_counts[] = {1, 4, 16};
    bool first_config = true;
    for (const size_t shards : shard_counts) {
      shard::RouterOptions options;
      options.shards = shards;
      options.replicas = 2;
      const shard::ShardRouter router(engine.dataset(), options);

      auto run_router = [&router, &request]() {
        uint64_t sum = 0;
        for (const auto& q : request.queries) {
          auto r = router.KnMatch(q, kN, kK);
          for (const Neighbor& nb : r.value().matches) sum += nb.pid;
        }
        return sum;
      };

      if (run_router() != reference) {  // warm + bit-identity check
        std::fprintf(stderr, "sharded answers diverge at S=%zu\n", shards);
        return 1;
      }
      const auto dispatch_before =
          obs::Cat().shard_dispatch_seconds->Snapshot();
      double best_seconds = 0;
      for (int pass = 0; pass < 3; ++pass) {
        auto start = std::chrono::steady_clock::now();
        const uint64_t sum = run_router();
        const double elapsed = Seconds(start);
        if (pass == 0 || elapsed < best_seconds) best_seconds = elapsed;
        if (sum != reference) {
          std::fprintf(stderr, "sharded checksum drift at S=%zu\n", shards);
          return 1;
        }
      }
      const auto dispatch_after =
          obs::Cat().shard_dispatch_seconds->Snapshot();

      const double qps = num_queries / best_seconds;
      const uint64_t dispatch_count =
          dispatch_after.count - dispatch_before.count;
      const double fanout_ms_mean =
          dispatch_count > 0
              ? 1e3 * static_cast<double>(dispatch_after.sum_raw -
                                          dispatch_before.sum_raw) *
                    dispatch_after.scale / static_cast<double>(dispatch_count)
              : 0.0;

      std::printf("%-20s S=%-2zu R=2:  %8.1f q/s  (%.3f ms/shard "
                  "dispatch, checksum ok)\n",
                  first_config ? "sharded_scatter" : "", shards, qps,
                  fanout_ms_mean);
      std::fprintf(json,
                   "%s\n      {\"shards\": %zu, \"sharded_qps\": %.1f, "
                   "\"fanout_ms_mean\": %.4f}",
                   first_config ? "" : ",", shards, qps, fanout_ms_mean);
      first_config = false;
    }
    std::fprintf(json, "\n    ]}");
    std::printf("\n");
  }

  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_throughput.json\n");
  return 0;
}
