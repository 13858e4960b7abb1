// Interactive / scriptable shell over the SimilarityEngine — a
// downstream-style consumer of the whole public API. Reads commands
// from stdin, one per line:
//
//   gen uniform <c> <d> [seed]        synthesize data
//   gen clustered <c> <d> <classes> [seed]
//   gen texture <c> [seed]
//   gen coil                          the COIL-100-like image features
//   load csv <path> [label_col]      import a CSV (e.g., real UCI data)
//   load knm <path>                   load a binary snapshot
//   save knm <path>                   write a binary snapshot
//   save csv <path>
//   info                              dataset + storage statistics
//   knmatch <n> <k> <pid>             k-n-match around point <pid>
//   fknmatch <n0> <n1> <k> <pid>      frequent k-n-match
//   knn <k> <pid>                     Euclidean kNN
//   igrid <k> <pid>                   IGrid similarity search
//   disk <auto|scan|ad|va> <n0> <n1> <k> <pid>
//   join <n> <eps>                    epsilon-n-match self-join (pair count)
//   estimate <n> <k> <pid>            analytic selectivity estimate
//   insert <v1> <v2> ... <vd>         append a point (indexes rebuild lazily)
//   ingest begin [window]             durable live-ingest session (WAL,
//                                     group-commit window in txns)
//   ingest add <v1> ... <vd>          WAL-logged insert into the live trees
//   ingest erase <pid>                WAL-logged erase (frees tree slots)
//   ingest flush                      force the group-commit fsync
//   ingest query <n> <k> <pid>        k-n-match over the live snapshot
//   ingest status                     epoch, live size, free slots
//   ingest end                        checkpoint + fold live rows into the
//                                     dataset (indexes rebuild lazily)
//   wal stats                         appends/fsyncs/bytes/pending commits
//   wal checkpoint                    flush dirty pages, truncate the log
//   recover                           crash-recovery drill: rebuild the
//                                     trees from checkpoint + WAL redo
//   faults rate <transient> <corrupt> [seed]   randomized fault schedule
//   faults fail <page> <times>        script transient failures of a page
//   faults corrupt <page>             script sticky corruption of a page
//   faults clear                      heal the disk, lift quarantines
//   faults status                     injected-fault and quarantine counters
//   metrics [json|reset]              process metrics (Prometheus text/JSON)
//   trace on|off                      per-query phase timings + cost counters
//   threads <t>                       worker threads for batch commands
//   govern deadline <ms>              per-query deadline for later queries
//   govern budget attrs|pages|scratch <v>   per-query resource budgets
//   govern off                        lift all governance limits
//   govern status                     show the armed limits
//   shard on [shards] [hash|range|kmeans] [replicas]
//                                     build a scatter-gather ShardRouter
//                                     over the current dataset
//   shard query <n> <k> <pid>         sharded k-n-match (exact merge)
//   shard fquery <n0> <n1> <k> <pid>  sharded frequent k-n-match
//   shard stats                       dispatch/hedge/failover counters,
//                                     per-shard loads and breaker states
//   shard rebalance                   LPT rebalance under snapshot reads
//   shard off                         back to the unsharded engine
//   batch knmatch <n> <k> <q>         q sampled queries, fanned across workers
//   batch fknmatch <n0> <n1> <k> <q>
//   batch knn <k> <q>
//   help
//   quit
//
// Non-interactive subcommands (docs/serving.md):
//   knmatch_cli serve [--port <p>] [--threads <t>] [--deadline-ms <ms>]
//       [--drain-timeout-ms <ms>] [--shards <s>] [--points <c>]
//       [--dims <d>] [--port-file <path>]
//     generates a dataset, serves it over HTTP on 127.0.0.1, and exits
//     0 once drained (POST /admin/drain or SIGINT/SIGTERM).
//   knmatch_cli loadgen --port <p> [--rps <r>] [--rps-end <r>]
//       [--duration-s <s>] [--connections <c>] [--deadline-ms <ms>]
//       [--fault-fraction <f>] ...
//     open-loop load (Poisson arrivals, Zipfian query mix, RPS ramp,
//     client-side fault injection); prints a one-line JSON report.
//
// Flags: --threads <t> presets the batch worker count (equivalent to
// the `threads` command; 0 = one per hardware thread).
// --deadline-ms <ms> and --budget <attrs> preset query governance: every
// query then runs under that deadline / attribute budget and, on a
// trip, reports its typed status (DeadlineExceeded / ResourceExhausted)
// plus the partial result it got to. Equivalent to `govern`.
// --cache enables the query-result cache with defaults for the whole
// session (equivalent to `cache on`); `cache stats` shows hit ratios
// and invalidation counts as you insert points.
// --shards/--partitioner/--replicas preset the `shard on` defaults.
//
// Try: printf 'gen coil\nknmatch 30 4 42\nknn 10 42\nquit\n' | ./knmatch_cli
// Try: ./knmatch_cli --deadline-ms 2 --budget 100000

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "knmatch.h"

namespace {

using namespace knmatch;

class Cli {
 public:
  Cli(size_t threads, double deadline_ms, uint64_t attr_budget,
      bool cache_on, size_t shards, shard::Partitioner partitioner,
      size_t replicas)
      : threads_(threads), deadline_ms_(deadline_ms), cache_on_(cache_on),
        shards_(shards), replicas_(replicas), partitioner_(partitioner) {
    budgets_.max_attributes = attr_budget;
  }

  int Run() {
    std::string line;
    std::printf("knmatch shell — 'help' lists commands\n");
    while (Prompt(), std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  void Prompt() {
    std::printf("knmatch> ");
    std::fflush(stdout);
  }

  bool RequireData() {
    if (engine_ == nullptr) {
      std::printf("no dataset loaded; use 'gen' or 'load' first\n");
      return false;
    }
    return true;
  }

  bool QueryOf(size_t pid_token, std::vector<Value>* query) {
    if (pid_token >= engine_->dataset().size()) {
      std::printf("pid out of range (dataset has %zu points)\n",
                  engine_->dataset().size());
      return false;
    }
    auto p = engine_->dataset().point(static_cast<PointId>(pid_token));
    query->assign(p.begin(), p.end());
    return true;
  }

  void Adopt(Dataset db) {
    router_.reset();  // built over the previous dataset
    engine_ = std::make_unique<SimilarityEngine>(std::move(db));
    if (injector_ != nullptr) engine_->SetFaultInjector(injector_.get());
    if (cache_on_) engine_->EnableCache(cache_config_);
    std::printf("dataset: %s  (%zu points x %zu dims%s)\n",
                engine_->dataset().name().c_str(),
                engine_->dataset().size(), engine_->dataset().dims(),
                engine_->dataset().labelled() ? ", labelled" : "");
  }

  static const char* MethodName(SimilarityEngine::DiskMethod m) {
    switch (m) {
      case SimilarityEngine::DiskMethod::kScan: return "scan";
      case SimilarityEngine::DiskMethod::kAd: return "AD";
      case SimilarityEngine::DiskMethod::kVaFile: return "VA-file";
      case SimilarityEngine::DiskMethod::kMemoryAd: return "in-memory AD";
      case SimilarityEngine::DiskMethod::kAuto: return "auto";
    }
    return "?";
  }

  void PrintMatches(const std::vector<Neighbor>& matches) {
    for (const Neighbor& nb : matches) {
      std::printf("  pid %-8u score %.6f\n", nb.pid, nb.distance);
    }
  }

  // Arms `ctx` with the session's governance limits; returns nullptr
  // (run ungoverned) when none are set.
  QueryContext* ArmContext(QueryContext* ctx) {
    if (deadline_ms_ <= 0 && !budgets_.any()) return nullptr;
    if (deadline_ms_ > 0) ctx->set_deadline_in_ms(deadline_ms_);
    ctx->budgets() = budgets_;
    return ctx;
  }

  // Prints a query's error status and, if it was a governance trip,
  // the progress and partial result the query got to.
  void PrintStatus(const Status& s, const QueryContext* ctx) {
    std::printf("%s\n", s.ToString().c_str());
    if (ctx == nullptr || !ctx->tripped()) return;
    const GovernanceTrip& trip = ctx->trip();
    std::printf("  tripped after %llu attributes, %llu pops, "
                "%llu pages\n",
                static_cast<unsigned long long>(trip.attributes_retrieved),
                static_cast<unsigned long long>(trip.pops),
                static_cast<unsigned long long>(trip.pages_read));
    size_t have = 0;
    for (const auto& set : trip.partial_per_n_sets) have += set.size();
    std::printf("  partial result: %zu neighbor(s) across %zu answer "
                "set(s)\n",
                have, trip.partial_per_n_sets.size());
  }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) return true;

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf(
          "gen uniform|clustered|texture|coil ... | load csv|knm <path> | "
          "save csv|knm <path> | info |\n"
          "knmatch <n> <k> <pid> | fknmatch <n0> <n1> <k> <pid> | "
          "knn <k> <pid> | igrid <k> <pid> |\n"
          "disk auto|scan|ad|va|mem <n0> <n1> <k> <pid> | join <n> <eps> | "
          "estimate <n> <k> <pid> |\n"
          "insert <v1> ... <vd> | threads <t> |\n"
          "ingest begin [window] | ingest add <v1> ... <vd> | "
          "ingest erase <pid> | ingest flush |\n"
          "ingest query <n> <k> <pid> | ingest status | ingest end | "
          "wal stats|checkpoint | recover |\n"
          "faults rate <transient> <corrupt> [seed] | faults fail <page> "
          "<times> | faults corrupt <page> |\n"
          "faults clear | faults status | metrics [json|reset] | "
          "trace on|off |\n"
          "govern deadline <ms> | govern budget attrs|pages|scratch <v> | "
          "govern off | govern status |\n"
          "shard on [shards] [hash|range|kmeans] [replicas] | "
          "shard query <n> <k> <pid> |\n"
          "shard fquery <n0> <n1> <k> <pid> | shard stats | "
          "shard rebalance | shard off |\n"
          "cache on [mib] [warm_radius] | cache off | cache stats | "
          "cache clear |\n"
          "batch knmatch <n> <k> <q> | batch fknmatch <n0> <n1> <k> <q> | "
          "batch knn <k> <q> | quit\n");
      return true;
    }

    if (cmd == "metrics") {
      std::string fmt;
      in >> fmt;
      auto& registry = obs::MetricsRegistry::Global();
      if (fmt == "json") {
        std::printf("%s\n", obs::RenderJson(registry).c_str());
      } else if (fmt == "reset") {
        registry.Reset();
        std::printf("metrics reset\n");
      } else {
        std::printf("%s", obs::RenderPrometheus(registry).c_str());
      }
      return true;
    }

    if (cmd == "trace") {
      std::string state;
      in >> state;
      if (state == "on") {
        if (!obs::kMetricsCompiledIn) {
          std::printf("tracing was compiled out "
                      "(KNMATCH_DISABLE_METRICS)\n");
          return true;
        }
        if (trace_scope_ == nullptr) {
          trace_scope_ = std::make_unique<obs::TraceScope>(&trace_);
        }
        trace_.Clear();
        std::printf("tracing on: each query prints phase timings and "
                    "cost counters\n"
                    "(batch commands run on pool workers and are not "
                    "traced)\n");
      } else if (state == "off") {
        trace_scope_.reset();
        std::printf("tracing off\n");
      } else {
        std::printf("usage: trace on|off\n");
      }
      return true;
    }

    if (cmd == "threads") {
      size_t t;
      if (!(in >> t)) {
        std::printf("usage: threads <t>   (0 = one per hardware thread)\n");
        return true;
      }
      threads_ = t;
      std::printf("batch commands now use %zu worker thread(s)\n",
                  exec::ResolveThreads(threads_));
      return true;
    }

    if (cmd == "faults") {
      if (!RequireData()) return true;
      std::string what;
      in >> what;
      if (what == "rate") {
        FaultInjector::Config config;
        if (!(in >> config.transient_error_rate >> config.corruption_rate)) {
          std::printf("usage: faults rate <transient> <corrupt> [seed]\n");
          return true;
        }
        in >> config.seed;
        injector_ = std::make_unique<FaultInjector>(config);
        engine_->SetFaultInjector(injector_.get());
        std::printf("fault schedule armed: %.4f transient, %.4f corrupt "
                    "(seed %llu)\n",
                    config.transient_error_rate, config.corruption_rate,
                    static_cast<unsigned long long>(config.seed));
      } else if (what == "fail" || what == "corrupt") {
        uint64_t page = 0;
        uint32_t times = 0;
        if (!(in >> page) || (what == "fail" && !(in >> times))) {
          std::printf("usage: faults fail <page> <times> | "
                      "faults corrupt <page>\n");
          return true;
        }
        if (injector_ == nullptr) {
          injector_ = std::make_unique<FaultInjector>();
          engine_->SetFaultInjector(injector_.get());
        }
        if (what == "fail") {
          injector_->FailNextReads(page, times);
          std::printf("next %u read(s) of page %llu will fail\n", times,
                      static_cast<unsigned long long>(page));
        } else {
          injector_->CorruptPage(page);
          std::printf("page %llu now delivers corrupt images\n",
                      static_cast<unsigned long long>(page));
        }
      } else if (what == "clear") {
        engine_->ClearFaults();
        std::printf("faults cleared, quarantines lifted\n");
      } else if (what == "status") {
        if (injector_ == nullptr) {
          std::printf("no fault schedule armed\n");
        } else {
          std::printf("  transient faults injected: %llu\n"
                      "  corruptions injected:      %llu\n"
                      "  quarantined pages:         %llu\n",
                      static_cast<unsigned long long>(
                          injector_->transient_faults_injected()),
                      static_cast<unsigned long long>(
                          injector_->corruptions_injected()),
                      static_cast<unsigned long long>(
                          engine_->disk_simulator()->quarantined_pages()));
        }
      } else {
        std::printf("usage: faults rate|fail|corrupt|clear|status ...\n");
      }
      return true;
    }

    if (cmd == "govern") {
      std::string what;
      in >> what;
      if (what == "deadline") {
        double ms = 0;
        if (!(in >> ms) || ms < 0) {
          std::printf("usage: govern deadline <ms>   (0 = none)\n");
          return true;
        }
        deadline_ms_ = ms;
      } else if (what == "budget") {
        std::string which;
        uint64_t v = 0;
        if (!(in >> which >> v)) {
          std::printf("usage: govern budget attrs|pages|scratch <v>   "
                      "(0 = unlimited)\n");
          return true;
        }
        if (which == "attrs") {
          budgets_.max_attributes = v;
        } else if (which == "pages") {
          budgets_.max_pages = v;
        } else if (which == "scratch") {
          budgets_.max_scratch_bytes = static_cast<size_t>(v);
        } else {
          std::printf("usage: govern budget attrs|pages|scratch <v>\n");
          return true;
        }
      } else if (what == "off") {
        deadline_ms_ = 0;
        budgets_ = QueryBudgets{};
      } else if (what != "status") {
        std::printf("usage: govern deadline|budget|off|status ...\n");
        return true;
      }
      if (deadline_ms_ <= 0 && !budgets_.any()) {
        std::printf("governance off: queries run unbounded\n");
      } else {
        std::printf("governance armed:");
        const char* sep = " ";
        if (deadline_ms_ > 0) {
          std::printf("%sdeadline %.3f ms", sep, deadline_ms_);
          sep = " | ";
        }
        if (budgets_.max_attributes != 0) {
          std::printf("%sattrs <= %llu", sep,
                      static_cast<unsigned long long>(
                          budgets_.max_attributes));
          sep = " | ";
        }
        if (budgets_.max_pages != 0) {
          std::printf("%spages <= %llu", sep,
                      static_cast<unsigned long long>(budgets_.max_pages));
          sep = " | ";
        }
        if (budgets_.max_scratch_bytes != 0) {
          std::printf("%sscratch <= %zu B", sep,
                      budgets_.max_scratch_bytes);
        }
        std::printf("\n");
      }
      return true;
    }

    if (cmd == "cache") {
      std::string what;
      in >> what;
      if (what == "on") {
        double mib = 32;
        double radius = 0;
        in >> mib >> radius;
        cache_config_ = cache::CacheConfig{};
        if (mib > 0) {
          cache_config_.max_bytes =
              static_cast<size_t>(mib * 1024.0 * 1024.0);
        }
        cache_config_.warm_radius = radius;
        cache_on_ = true;
        if (engine_ != nullptr) engine_->EnableCache(cache_config_);
        std::printf("cache on: %.1f MiB budget", mib);
        if (radius > 0) {
          std::printf(", warm-start radius %.4f", radius);
        }
        std::printf("  (survives gen/load)\n");
      } else if (what == "off") {
        cache_on_ = false;
        if (engine_ != nullptr) engine_->DisableCache();
        std::printf("cache off\n");
      } else if (what == "clear") {
        if (engine_ == nullptr || engine_->cache() == nullptr) {
          std::printf("cache is not enabled\n");
          return true;
        }
        engine_->cache()->Clear();
        std::printf("cache cleared\n");
      } else if (what == "stats") {
        if (engine_ == nullptr || engine_->cache() == nullptr) {
          std::printf("cache is not enabled\n");
          return true;
        }
        const auto s = engine_->cache()->Stats();
        const uint64_t lookups = s.hits + s.misses;
        std::printf(
            "  entries %llu  bytes %llu\n"
            "  hits %llu  misses %llu  (%.1f%% hit ratio)\n"
            "  stores %llu  evictions %llu\n"
            "  invalidated: %llu by insert, %llu by erase\n",
            static_cast<unsigned long long>(s.entries),
            static_cast<unsigned long long>(s.bytes),
            static_cast<unsigned long long>(s.hits),
            static_cast<unsigned long long>(s.misses),
            lookups > 0 ? 100.0 * static_cast<double>(s.hits) /
                              static_cast<double>(lookups)
                        : 0.0,
            static_cast<unsigned long long>(s.stores),
            static_cast<unsigned long long>(s.evictions),
            static_cast<unsigned long long>(s.invalidated_insert),
            static_cast<unsigned long long>(s.invalidated_erase));
      } else {
        std::printf("usage: cache on [mib] [warm_radius] | cache "
                    "off|stats|clear\n");
      }
      return true;
    }

    if (cmd == "batch") {
      if (!RequireData()) return true;
      std::string what;
      in >> what;
      size_t n0 = 0, n1 = 0, k = 0, q = 0;
      if (what == "knmatch") {
        if (!(in >> n0 >> k >> q)) {
          std::printf("usage: batch knmatch <n> <k> <q>\n");
          return true;
        }
        n1 = n0;
      } else if (what == "fknmatch") {
        if (!(in >> n0 >> n1 >> k >> q)) {
          std::printf("usage: batch fknmatch <n0> <n1> <k> <q>\n");
          return true;
        }
      } else if (what == "knn") {
        if (!(in >> k >> q)) {
          std::printf("usage: batch knn <k> <q>\n");
          return true;
        }
      } else {
        std::printf("usage: batch knmatch|fknmatch|knn ...\n");
        return true;
      }
      RunBatch(what, n0, n1, k, q);
      return true;
    }

    if (cmd == "ingest") {
      if (!RequireData()) return true;
      std::string what;
      in >> what;
      if (what == "begin") {
        SimilarityEngine::IngestConfig config;
        in >> config.group_commit_window;
        if (config.group_commit_window == 0) config.group_commit_window = 1;
        const Status s = engine_->BeginIngest(config);
        if (!s.ok()) {
          std::printf("%s\n", s.ToString().c_str());
          return true;
        }
        std::printf("ingest session open (group-commit window %zu)\n",
                    config.group_commit_window);
      } else if (what == "add") {
        std::vector<Value> coords;
        Value v;
        while (in >> v) coords.push_back(v);
        auto r = engine_->IngestPoint(coords);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
          return true;
        }
        std::printf("ingested pid %u\n", r.value());
      } else if (what == "erase") {
        PointId pid = 0;
        if (!(in >> pid)) {
          std::printf("usage: ingest erase <pid>\n");
          return true;
        }
        auto r = engine_->ErasePoint(pid);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
        } else {
          std::printf(r.value() ? "erased pid %u\n"
                                : "pid %u was not live\n",
                      pid);
        }
      } else if (what == "flush") {
        const Status s = engine_->FlushIngest();
        std::printf("%s\n", s.ok() ? "flushed" : s.ToString().c_str());
      } else if (what == "query") {
        size_t n, k, pid;
        if (!(in >> n >> k >> pid)) {
          std::printf("usage: ingest query <n> <k> <pid>\n");
          return true;
        }
        std::vector<Value> q;
        if (!QueryOf(pid, &q)) return true;
        QueryContext ctx;
        QueryContext* pctx = ArmContext(&ctx);
        auto r = engine_->LiveKnMatch(q, n, k, pctx);
        if (!r.ok()) {
          PrintStatus(r.status(), pctx);
          return true;
        }
        PrintMatches(r.value().matches);
        std::printf("  (%llu attributes retrieved, live snapshot)\n",
                    static_cast<unsigned long long>(
                        r.value().attributes_retrieved));
      } else if (what == "status") {
        const LiveColumnIndex* live = engine_->live_index();
        if (live == nullptr) {
          std::printf("no ingest session; 'ingest begin' first\n");
          return true;
        }
        std::printf("  epoch %llu | %zu live points | %zu free tree "
                    "slots | %zu committed ops (%zu pending)\n",
                    static_cast<unsigned long long>(live->epoch()),
                    live->live_size(), live->free_slots(),
                    live->committed_ops().size(), live->pending_ops());
      } else if (what == "end") {
        const Status s = engine_->EndIngest();
        if (!s.ok()) {
          std::printf("%s\n", s.ToString().c_str());
          return true;
        }
        std::printf("ingest folded in: dataset now %zu points (indexes "
                    "rebuild on next query)\n",
                    engine_->dataset().size());
      } else {
        std::printf(
            "usage: ingest begin|add|erase|flush|query|status|end ...\n");
      }
      return true;
    }

    if (cmd == "shard") {
      std::string what;
      in >> what;
      if (what == "on") {
        if (!RequireData()) return true;
        shard::RouterOptions opts;
        opts.shards = shards_;
        opts.replicas = replicas_;
        opts.partitioner = partitioner_;
        size_t s = 0;
        if (in >> s && s > 0) opts.shards = s;
        std::string part;
        if (in >> part) {
          auto p = shard::ParsePartitioner(part);
          if (!p.ok()) {
            std::printf("%s\n", p.status().ToString().c_str());
            return true;
          }
          opts.partitioner = p.value();
        }
        size_t r = 0;
        if (in >> r && r > 0) opts.replicas = r;
        opts.threads = threads_;
        router_ = std::make_unique<shard::ShardRouter>(
            engine_->dataset(), opts);
        if (cache_on_) router_->EnableCache(cache_config_);
        std::printf("sharded: %zu shard(s) x %zu replica(s), %s "
                    "partitioner over %zu points\n",
                    router_->num_shards(), router_->num_replicas(),
                    shard::PartitionerName(opts.partitioner),
                    engine_->dataset().size());
        return true;
      }
      if (what == "off") {
        router_.reset();
        std::printf("sharding off: queries run on the unsharded engine\n");
        return true;
      }
      if (router_ == nullptr) {
        std::printf("no shard router; 'shard on [shards] "
                    "[hash|range|kmeans] [replicas]' first\n");
        return true;
      }
      if (what == "query" || what == "fquery") {
        size_t n0, n1, k, pid;
        if (what == "query") {
          if (!(in >> n0 >> k >> pid)) {
            std::printf("usage: shard query <n> <k> <pid>\n");
            return true;
          }
          n1 = n0;
        } else if (!(in >> n0 >> n1 >> k >> pid)) {
          std::printf("usage: shard fquery <n0> <n1> <k> <pid>\n");
          return true;
        }
        std::vector<Value> q;
        if (!QueryOf(pid, &q)) return true;
        QueryContext ctx;
        QueryContext* pctx = ArmContext(&ctx);
        FrequentKnMatchResult result;
        shard::DispatchReport d;
        if (what == "query") {
          auto r = router_->KnMatch(q, n0, k, {}, pctx, &d);
          if (!r.ok()) {
            PrintStatus(r.status(), pctx);
            return true;
          }
          result.per_n_sets.push_back(std::move(r.value().matches));
        } else {
          auto r = router_->FrequentKnMatch(q, n0, n1, k, {}, pctx, &d);
          if (!r.ok()) {
            PrintStatus(r.status(), pctx);
            return true;
          }
          result = std::move(r.value());
        }
        for (size_t i = 0; i < result.per_n_sets.size(); ++i) {
          if (result.per_n_sets.size() > 1) {
            std::printf(" n=%zu:\n", n0 + i);
          }
          PrintMatches(result.per_n_sets[i]);
        }
        if (what == "fquery" && !result.matches.empty()) {
          std::printf("  frequent:");
          for (size_t i = 0; i < result.matches.size(); ++i) {
            std::printf(" pid %u (x%u)", result.matches[i].pid,
                        result.frequencies[i]);
          }
          std::printf("\n");
        }
        std::printf("  %zu shard(s) dispatched", d.shards_dispatched);
        if (d.cache_hit) std::printf(", served from cache");
        if (d.hedges > 0) {
          std::printf(", %zu hedged (%zu won)", d.hedges, d.hedge_wins);
        }
        if (d.failovers > 0) std::printf(", %zu failover(s)", d.failovers);
        if (d.breaker_skips > 0) {
          std::printf(", %zu breaker skip(s)", d.breaker_skips);
        }
        std::printf("\n");
        if (d.degradation.partial()) {
          std::printf("  PARTIAL answer: %zu/%zu shards answered\n",
                      d.degradation.shards_answered,
                      d.degradation.shards_total);
          for (const shard::ShardFailure& f : d.degradation.failed) {
            std::printf("    shard %u: %s\n", f.shard,
                        f.status.ToString().c_str());
          }
        }
        MaybePrintTrace();
      } else if (what == "stats") {
        const shard::RouterStats st = router_->Stats();
        std::printf(
            "  queries %llu  dispatches %llu  hedges %llu (%llu won)\n"
            "  failovers %llu  breaker skips %llu  partial answers %llu\n"
            "  rebalances %llu (%llu partitions moved)  cache hits %llu\n",
            static_cast<unsigned long long>(st.queries),
            static_cast<unsigned long long>(st.dispatches),
            static_cast<unsigned long long>(st.hedges),
            static_cast<unsigned long long>(st.hedge_wins),
            static_cast<unsigned long long>(st.failovers),
            static_cast<unsigned long long>(st.breaker_skips),
            static_cast<unsigned long long>(st.partial_answers),
            static_cast<unsigned long long>(st.rebalances),
            static_cast<unsigned long long>(st.partitions_moved),
            static_cast<unsigned long long>(st.cache_hits));
        for (size_t i = 0; i < st.shard_points.size(); ++i) {
          const char* state = "closed";
          switch (router_->breaker_state(i)) {
            case exec::CircuitBreaker::State::kOpen: state = "OPEN"; break;
            case exec::CircuitBreaker::State::kHalfOpen:
              state = "half-open";
              break;
            default: break;
          }
          std::printf("  shard %zu: %llu point(s), breaker %s\n", i,
                      static_cast<unsigned long long>(st.shard_points[i]),
                      state);
        }
      } else if (what == "rebalance") {
        auto r = router_->Rebalance();
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
          return true;
        }
        std::printf("  moved %zu partition(s); max shard load %llu -> "
                    "%llu point(s)\n",
                    r.value().partitions_moved,
                    static_cast<unsigned long long>(
                        r.value().max_shard_points_before),
                    static_cast<unsigned long long>(
                        r.value().max_shard_points_after));
      } else {
        std::printf(
            "usage: shard on [shards] [hash|range|kmeans] [replicas] | "
            "shard query|fquery|stats|rebalance|off ...\n");
      }
      return true;
    }

    if (cmd == "wal") {
      if (!RequireData()) return true;
      std::string what;
      in >> what;
      const LiveColumnIndex* live = engine_->live_index();
      if (live == nullptr) {
        std::printf("no ingest session; 'ingest begin' first\n");
        return true;
      }
      if (what == "stats") {
        const WriteAheadLog::Stats st = live->wal().stats();
        std::printf(
            "  appends %llu  commits %llu  fsyncs %llu  checkpoints %llu\n"
            "  log %llu B (%llu durable)  lifetime appended %llu B\n"
            "  pending commits %llu  truncations %llu  next lsn %llu\n",
            static_cast<unsigned long long>(st.appends),
            static_cast<unsigned long long>(st.commits),
            static_cast<unsigned long long>(st.fsyncs),
            static_cast<unsigned long long>(st.checkpoints),
            static_cast<unsigned long long>(st.log_bytes),
            static_cast<unsigned long long>(st.durable_bytes),
            static_cast<unsigned long long>(st.bytes_appended),
            static_cast<unsigned long long>(st.pending_commits),
            static_cast<unsigned long long>(st.truncations),
            static_cast<unsigned long long>(st.next_lsn));
      } else if (what == "checkpoint") {
        const Status s = engine_->Checkpoint();
        std::printf("%s\n",
                    s.ok() ? "checkpointed; log truncated"
                           : s.ToString().c_str());
      } else {
        std::printf("usage: wal stats|checkpoint\n");
      }
      return true;
    }

    if (cmd == "recover") {
      if (!RequireData()) return true;
      if (engine_->live_index() == nullptr) {
        std::printf("no ingest session; 'ingest begin' first\n");
        return true;
      }
      const Status s = engine_->Recover();
      if (!s.ok()) {
        std::printf("%s\n", s.ToString().c_str());
        return true;
      }
      const LiveColumnIndex* live = engine_->live_index();
      std::printf("recovered: epoch %llu, %zu live points (cache epoch "
                  "bumped)\n",
                  static_cast<unsigned long long>(live->epoch()),
                  live->live_size());
      return true;
    }

    if (cmd == "gen") {
      std::string kind;
      in >> kind;
      if (kind == "uniform") {
        size_t c = 1000, d = 8;
        uint64_t seed = 1;
        in >> c >> d >> seed;
        Adopt(datagen::MakeUniform(c, d, seed));
      } else if (kind == "clustered") {
        datagen::ClusteredSpec spec;
        in >> spec.cardinality >> spec.dims >> spec.num_classes >>
            spec.seed;
        Adopt(datagen::MakeClustered(spec));
      } else if (kind == "texture") {
        size_t c = 68040;
        uint64_t seed = 9;
        in >> c >> seed;
        Adopt(datagen::MakeTextureLike(seed, c));
      } else if (kind == "coil") {
        Adopt(datagen::MakeCoilLike());
      } else {
        std::printf("unknown generator '%s'\n", kind.c_str());
      }
      return true;
    }

    if (cmd == "load") {
      std::string kind, path;
      in >> kind >> path;
      if (kind == "csv") {
        io::CsvOptions options;
        int label_col = -1;
        if (in >> label_col) options.label_column = label_col;
        auto loaded = io::LoadCsv(path, options);
        if (!loaded.ok()) {
          std::printf("load failed: %s\n",
                      loaded.status().ToString().c_str());
        } else {
          Adopt(std::move(loaded).value());
        }
      } else if (kind == "knm") {
        auto loaded = io::LoadDataset(path);
        if (!loaded.ok()) {
          std::printf("load failed: %s\n",
                      loaded.status().ToString().c_str());
        } else {
          Adopt(std::move(loaded).value());
        }
      } else {
        std::printf("usage: load csv|knm <path>\n");
      }
      return true;
    }

    if (cmd == "save") {
      if (!RequireData()) return true;
      std::string kind, path;
      in >> kind >> path;
      const Status s = kind == "csv"
                           ? io::WriteCsv(engine_->dataset(), path)
                           : io::SaveDataset(engine_->dataset(), path);
      std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
      return true;
    }

    if (cmd == "info") {
      if (!RequireData()) return true;
      const Dataset& db = engine_->dataset();
      std::printf("name: %s\npoints: %zu\ndims: %zu\nclasses: %zu\n",
                  db.name().c_str(), db.size(), db.dims(),
                  db.num_classes());
      const auto stats = engine_->DiskStorageStats();
      std::printf("disk: %zu row pages, %zu column pages, %zu VA pages\n",
                  stats.row_pages, stats.column_pages, stats.va_pages);
      return true;
    }

    if (cmd == "knmatch") {
      if (!RequireData()) return true;
      size_t n, k, pid;
      if (!(in >> n >> k >> pid)) {
        std::printf("usage: knmatch <n> <k> <pid>\n");
        return true;
      }
      std::vector<Value> q;
      if (!QueryOf(pid, &q)) return true;
      QueryContext ctx;
      QueryContext* pctx = ArmContext(&ctx);
      auto r = engine_->KnMatch(q, n, k, {}, pctx);
      if (!r.ok()) {
        PrintStatus(r.status(), pctx);
        return true;
      }
      PrintMatches(r.value().matches);
      std::printf("  (%llu attributes retrieved)\n",
                  static_cast<unsigned long long>(
                      r.value().attributes_retrieved));
      MaybePrintTrace();
      return true;
    }

    if (cmd == "fknmatch") {
      if (!RequireData()) return true;
      size_t n0, n1, k, pid;
      if (!(in >> n0 >> n1 >> k >> pid)) {
        std::printf("usage: fknmatch <n0> <n1> <k> <pid>\n");
        return true;
      }
      std::vector<Value> q;
      if (!QueryOf(pid, &q)) return true;
      QueryContext ctx;
      QueryContext* pctx = ArmContext(&ctx);
      auto r = engine_->FrequentKnMatch(q, n0, n1, k, {}, pctx);
      if (!r.ok()) {
        PrintStatus(r.status(), pctx);
        return true;
      }
      for (size_t i = 0; i < r.value().matches.size(); ++i) {
        std::printf("  pid %-8u in %u of %zu answer sets\n",
                    r.value().matches[i].pid, r.value().frequencies[i],
                    n1 - n0 + 1);
      }
      MaybePrintTrace();
      return true;
    }

    if (cmd == "knn" || cmd == "igrid") {
      if (!RequireData()) return true;
      size_t k, pid;
      if (!(in >> k >> pid)) {
        std::printf("usage: %s <k> <pid>\n", cmd.c_str());
        return true;
      }
      std::vector<Value> q;
      if (!QueryOf(pid, &q)) return true;
      QueryContext ctx;
      QueryContext* pctx = cmd == "knn" ? ArmContext(&ctx) : nullptr;
      auto r = cmd == "knn" ? engine_->Knn(q, k, Metric::kEuclidean, pctx)
                            : engine_->IGridSearch(q, k);
      if (!r.ok()) {
        PrintStatus(r.status(), pctx);
        return true;
      }
      PrintMatches(r.value().matches);
      MaybePrintTrace();
      return true;
    }

    if (cmd == "disk") {
      if (!RequireData()) return true;
      std::string method_name;
      size_t n0, n1, k, pid;
      if (!(in >> method_name >> n0 >> n1 >> k >> pid)) {
        std::printf("usage: disk auto|scan|ad|va|mem <n0> <n1> <k> <pid>\n");
        return true;
      }
      SimilarityEngine::DiskMethod method =
          SimilarityEngine::DiskMethod::kAuto;
      if (method_name == "scan") {
        method = SimilarityEngine::DiskMethod::kScan;
      } else if (method_name == "ad") {
        method = SimilarityEngine::DiskMethod::kAd;
      } else if (method_name == "va") {
        method = SimilarityEngine::DiskMethod::kVaFile;
      } else if (method_name == "mem") {
        method = SimilarityEngine::DiskMethod::kMemoryAd;
      } else if (method_name != "auto") {
        std::printf("unknown method '%s'\n", method_name.c_str());
        return true;
      }
      std::vector<Value> q;
      if (!QueryOf(pid, &q)) return true;
      QueryContext ctx;
      QueryContext* pctx = ArmContext(&ctx);
      SimilarityEngine::DiskReport report;
      auto r =
          engine_->DiskFrequentKnMatch(q, n0, n1, k, method, pctx, &report);
      for (const auto& step : report.fallback) {
        std::printf("  degraded: %s failed (%s)\n", MethodName(step.method),
                    step.status.ToString().c_str());
      }
      if (!r.ok()) {
        PrintStatus(r.status(), pctx);
        return true;
      }
      PrintMatches(r.value().matches);
      std::printf("  method: %s | io %.3fs (%llu seq + %llu rnd pages)\n",
                  MethodName(report.method), report.cost.io_seconds,
                  static_cast<unsigned long long>(report.cost.sequential_pages),
                  static_cast<unsigned long long>(report.cost.random_pages));
      MaybePrintTrace();
      return true;
    }

    if (cmd == "join") {
      if (!RequireData()) return true;
      size_t n;
      double eps;
      if (!(in >> n >> eps)) {
        std::printf("usage: join <n> <eps>\n");
        return true;
      }
      auto r = engine_->SelfJoin(n, eps);
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
        return true;
      }
      std::printf("  %zu pairs match within eps=%.4f in >= %zu dims\n",
                  r.value().size(), eps, n);
      for (size_t i = 0; i < std::min<size_t>(10, r.value().size()); ++i) {
        std::printf("  (%u, %u)\n", r.value()[i].a, r.value()[i].b);
      }
      if (r.value().size() > 10) std::printf("  ...\n");
      return true;
    }

    if (cmd == "estimate") {
      if (!RequireData()) return true;
      size_t n, k, pid;
      if (!(in >> n >> k >> pid)) {
        std::printf("usage: estimate <n> <k> <pid>\n");
        return true;
      }
      std::vector<Value> q;
      if (!QueryOf(pid, &q)) return true;
      auto r = engine_->EstimateSelectivity(q, n, k);
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
        return true;
      }
      std::printf("  estimated %zu-%zu-match difference: %.4f\n", k, n,
                  r.value().estimated_difference);
      std::printf("  estimated AD attribute fraction: %.1f%%\n",
                  100 * r.value().ad_attribute_fraction);
      return true;
    }

    if (cmd == "insert") {
      if (!RequireData()) return true;
      std::vector<Value> coords;
      Value v;
      while (in >> v) coords.push_back(v);
      if (coords.size() != engine_->dataset().dims()) {
        std::printf("need exactly %zu coordinates\n",
                    engine_->dataset().dims());
        return true;
      }
      const PointId pid = engine_->InsertPoint(coords);
      std::printf("inserted pid %u (dataset now %zu points; indexes "
                  "rebuild on next query)\n",
                  pid, engine_->dataset().size());
      return true;
    }

    std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    return true;
  }

  // Samples `q` dataset points as queries and runs them as one batch,
  // reporting wall time, throughput, and a determinism checksum (the
  // sum of all result pids — identical for every thread count).
  void RunBatch(const std::string& what, size_t n0, size_t n1, size_t k,
                size_t q) {
    exec::BatchRequest request;
    request.options.threads = threads_;
    // Session governance applies per query inside the batch too; the
    // session deadline doubles as the whole batch's deadline.
    if (deadline_ms_ > 0) request.options.deadline_ms = deadline_ms_;
    request.options.budgets = budgets_;
    for (const PointId pid :
         eval::SampleQueryPids(engine_->dataset(), q, /*seed=*/4242)) {
      auto p = engine_->dataset().point(pid);
      request.queries.emplace_back(p.begin(), p.end());
    }

    const auto start = std::chrono::steady_clock::now();
    uint64_t checksum = 0;
    uint64_t attributes = 0;
    size_t answered = 0;
    size_t skipped = 0;
    auto tally = [&](const std::vector<Status>& statuses) {
      for (const Status& s : statuses) {
        if (s.ok()) {
          ++answered;
        } else {
          ++skipped;
        }
      }
    };
    if (what == "knn") {
      auto r = engine_->KnnBatch(request, k);
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
        return;
      }
      tally(r.value().statuses);
      for (const auto& result : r.value().results) {
        for (const Neighbor& nb : result.matches) checksum += nb.pid;
      }
    } else if (what == "knmatch") {
      auto r = engine_->KnMatchBatch(request, n0, k);
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
        return;
      }
      tally(r.value().statuses);
      attributes = r.value().attributes_retrieved;
      for (const auto& result : r.value().results) {
        for (const Neighbor& nb : result.matches) checksum += nb.pid;
      }
    } else {
      auto r = engine_->FrequentKnMatchBatch(request, n0, n1, k);
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
        return;
      }
      tally(r.value().statuses);
      attributes = r.value().attributes_retrieved;
      for (const auto& result : r.value().results) {
        for (const Neighbor& nb : result.matches) checksum += nb.pid;
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf(
        "  %zu queries on %zu worker(s): %.3f s  (%.1f queries/s)\n",
        answered, exec::ResolveThreads(threads_), seconds,
        seconds > 0 ? static_cast<double>(answered) / seconds : 0.0);
    if (skipped > 0) {
      std::printf("  %zu queries skipped or shed "
                  "(deadline/cancel/budget)\n",
                  skipped);
    }
    if (attributes > 0) {
      std::printf("  %llu attributes retrieved in total\n",
                  static_cast<unsigned long long>(attributes));
    }
    std::printf("  checksum %llu\n",
                static_cast<unsigned long long>(checksum));
  }

  // Prints and clears the accumulated per-query trace (no-op while
  // tracing is off). Query commands call this after their answer.
  void MaybePrintTrace() {
    if (trace_scope_ == nullptr) return;
    std::printf("%s", trace_.ToString().c_str());
    trace_.Clear();
  }

  std::unique_ptr<SimilarityEngine> engine_;
  std::unique_ptr<FaultInjector> injector_;
  obs::QueryTrace trace_;
  std::unique_ptr<obs::TraceScope> trace_scope_;
  size_t threads_ = 0;
  double deadline_ms_ = 0;
  QueryBudgets budgets_;
  // Session cache policy: re-applied to every engine Adopt() builds.
  bool cache_on_ = false;
  cache::CacheConfig cache_config_;
  // Scatter-gather router over the current dataset ('shard on'); the
  // flags below seed its defaults and Adopt() drops it.
  std::unique_ptr<shard::ShardRouter> router_;
  size_t shards_ = 4;
  size_t replicas_ = 1;
  shard::Partitioner partitioner_ = shard::Partitioner::kHash;
};

// --- Non-interactive subcommands: serve / loadgen (docs/serving.md) ---

std::atomic<bool> g_interrupted{false};

void OnSignal(int) { g_interrupted.store(true, std::memory_order_release); }

// `knmatch_cli serve`: generate a dataset, start the HTTP front end on
// it, publish the bound port, and run until drained (POST /admin/drain
// or SIGINT/SIGTERM), then exit 0. Scriptable: --port-file hands an
// ephemeral port to the caller.
int RunServeMode(int argc, char** argv) {
  serve::ServerOptions options;
  size_t points = 2000;
  size_t dims = 8;
  uint64_t seed = 1;
  size_t shards = 0;
  std::string port_file;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr,
                                                        10));
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      options.default_deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--drain-timeout-ms" && i + 1 < argc) {
      options.drain_timeout_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      options.idle_timeout_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      options.max_inflight =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--points" && i + 1 < argc) {
      points = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--dims" && i + 1 < argc) {
      dims = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s serve [--port <p>] [--threads <t>] "
          "[--deadline-ms <ms>] [--drain-timeout-ms <ms>] "
          "[--idle-timeout-ms <ms>] [--max-inflight <r>] [--shards <s>] "
          "[--points <c>] [--dims <d>] [--seed <s>] [--port-file <path>]\n",
          argv[0]);
      return 1;
    }
  }

  Dataset db = datagen::MakeUniform(points, dims, seed);
  SimilarityEngine engine(db);
  std::unique_ptr<shard::ShardRouter> router;
  if (shards > 0) {
    shard::RouterOptions ropts;
    ropts.shards = shards;
    router = std::make_unique<shard::ShardRouter>(db, ropts);
  }
  serve::HttpServer server(&engine, options, router.get());
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("serving %zu points x %zu dims on 127.0.0.1:%u%s\n", points,
              dims, server.port(), shards > 0 ? " (sharded)" : "");
  std::fflush(stdout);
  while (server.running()) {
    if (g_interrupted.load(std::memory_order_acquire)) {
      server.Drain();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  const serve::ServerStats stats = server.Stats();
  std::printf("drained: %llu requests, %llu shed, %llu malformed, "
              "%llu torn\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.malformed),
              static_cast<unsigned long long>(stats.torn_frames));
  return 0;
}

// `knmatch_cli loadgen`: open-loop load (Poisson arrivals, Zipfian
// query mix, linear RPS ramp, optional fault injection) against a
// running serve instance; prints a one-line JSON report.
int RunLoadgenMode(int argc, char** argv) {
  serve::LoadgenOptions options;
  size_t points = 2000;
  size_t dims = 8;
  uint64_t data_seed = 1;
  datagen::ZipfianQueryMixSpec mix;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr,
                                                        10));
    } else if (arg == "--rps" && i + 1 < argc) {
      options.rps_start = options.rps_end = std::strtod(argv[++i], nullptr);
    } else if (arg == "--rps-end" && i + 1 < argc) {
      options.rps_end = std::strtod(argv[++i], nullptr);
    } else if (arg == "--duration-s" && i + 1 < argc) {
      options.duration_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--connections" && i + 1 < argc) {
      options.connections = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      options.deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--type" && i + 1 < argc) {
      options.type = argv[++i];
    } else if (arg == "--k" && i + 1 < argc) {
      options.k = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--n" && i + 1 < argc) {
      options.n = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--fault-fraction" && i + 1 < argc) {
      options.fault_fraction = std::strtod(argv[++i], nullptr);
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--points" && i + 1 < argc) {
      points = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--dims" && i + 1 < argc) {
      dims = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--data-seed" && i + 1 < argc) {
      data_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--pool" && i + 1 < argc) {
      mix.pool_size = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--skew" && i + 1 < argc) {
      mix.skew = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(
          stderr,
          "usage: %s loadgen --port <p> [--rps <r>] [--rps-end <r>] "
          "[--duration-s <s>] [--connections <c>] [--deadline-ms <ms>] "
          "[--type knmatch|fknmatch|knn] [--k <k>] [--n <n>] "
          "[--fault-fraction <f>] [--seed <s>] [--points <c>] "
          "[--dims <d>] [--data-seed <s>] [--pool <p>] [--skew <z>]\n",
          argv[0]);
      return 1;
    }
  }
  if (options.port == 0) {
    std::fprintf(stderr, "loadgen: --port is required\n");
    return 1;
  }
  // The query pool mirrors the serve side's dataset: same generator,
  // same seed => the queries are real points of the served dataset.
  Dataset db = datagen::MakeUniform(points, dims, data_seed);
  // The mix is drawn Zipfian from the distinct pool; loadgen then
  // cycles it uniformly, so hot queries repeat at their Zipf share.
  mix.count = std::max<size_t>(mix.pool_size * 8, 256);
  mix.seed = options.seed;
  const std::vector<std::vector<Value>> pool =
      datagen::MakeZipfianQueryMix(db, mix);
  auto r = serve::RunOpenLoopLoad(options, pool);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  const serve::LoadReport& rep = r.value();
  std::printf(
      "{\"scheduled\": %llu, \"sent\": %llu, \"ok\": %llu, "
      "\"shed\": %llu, \"deadline\": %llu, \"client_error\": %llu, "
      "\"server_error\": %llu, \"partial\": %llu, "
      "\"transport_errors\": %llu, \"faults_injected\": %llu, "
      "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, "
      "\"max_ms\": %.3f, \"achieved_rps\": %.1f, \"shed_rate\": %.4f}\n",
      static_cast<unsigned long long>(rep.scheduled),
      static_cast<unsigned long long>(rep.sent),
      static_cast<unsigned long long>(rep.ok),
      static_cast<unsigned long long>(rep.shed),
      static_cast<unsigned long long>(rep.deadline),
      static_cast<unsigned long long>(rep.client_error),
      static_cast<unsigned long long>(rep.server_error),
      static_cast<unsigned long long>(rep.partial),
      static_cast<unsigned long long>(rep.transport_errors),
      static_cast<unsigned long long>(rep.faults_injected), rep.p50_ms,
      rep.p99_ms, rep.p999_ms, rep.max_ms, rep.achieved_rps,
      rep.shed_rate);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "serve") {
    return RunServeMode(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "loadgen") {
    return RunLoadgenMode(argc, argv);
  }
  size_t threads = 0;
  double deadline_ms = 0;
  uint64_t attr_budget = 0;
  bool cache_on = false;
  size_t shards = 4;
  size_t replicas = 1;
  knmatch::shard::Partitioner partitioner =
      knmatch::shard::Partitioner::kHash;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--budget" && i + 1 < argc) {
      attr_budget = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--cache") {
      cache_on = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (shards == 0) shards = 1;
    } else if (arg == "--replicas" && i + 1 < argc) {
      replicas = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (replicas == 0) replicas = 1;
    } else if (arg == "--partitioner" && i + 1 < argc) {
      auto p = knmatch::shard::ParsePartitioner(argv[++i]);
      if (!p.ok()) {
        std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
        return 1;
      }
      partitioner = p.value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads <t>] [--deadline-ms <ms>] "
                   "[--budget <attrs>] [--cache] [--shards <s>] "
                   "[--partitioner hash|range|kmeans] [--replicas <r>]\n",
                   argv[0]);
      return 1;
    }
  }
  return Cli(threads, deadline_ms, attr_budget, cache_on, shards,
             partitioner, replicas)
      .Run();
}
