// serve_sharded_zipf: an open loop of Poisson arrivals, at a ladder of
// fixed offered rates, from at most nproc client connections to an
// in-process HttpServer fronting a ShardRouter (uniform 50000 x 16,
// S=4, R=1, hash partitioner, hedging off, router result cache on).
// Requests are /query k-n-match (n=8, k=10) drawn Zipf-skewed from a
// pool of distinct queries. HTTP parsing, admission, router fan-out and
// merge, and the cache do most of the work; the kernel runs only on
// misses, over quarter-size shards.
//
// Every request is timed from its scheduled send. The traced run
// replays sampled requests of the lowest rung through the layer
// functions (parse, JSON, cache hit or router, per-shard engines,
// render), since the benchmark cannot see inside the server.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "common.h"
#include "knmatch/common/random.h"
#include "knmatch/datagen/generators.h"
#include "knmatch/engine.h"
#include "knmatch/serve/client.h"
#include "knmatch/serve/http.h"
#include "knmatch/serve/json.h"
#include "knmatch/serve/server.h"
#include "knmatch/shard/shard_router.h"

namespace perfbench {
namespace {

using knmatch::Value;
using knmatch::serve::HttpServer;
using knmatch::shard::ShardRouter;

constexpr size_t kPoints = 50000;
constexpr size_t kDims = 16;
constexpr uint64_t kDataSeed = 7;  // fixed data; the seed draws traffic
constexpr size_t kN = 8;
constexpr size_t kK = 10;
constexpr size_t kPool = 600;      // distinct queries
constexpr double kZipfSkew = 1.0;
/// Router cache budget: smaller than the pool's answers, so LRU holds
/// the hit ratio steady (about 0.85) instead of climbing to 1. Near 0.5
/// the median would sit on the hit/miss boundary and jump between the
/// two modes as the host's speed moves.
constexpr size_t kCacheBytes = size_t{224} << 10;
/// Untimed requests that bring the cache to its steady state first.
constexpr size_t kWarmRequests = 1500;
constexpr size_t kSetups = 5;  // setup_s is their median
constexpr size_t kMaxConnections = 4;
constexpr size_t kReplaySamples = 160;
/// Latency limit on the tail percentile for slo_rps.
constexpr double kLimitMs = 20;
/// The generator is behind its schedule when its own wake-up lag (send
/// time minus the later of the scheduled time and the moment the
/// connection was free) exceeds this at p99.
constexpr double kMaxLateMs = 5;

/// One rung of the ladder: offered rate and its share of --seconds.
struct Rung {
  const char* name;
  double rps;
  double share;
};
// The reference rung gives p50_ms/tail_ms; the top rung offers more than
// the server can take, so its completion rate is the capacity (qps).
constexpr Rung kLadder[] = {
    {"low", 50, 0.08},
    {"reference", 100, 0.60},
    {"high", 600, 0.07},
    {"top", 3000, 0.10},
};
constexpr size_t kLowRung = 0;
constexpr size_t kReferenceRung = 1;
constexpr size_t kTopRung = 3;

struct Served {
  size_t query = 0;
  Clock::time_point sched;
  Clock::time_point done;
  double late_ms = 0;
  bool answer_ok = false;
};

struct System {
  std::unique_ptr<knmatch::SimilarityEngine> engine;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<HttpServer> server;

  /// Stops the server, then frees what it served, in that order.
  void Reset() {
    if (server) server->Stop();
    server.reset();
    router.reset();
    engine.reset();
  }
};

System Setup(const knmatch::Dataset& db, const std::vector<Value>& warm) {
  System sys;
  knmatch::shard::RouterOptions options;
  options.shards = 4;
  options.replicas = 1;
  options.partitioner = knmatch::shard::Partitioner::kHash;
  sys.router = std::make_unique<ShardRouter>(db, options);
  knmatch::cache::CacheConfig cache;
  cache.max_bytes = kCacheBytes;
  sys.router->EnableCache(cache);
  // Each replica engine builds its sorted columns on first use.
  for (size_t s = 0; s < sys.router->num_shards(); ++s) {
    (void)sys.router->replica_engine(s, 0)->KnMatch(warm, kN, kK);
  }
  sys.engine = std::make_unique<knmatch::SimilarityEngine>(db);
  sys.server = std::make_unique<HttpServer>(
      sys.engine.get(), knmatch::serve::ServerOptions(), sys.router.get());
  if (!sys.server->Start().ok()) sys.server.reset();
  return sys;
}

std::string RequestBody(const std::vector<Value>& q) {
  knmatch::serve::JsonWriter w;
  w.BeginObject();
  w.Key("type").String("knmatch");
  w.Key("query").BeginArray();
  for (const Value v : q) w.Number(v);
  w.EndArray();
  w.Key("n").Uint(kN);
  w.Key("k").Uint(kK);
  w.EndObject();
  return w.Take();
}

/// The bytes HttpClient::Post puts on the wire for `body`.
std::string RequestBytes(const std::string& body) {
  return "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// The served body's answer prefix: type and matches, rendered the way
/// the server renders them. Every 200 body must start with it.
std::string AnswerPrefix(const std::vector<knmatch::Neighbor>& matches) {
  knmatch::serve::JsonWriter w;
  w.BeginObject();
  w.Key("type").String("knmatch");
  w.Key("matches").BeginArray();
  for (const knmatch::Neighbor& m : matches) {
    w.BeginObject();
    w.Key("pid").Uint(m.pid);
    w.Key("distance").Number(m.distance);
    w.EndObject();
  }
  w.EndArray();
  return w.Take() + ",";
}

/// Zipf(s) draws over pool ranks; rank r maps to pool[perm[r]].
std::vector<size_t> ZipfStream(size_t pool, size_t count, uint64_t seed) {
  knmatch::Rng rng(seed);
  std::vector<size_t> perm(pool);
  for (size_t i = 0; i < pool; ++i) perm[i] = i;
  for (size_t i = pool; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformInt(i)]);
  }
  std::vector<double> cdf(pool);
  double sum = 0;
  for (size_t i = 0; i < pool; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfSkew);
    cdf[i] = sum;
  }
  std::vector<size_t> out(count);
  for (size_t& q : out) {
    const double u = rng.Uniform01() * sum;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    q = perm[std::min(r, pool - 1)];
  }
  return out;
}

/// Offers `stream` at Poisson rate `rps` from `conns` connections; each
/// request is timed from its scheduled send. (serve::RunOpenLoopLoad
/// reports only aggregates; the checks need each request's schedule,
/// lateness and body.)
std::vector<Served> RunRung(uint16_t port, double rps,
                            const std::vector<size_t>& stream,
                            const std::vector<std::string>& bodies,
                            const std::vector<std::string>& prefixes,
                            size_t conns, uint64_t seed) {
  std::vector<Served> out(stream.size());
  knmatch::Rng rng(seed);
  double t_ms = 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < stream.size(); ++i) {
    t_ms += rng.Exponential(rps) * 1e3;
    out[i].query = stream[i];
    out[i].sched = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(t_ms));
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      knmatch::serve::HttpClient client(port);
      for (size_t i = next.fetch_add(1); i < out.size();
           i = next.fetch_add(1)) {
        Served& s = out[i];
        const Clock::time_point free = Clock::now();
        std::this_thread::sleep_until(s.sched);
        const Clock::time_point sent = Clock::now();
        s.late_ms = MsBetween(std::max(free, s.sched), sent);
        auto r = client.Post("/query", bodies[s.query]);
        s.done = Clock::now();
        s.answer_ok = r.ok() && r.value().status == 200 &&
                      r.value().body.compare(0, prefixes[s.query].size(),
                                             prefixes[s.query]) == 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

struct Replay {
  double parse_us = 0, json_us = 0, hit_us = 0, shard_ms = 0,
         slowest_ms = 0, wait_ms = 0;
  size_t hits = 0, misses = 0;
};

/// Replays sampled requests through the layers a served request crosses
/// and records their spans under a root covering the client-observed
/// latency. The cache is first brought back to the state the rung saw:
/// cleared, then fed the warm-up stream and the rung's earlier requests
/// in order, so each replayed call hits or misses as the served one did.
Replay ReplaySampled(const System& sys, const std::vector<size_t>& warm,
                     const std::vector<Served>& rung,
                     const std::vector<std::vector<Value>>& pool,
                     const std::vector<std::string>& bodies,
                     Tracer* tracer) {
  Replay rep;
  sys.router->cache()->Clear();
  for (const size_t q : warm) (void)sys.router->KnMatch(pool[q], kN, kK);
  const size_t stride = std::max<size_t>(1, rung.size() / kReplaySamples);
  size_t samples = 0;
  for (size_t i = 0; i < rung.size(); ++i) {
    const Served& s = rung[i];
    const std::vector<Value>& q = pool[s.query];
    if (i % stride != 0) {
      (void)sys.router->KnMatch(q, kN, kK);
      continue;
    }
    const std::string bytes = RequestBytes(bodies[s.query]);
    const int64_t root = tracer->Add("client.request", i, s.sched, s.done);
    double layers_ms = 0;

    Clock::time_point a = Clock::now();
    knmatch::serve::HttpParser parser;
    parser.Feed(bytes);
    const knmatch::serve::HttpRequest request = parser.Take();
    Clock::time_point b = Clock::now();
    tracer->Add("serve.parse", i, a, b, root);
    rep.parse_us += MsBetween(a, b) * 1e3;
    layers_ms += MsBetween(a, b);

    a = Clock::now();
    auto parsed = knmatch::serve::ParseJson(request.body);
    b = Clock::now();
    tracer->Add("serve.json", i, a, b, root);
    double json_ms = MsBetween(a, b);

    const uint64_t hits0 = sys.router->Stats().cache_hits;
    a = Clock::now();
    auto r = sys.router->KnMatch(q, kN, kK);
    b = Clock::now();
    const bool hit = sys.router->Stats().cache_hits > hits0;
    const int64_t routed =
        tracer->Add(hit ? "cache.hit" : "shard.query", i, a, b, root);
    layers_ms += MsBetween(a, b);
    if (hit) {
      ++rep.hits;
      rep.hit_us += MsBetween(a, b) * 1e3;
    } else {
      ++rep.misses;
      rep.shard_ms += MsBetween(a, b);
      double slowest = 0;
      for (size_t sh = 0; sh < sys.router->num_shards(); ++sh) {
        const Clock::time_point c = Clock::now();
        (void)sys.router->replica_engine(sh, 0)->KnMatch(
            q, kN, std::min(kK, sys.router->shard_size(sh)));
        const Clock::time_point e = Clock::now();
        tracer->Add("shard.replica", i, c, e, routed);
        slowest = std::max(slowest, MsBetween(c, e));
      }
      rep.slowest_ms += slowest;
    }

    // Render the answer as the server does; only the time is kept.
    a = Clock::now();
    const std::string rendered =
        r.ok() && parsed.ok() ? AnswerPrefix(r.value().matches) : "";
    b = Clock::now();
    tracer->Add("serve.json", i, a, b, root);
    json_ms += MsBetween(a, b);
    rep.json_us += json_ms * 1e3;
    layers_ms += json_ms;
    rep.wait_ms += MsBetween(s.sched, s.done) - layers_ms;
    ++samples;
  }
  if (samples > 0) {
    rep.parse_us /= samples;
    rep.json_us /= samples;
    rep.wait_ms /= samples;
  }
  if (rep.hits > 0) rep.hit_us /= rep.hits;
  if (rep.misses > 0) {
    rep.shard_ms /= rep.misses;
    rep.slowest_ms /= rep.misses;
  }
  return rep;
}

}  // namespace

void RunServeShardedZipf(const Args& args, Report* report) {
  const knmatch::Dataset db =
      knmatch::datagen::MakeUniform(kPoints, kDims, kDataSeed);
  const std::vector<std::vector<Value>> pool =
      SampleQueries(db, kPool, args.seed * 7919 + 2);
  std::vector<std::string> bodies;
  for (const auto& q : pool) bodies.push_back(RequestBody(q));

  std::vector<double> setups;
  System sys;
  for (size_t i = 0; i < kSetups; ++i) {
    sys.Reset();
    const Clock::time_point t0 = Clock::now();
    sys = Setup(db, pool.back());
    setups.push_back(SecondsSince(t0));
    if (!sys.server) {
      report->Fail("serve_sharded_zipf: server did not start");
      sys.Reset();
      return;
    }
  }
  report->values["setup_s"] = Median(setups);
  const knmatch::shard::RouterStats stats0 = sys.router->Stats();
  if (!stats0.shard_points.empty()) {
    double max = 0, sum = 0;
    for (const uint64_t p : stats0.shard_points) {
      max = std::max(max, static_cast<double>(p));
      sum += static_cast<double>(p);
    }
    report->values["shard.imbalance"] =
        max / (sum / static_cast<double>(stats0.shard_points.size()));
  }

  // Expected answers: a direct router call per distinct pool query.
  std::vector<std::string> prefixes;
  for (const auto& q : pool) {
    auto r = sys.router->KnMatch(q, kN, kK);
    prefixes.push_back(r.ok() ? AnswerPrefix(r.value().matches) : "");
    if (!r.ok()) report->Fail("serve_sharded_zipf: direct router call failed");
  }

  const size_t conns = std::min(Nproc(), kMaxConnections);
  std::vector<std::vector<Served>> rungs;
  std::vector<double> late;
  knmatch::cache::CacheStats cache_ref;
  const std::vector<size_t> warm =
      ZipfStream(pool.size(), kWarmRequests, args.seed * 31 + 99);
  (void)RunRung(sys.server->port(), 2000, warm, bodies, prefixes, conns,
                args.seed * 131 + 99);
  std::vector<std::vector<size_t>> streams;
  for (size_t r = 0; r < std::size(kLadder); ++r) {
    const size_t count = static_cast<size_t>(
        std::max(1.0, kLadder[r].rps * kLadder[r].share * args.seconds));
    streams.push_back(ZipfStream(pool.size(), count, args.seed * 31 + r));
  }
  if (args.corrupt) prefixes[streams[kLowRung][0]] = AnswerPrefix({});
  for (size_t r = 0; r < std::size(kLadder); ++r) {
    const std::vector<size_t>& stream = streams[r];
    const knmatch::cache::CacheStats c0 = sys.router->cache()->Stats();
    rungs.push_back(RunRung(sys.server->port(), kLadder[r].rps, stream, bodies,
                            prefixes, conns, args.seed * 131 + r));
    if (r == kReferenceRung) {
      const knmatch::cache::CacheStats c1 = sys.router->cache()->Stats();
      cache_ref.hits = c1.hits - c0.hits;
      cache_ref.misses = c1.misses - c0.misses;
      cache_ref.bytes = c1.bytes;
    }
  }
  const knmatch::serve::ServerStats server_stats = sys.server->Stats();

  double slo_rps = 0;
  for (size_t r = 0; r < rungs.size(); ++r) {
    const std::vector<Served>& served = rungs[r];
    std::vector<double> lat;
    Clock::time_point last = served.front().sched;
    for (const Served& s : served) {
      ++report->attempted;
      if (!s.answer_ok) {
        ++report->failed;
        continue;
      }
      lat.push_back(MsBetween(s.sched, s.done));
      late.push_back(s.late_ms);
      last = std::max(last, s.done);
    }
    const double span_s =
        std::chrono::duration<double>(last - served.front().sched).count();
    const double done_rps = span_s > 0 ? lat.size() / span_s : 0;
    const double tail = Percentile(lat, 99);
    report->notes.push_back(
        std::string("rung ") + kLadder[r].name + ": offered " +
        std::to_string(kLadder[r].rps) + " rps, completed " +
        std::to_string(done_rps) + " rps, p50 " +
        std::to_string(Median(lat)) + " ms, p99 " + std::to_string(tail) +
        " ms over " + std::to_string(lat.size()) + " requests");
    if (lat.size() == served.size() && tail <= kLimitMs &&
        done_rps >= 0.95 * kLadder[r].rps) {
      slo_rps = std::max(slo_rps, kLadder[r].rps);
    }
    if (r == kReferenceRung) {
      report->values["p50_ms"] = Median(lat);
      report->values["tail_ms"] = tail;
    }
    if (r == kTopRung) report->values["qps"] = done_rps;
  }
  report->values["slo_rps"] = slo_rps;
  report->values["exec.shed_frac"] =
      static_cast<double>(server_stats.shed) /
      static_cast<double>(std::max<uint64_t>(1, server_stats.requests));
  const double late_p99 = Percentile(late, 99);
  report->values["loadgen.late_ms"] = late_p99;
  if (late_p99 > kMaxLateMs) {
    report->Fail("serve_sharded_zipf: the load generator fell behind its "
                 "schedule (p99 wake-up lag " + std::to_string(late_p99) +
                 " ms)");
  }
  if (report->failed > 0 && report->correct) {
    report->Fail("serve_sharded_zipf: " + std::to_string(report->failed) +
                 " requests failed or were answered wrongly");
  }
  const uint64_t lookups = cache_ref.hits + cache_ref.misses;
  report->notes.push_back("reference rung cache hits " +
                          std::to_string(cache_ref.hits) + " of " +
                          std::to_string(lookups));
  if (lookups > 0) {
    report->values["cache.hit_ratio"] =
        static_cast<double>(cache_ref.hits) / static_cast<double>(lookups);
  }
  report->values["cache.bytes"] = static_cast<double>(cache_ref.bytes);

  if (args.trace) {
    Tracer off(false);
    Tracer tracer(true);
    const Clock::time_point a = Clock::now();
    ReplaySampled(sys, warm, rungs[kLowRung], pool, bodies, &off);
    const double untraced_s = SecondsSince(a);
    const Clock::time_point b = Clock::now();
    const Replay rep =
        ReplaySampled(sys, warm, rungs[kLowRung], pool, bodies, &tracer);
    report->values["trace_overhead_pct"] =
        100.0 * (SecondsSince(b) / untraced_s - 1.0);
    report->values["serve.parse_us"] = rep.parse_us;
    report->values["serve.json_us"] = rep.json_us;
    report->values["serve.wait_ms"] = rep.wait_ms;
    report->values["cache.hit_us"] = rep.hit_us;
    report->values["shard.query_ms"] = rep.shard_ms;
    report->values["shard.slowest_shard_ms"] = rep.slowest_ms;
    report->values["shard.overhead_ms"] = rep.shard_ms - rep.slowest_ms;
    report->values["unattributed_frac"] = tracer.UnattributedFrac();
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
      report->notes.push_back("could not write " + args.trace_out);
    }
  }
  sys.Reset();
}

}  // namespace perfbench
